// Package geojson exports the system's spatial objects — routes,
// trajectories, road networks, inferred paths — as GeoJSON
// FeatureCollections for visualization in standard GIS tooling. Planar
// coordinates are converted to WGS84 through a geo.Projection so the
// output drops straight onto a map.
package geojson

import (
	"encoding/json"
	"io"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Feature is a GeoJSON feature.
type Feature struct {
	Type       string         `json:"type"`
	Geometry   Geometry       `json:"geometry"`
	Properties map[string]any `json:"properties,omitempty"`
}

// Geometry is a GeoJSON geometry (Point, LineString or MultiLineString).
type Geometry struct {
	Type        string `json:"type"`
	Coordinates any    `json:"coordinates"`
}

// FeatureCollection is a GeoJSON feature collection.
type FeatureCollection struct {
	Type     string    `json:"type"`
	Features []Feature `json:"features"`
}

// Writer accumulates features in a fixed projection.
type Writer struct {
	proj *geo.Projection
	fc   FeatureCollection
}

// NewWriter returns a Writer projecting planar coordinates around origin.
func NewWriter(origin geo.LatLon) *Writer {
	return &Writer{
		proj: geo.NewProjection(origin),
		fc:   FeatureCollection{Type: "FeatureCollection"},
	}
}

func (w *Writer) coord(p geo.Point) [2]float64 {
	ll := w.proj.ToLatLon(p)
	return [2]float64{ll.Lon, ll.Lat} // GeoJSON order: lon, lat
}

func (w *Writer) line(pl geo.Polyline) [][2]float64 {
	out := make([][2]float64, len(pl))
	for i, p := range pl {
		out[i] = w.coord(p)
	}
	return out
}

// AddPolyline appends a LineString feature.
func (w *Writer) AddPolyline(pl geo.Polyline, props map[string]any) {
	w.fc.Features = append(w.fc.Features, Feature{
		Type:       "Feature",
		Geometry:   Geometry{Type: "LineString", Coordinates: w.line(pl)},
		Properties: props,
	})
}

// AddPoint appends a Point feature.
func (w *Writer) AddPoint(p geo.Point, props map[string]any) {
	w.fc.Features = append(w.fc.Features, Feature{
		Type:       "Feature",
		Geometry:   Geometry{Type: "Point", Coordinates: w.coord(p)},
		Properties: props,
	})
}

// AddRoute appends a route as a LineString with length metadata.
func (w *Writer) AddRoute(g *roadnet.Graph, r roadnet.Route, props map[string]any) {
	if props == nil {
		props = map[string]any{}
	}
	props["length_m"] = r.Length(g)
	props["segments"] = len(r)
	w.AddPolyline(r.Points(g), props)
}

// AddTrajectory appends a trajectory as a LineString plus per-sample Point
// features when withPoints is set.
func (w *Writer) AddTrajectory(t *traj.Trajectory, withPoints bool, props map[string]any) {
	pl := make(geo.Polyline, t.Len())
	for i, p := range t.Points {
		pl[i] = p.Pt
	}
	if props == nil {
		props = map[string]any{}
	}
	props["id"] = t.ID
	props["samples"] = t.Len()
	w.AddPolyline(pl, props)
	if withPoints {
		for _, p := range t.Points {
			w.AddPoint(p.Pt, map[string]any{"t": p.T, "traj": t.ID})
		}
	}
}

// Len returns the number of accumulated features.
func (w *Writer) Len() int { return len(w.fc.Features) }

// Encode writes the collection as JSON.
func (w *Writer) Encode(out io.Writer) error {
	enc := json.NewEncoder(out)
	return enc.Encode(w.fc)
}
