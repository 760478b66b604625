package geojson

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

var beijing = geo.LatLon{Lat: 39.9, Lon: 116.4}

func TestWriterRoundTripsValidGeoJSON(t *testing.T) {
	g := roadnet.NewGrid(3, 3, 100, 15)
	w := NewWriter(beijing)
	route, _, ok := g.EdgePathBetweenVertices(0, 8)
	if !ok {
		t.Fatal("no route")
	}
	w.AddRoute(g, route, map[string]any{"rank": 1})
	tr := &traj.Trajectory{ID: "q", Points: []traj.GPSPoint{
		{Pt: geo.Pt(0, 0), T: 0}, {Pt: geo.Pt(100, 0), T: 60},
	}}
	w.AddTrajectory(tr, true, nil)
	w.AddPoint(geo.Pt(50, 50), map[string]any{"kind": "hotspot"})
	if w.Len() != 5 { // route + traj line + 2 sample points + 1 point
		t.Fatalf("features = %d", w.Len())
	}
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var fc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &fc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if fc["type"] != "FeatureCollection" {
		t.Fatalf("type = %v", fc["type"])
	}
	features := fc["features"].([]any)
	if len(features) != 5 {
		t.Fatalf("encoded features = %d", len(features))
	}
	first := features[0].(map[string]any)
	if first["geometry"].(map[string]any)["type"] != "LineString" {
		t.Fatal("route should be a LineString")
	}
	props := first["properties"].(map[string]any)
	if props["length_m"].(float64) <= 0 {
		t.Fatal("route length missing")
	}
}

func TestCoordinatesAreWGS84NearOrigin(t *testing.T) {
	w := NewWriter(beijing)
	w.AddPoint(geo.Pt(0, 0), nil)
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var fc FeatureCollection
	if err := json.Unmarshal(buf.Bytes(), &fc); err != nil {
		t.Fatal(err)
	}
	coords := fc.Features[0].Geometry.Coordinates.([]any)
	lon := coords[0].(float64)
	lat := coords[1].(float64)
	if math.Abs(lon-116.4) > 1e-9 || math.Abs(lat-39.9) > 1e-9 {
		t.Fatalf("origin mapped to (%v, %v)", lon, lat)
	}
}
