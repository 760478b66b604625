package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/hist"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Example demonstrates the minimal HRIS flow: index historical
// trajectories, then infer routes for a low-sampling-rate query.
func Example() {
	// A 3×5 Manhattan grid (100 m blocks, 15 m/s limit).
	g := roadnet.NewGrid(3, 5, 100, 15)

	// Historical trips along the bottom row, sampled every 20 s.
	var archive []*traj.Trajectory
	for k := 0; k < 5; k++ {
		tr := &traj.Trajectory{ID: fmt.Sprintf("trip-%d", k)}
		for i := 0; i <= 8; i++ {
			tr.Points = append(tr.Points, traj.GPSPoint{
				Pt: geo.Pt(float64(i)*50, float64(k)), T: float64(i) * 20,
			})
		}
		archive = append(archive, tr)
	}

	eng := core.NewEngine(hist.NewArchive(g, archive), core.DefaultParams())

	// A query with just two samples 3 minutes apart.
	query := &traj.Trajectory{ID: "q", Points: []traj.GPSPoint{
		{Pt: geo.Pt(10, 2), T: 0},
		{Pt: geo.Pt(390, -2), T: 180},
	}}
	res, err := eng.InferRoutes(query, eng.Defaults())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	top := res.Routes[0]
	fmt.Printf("routes: %d\n", len(res.Routes))
	fmt.Printf("top route: %d segments, valid: %v\n", len(top.Route), top.Route.Valid(g))
	// Output:
	// routes: 5
	// top route: 4 segments, valid: true
}

// ExampleKGRI shows the top-K global route assembly from local route sets.
func ExampleKGRI() {
	g := roadnet.NewGrid(2, 4, 100, 15)
	edge := func(u, v roadnet.VertexID) roadnet.EdgeID {
		for i := range g.Segments {
			if g.Segments[i].From == u && g.Segments[i].To == v {
				return g.Segments[i].ID
			}
		}
		return roadnet.NoEdge
	}
	refs := func(ids ...int) []int32 {
		out := make([]int32, 0, len(ids))
		for _, id := range ids {
			out = append(out, int32(id))
		}
		return out // callers pass sorted unique ids
	}
	locals := [][]core.LocalRoute{
		{{Route: roadnet.Route{edge(0, 1)}, Refs: refs(1, 2), Popularity: 2.0}},
		{
			{Route: roadnet.Route{edge(1, 2)}, Refs: refs(1, 2), Popularity: 1.5},
			{Route: roadnet.Route{edge(1, 2)}, Refs: refs(9), Popularity: 1.6},
		},
	}
	routes := core.KGRI(g, locals, 2)
	fmt.Printf("global routes: %d\n", len(routes))
	fmt.Printf("winner continues with the same trajectories: parts %v\n", routes[0].Parts)
	// Output:
	// global routes: 2
	// winner continues with the same trajectories: parts [0 0]
}
