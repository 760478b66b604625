// Command gendata generates a synthetic city and taxi-trip archive — the
// simulator substitute for the paper's Beijing road network and 33,000-taxi
// dataset — and writes them to disk as JSON for cmd/hris.
//
// Usage:
//
//	gendata -out data/ [-seed 7] [-rows 22] [-cols 22] [-trips 1200]
//	        [-stream 100]
//
// With -stream N, after the dataset files are written the same fleet
// simulation continues for N more trips, emitted as NDJSON on stdout
// ({"id": "...", "points": [[x, y, t], ...]} per line) — fresh trips the
// archive has not seen, ready to pipe into `hris -follow`. Informational
// output moves to stderr so the stream stays clean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/traj"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gendata: ")
	var (
		out    = flag.String("out", "data", "output directory")
		seed   = flag.Int64("seed", 7, "random seed")
		rows   = flag.Int("rows", 22, "city grid rows")
		cols   = flag.Int("cols", 22, "city grid columns")
		trips  = flag.Int("trips", 1200, "archive trips to simulate")
		hot    = flag.Int("hotspots", 10, "number of trip hotspots")
		stream = flag.Int("stream", 0, "after the archive, emit this many extra trips as NDJSON on stdout")
	)
	flag.Parse()

	infoW := os.Stdout
	if *stream > 0 {
		infoW = os.Stderr
	}
	info := func(format string, a ...any) { fmt.Fprintf(infoW, format, a...) }

	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols, ccfg.Hotspots = *rows, *cols, *hot
	city := sim.GenerateCity(ccfg, *seed)
	info("generated %v\n", city)
	info("network: %v\n", city.Graph.ComputeStats())

	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = *trips
	fcfg.Seed = *seed
	// The explicit emitter loop (rather than BuildDataset) lets -stream
	// continue the exact same simulation past the archive.
	em := sim.NewTripEmitter(city, fcfg)
	ds := &sim.Dataset{City: city, Truth: make(map[string]roadnet.Route, *trips)}
	for i := 0; i < *trips; i++ {
		tr, route, ok := em.Next()
		if !ok {
			continue
		}
		ds.Archive = append(ds.Archive, tr)
		ds.Truth[tr.ID] = route
	}
	info("simulated %d archive trips (%d requested)\n", len(ds.Archive), *trips)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatalf("mkdir: %v", err)
	}
	netPath := filepath.Join(*out, "network.json")
	f, err := os.Create(netPath)
	if err != nil {
		log.Fatalf("create %s: %v", netPath, err)
	}
	if err := city.Graph.WriteJSON(f); err != nil {
		log.Fatalf("write network: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("close network: %v", err)
	}

	truth := make(map[string][]int, len(ds.Truth))
	for id, route := range ds.Truth {
		truth[id] = route
	}
	archPath := filepath.Join(*out, "archive.json")
	af, err := os.Create(archPath)
	if err != nil {
		log.Fatalf("create %s: %v", archPath, err)
	}
	if err := traj.WriteArchive(af, ds.Archive, truth); err != nil {
		log.Fatalf("write archive: %v", err)
	}
	if err := af.Close(); err != nil {
		log.Fatalf("close archive: %v", err)
	}

	points := 0
	low := 0
	for _, tr := range ds.Archive {
		points += tr.Len()
		if tr.IsLowSamplingRate() {
			low++
		}
	}
	info("wrote %s (%d vertices, %d segments)\n", netPath, city.Graph.NumVertices(), city.Graph.NumSegments())
	info("wrote %s (%d trips, %d GPS points, %d%% low-sampling-rate)\n",
		archPath, len(ds.Archive), points, 100*low/len(ds.Archive))

	if *stream > 0 {
		enc := json.NewEncoder(os.Stdout)
		emitted := 0
		// A trip the simulation fails to route is skipped; the bound keeps a
		// fleet that never yields one from looping forever.
		for attempts := 0; emitted < *stream && attempts < 200*(*stream); attempts++ {
			tr, _, ok := em.Next()
			if !ok {
				continue
			}
			if err := enc.Encode(traj.NewTrajJSON(tr, nil)); err != nil {
				log.Fatalf("stream: %v", err)
			}
			emitted++
		}
		info("streamed %d extra trips as NDJSON\n", emitted)
	}
}
