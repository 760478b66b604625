package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload, traced, on a toy world for a fraction of a
// second, and holds the program and BENCHMARK.json to each other: the same
// workloads, the same metric names and units, each emitted once with a finite
// value, and no failed operation or output check.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metricSpec struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i])
		}
	}
	sameDefs := func(kind string, want []metricSpec, have []metricDef) {
		if len(want) != len(have) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the program has %d", kind, len(want), len(have))
		}
		name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
		seen := map[string]bool{}
		for i, m := range want {
			if m.Name != have[i].name || m.Unit != have[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, have[i].name, have[i].unit)
			}
			if !name.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, m.Name)
			}
			seen[m.Name] = true
		}
	}
	sameDefs("end_to_end", spec.EndToEnd, endToEnd)
	sameDefs("per_layer", spec.PerLayer, perLayer)

	cfg := defaultConfig()
	cfg.seconds = 0.4
	cfg.rows, cfg.cols, cfg.hotspots, cfg.trips = 10, 10, 5, 60
	cfg.warmup, cfg.setups, cfg.markPerSecond = 5, 1, 10
	// As in the real shape, the traced sample is larger than the replay pool.
	cfg.replayPool, cfg.sample, cfg.sampleBatches, cfg.checked = 6, 8, 3, 20
	cfg.root, cfg.outDir = "..", t.TempDir()
	for _, w := range workloads {
		out, err := runWorkload(context.Background(), cfg, w, true)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !out.correct() || out.failed != 0 || out.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, problems %v", w, out.attempted, out.failed, out.problems)
		}
		if w == "infer-replay" && out.maxQuery >= cfg.replayPool {
			t.Errorf("%s: query %d was replayed, outside the pool of %d", w, out.maxQuery, cfg.replayPool)
		}
		if len(out.vals) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics measured, want %d", w, len(out.vals), len(endToEnd)+len(perLayer))
		}
		for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			m, ok := out.vals[def.name]
			if !ok || math.IsNaN(m.v) || math.IsInf(m.v, 0) {
				t.Errorf("%s: metric %s missing or not finite", w, def.name)
			}
		}
		for _, def := range endToEnd {
			if out.vals[def.name].v <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", w, def.name, out.vals[def.name].v)
			}
		}

		var trace struct{ Spans []span }
		raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &trace); err != nil {
			t.Fatal(err)
		}
		children := 0
		for _, s := range trace.Spans {
			if s.End < s.Start {
				t.Errorf("%s: span %d (%s) ends before it starts", w, s.ID, s.Name)
			}
			if s.Parent >= 0 {
				children++
				if p := trace.Spans[s.Parent]; p.Request != s.Request || s.Start < p.Start || s.End > p.End {
					t.Errorf("%s: span %d (%s) does not nest in its parent %d", w, s.ID, s.Name, s.Parent)
				}
			}
		}
		if children == 0 {
			t.Errorf("%s: trace holds no parented spans", w)
		}
	}
	left, err := filepath.Glob(filepath.Join(cfg.outDir, "run-*"))
	if err != nil || len(left) > 0 {
		t.Errorf("temporary directories left behind: %v (%v)", left, err)
	}
}
