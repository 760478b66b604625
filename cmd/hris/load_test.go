package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/roadnet"
)

// TestLoadDatasetConcurrentOracle: a query sent the moment loadDataset
// returns — while the oracle may still be building beside the store — gets
// the answer of a graph whose oracle was built before any query, in both
// accel modes. Under -race this also checks that the network goroutine and
// the store build share the graph safely.
func TestLoadDatasetConcurrentOracle(t *testing.T) {
	ds := testWorld(t)
	dir := t.TempDir()
	writeDataset(t, dir, ds, nil)
	q := worldLight[0]
	infer := func(t *testing.T, st *hist.Store) *core.Result {
		t.Helper()
		res, err := core.NewEngine(st, core.DefaultParams()).InferRoutes(q, core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, mode := range []roadnet.AccelMode{roadnet.AccelCH, roadnet.AccelDijkstra} {
		t.Run(mode.String(), func(t *testing.T) {
			ref, err := readNetwork(filepath.Join(dir, "network.json"))
			if err != nil {
				t.Fatal(err)
			}
			ref.SetAccel(mode)
			ref.Oracle()
			want := infer(t, hist.NewStore(ref, ds.Archive, hist.StoreConfig{}))

			g, trajs, _ := loadDataset(dir, mode, true)
			got := infer(t, hist.NewStore(g, trajs, hist.StoreConfig{}))
			if g.Accel() != mode {
				t.Fatalf("accel = %v, want %v", g.Accel(), mode)
			}
			if _, built := g.OracleStats(); built != (mode == roadnet.AccelCH) {
				t.Fatalf("CH stats present = %v after a query in mode %v", built, mode)
			}
			if len(got.Routes) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("answer with the oracle built concurrently differs from the prebuilt one:\n got %+v\nwant %+v", got.Routes, want.Routes)
			}
		})
	}
}
