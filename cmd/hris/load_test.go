package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hist"
)

// TestLoadDatasetConcurrentOracle: a query sent the moment loadDataset
// returns — while the CH may still be building beside the store — gets the
// answer of a graph whose CH was built before any query. Under -race this
// also checks that the network goroutine and the store build share the
// graph safely.
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
	ref, err := readNetwork(filepath.Join(dir, "network.json"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Oracle()
	want := infer(t, hist.NewStore(ref, ds.Archive, hist.StoreConfig{}))

	g, trajs, _ := loadDataset(dir, true)
	got := infer(t, hist.NewStore(g, trajs, hist.StoreConfig{}))
	if _, built := g.OracleStats(); !built {
		t.Fatal("no CH stats after a query")
	}
	if len(got.Routes) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("answer with the CH built concurrently differs from the prebuilt one:\n got %+v\nwant %+v", got.Routes, want.Routes)
	}
}
