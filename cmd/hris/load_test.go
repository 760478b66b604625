package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// serveGraph serves /infer and /stream the way main does, over a store of
// the test world's archive on g, and returns the base URL.
func serveGraph(t *testing.T, g *roadnet.Graph, trajs []*traj.Trajectory) string {
	t.Helper()
	reg := obs.New()
	st := hist.NewShardedStore(g, trajs, hist.ShardedConfig{
		StoreConfig: hist.StoreConfig{Registry: reg},
	})
	t.Cleanup(func() { st.Close() })
	params := core.DefaultParams()
	eng := core.NewEngineWithRegistry(st, params, reg)
	s := &server{
		eng: eng, gate: core.NewGate(eng, core.GateConfig{}),
		st: st, params: params, root: context.Background(),
		drainGrace: drainGrace, sm: newSessionMetrics(reg),
	}
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return ts.URL
}

// post returns the body of a 200 answer to a POST of body to url.
func post(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d, %v: %s", url, resp.StatusCode, err, out)
	}
	return out
}

// TestServesWithoutCH: the graph loadDataset returns answers /infer and a
// whole /stream session — every update and the final record — without
// building a contraction hierarchy, and byte for byte as a graph whose CH
// was built before the first query does. Under -race it also checks that
// the network goroutine hands the graph over safely.
func TestServesWithoutCH(t *testing.T) {
	ds := testWorld(t)
	dir := t.TempDir()
	writeDataset(t, dir, ds, nil)
	g, trajs, _, _ := loadDataset(dir)
	ref, err := readNetwork(filepath.Join(dir, "network.json"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Oracle()
	got, want := serveGraph(t, g, trajs), serveGraph(t, ref, ds.Archive)

	for i, q := range worldLight[:4] {
		body := inferBody(t, q, 0)
		if a, b := post(t, got+"/infer", body), post(t, want+"/infer", body); !bytes.Equal(a, b) {
			t.Fatalf("query %d: /infer without the CH\n%s\nwith it\n%s", i, a, b)
		}
	}
	var stream bytes.Buffer
	for _, pt := range worldHeavy.Points[:40] {
		fmt.Fprintf(&stream, "[%g,%g,%g]\n", pt.Pt.X, pt.Pt.Y, pt.T)
	}
	a := post(t, got+"/stream?id=veh-noch", stream.Bytes())
	b := post(t, want+"/stream?id=veh-noch", stream.Bytes())
	if !bytes.Equal(a, b) {
		t.Fatalf("/stream without the CH\n%s\nwith it\n%s", a, b)
	}
	if n := bytes.Count(a, []byte("\n")); n != 41 {
		t.Fatalf("/stream answered %d lines, want 40 updates and a final record:\n%s", n, a)
	}

	if _, built := g.OracleStats(); built {
		t.Fatal("the loaded graph built a CH")
	}
	if _, built := ref.OracleStats(); !built {
		t.Fatal("the reference graph has no CH")
	}
}
