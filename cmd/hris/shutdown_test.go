package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/obs"
)

// TestServerShutdownReturnsGoroutines: a server that answered /infer — a
// served query, a query its client cancelled and a 429 — and /ingest
// batches against a durable store leaves no goroutine behind once it is
// shut down and its store closed. The count must fall back to its value
// from before the store opened within 5 s.
func TestServerShutdownReturnsGoroutines(t *testing.T) {
	ds := testWorld(t)
	base := runtime.NumGoroutine()

	reg := obs.New()
	st, _, err := hist.OpenShardedStore(t.TempDir(), ds.City.Graph, ds.Archive, hist.ShardedConfig{
		Shards:      2,
		StoreConfig: hist.StoreConfig{Registry: reg, WALSync: hist.SyncInterval, CompactSegments: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams()
	eng := core.NewEngineWithRegistry(st, params, reg)
	root, stop := context.WithCancel(context.Background())
	defer stop()
	s := &server{
		eng: eng, gate: core.NewGate(eng, core.GateConfig{MaxInflight: 1, QueueDepth: 0}),
		st: st, params: params, root: root, drainGrace: drainGrace,
		limits: streamLimits{maxSessions: 4}, sm: newSessionMetrics(reg),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.mux()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	transport := &http.Transport{}
	client := &http.Client{Transport: transport}
	post := func(ctx context.Context, path string, body []byte) (int, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+ln.Addr().String()+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}

	if code, err := post(context.Background(), "/infer", inferBody(t, worldLight[0], 0)); code != http.StatusOK {
		t.Fatalf("/infer = %d, %v; want 200", code, err)
	}
	// The heavy query holds the one worker slot, so the next one finds no
	// room (429); then the heavy query's client gives up.
	heavyCtx, cancelHeavy := context.WithCancel(context.Background())
	heavy := make(chan error, 1)
	go func() {
		_, err := post(heavyCtx, "/infer", inferBody(t, worldHeavy, 0))
		heavy <- err
	}()
	waitFor(t, "the heavy query to take the worker slot", func() bool {
		return reg.Histogram(obs.HistServerQueueWait).Count() >= 2
	})
	if code, err := post(context.Background(), "/infer", inferBody(t, worldLight[1], 0)); code != http.StatusTooManyRequests {
		t.Fatalf("/infer behind a held slot = %d, %v; want 429", code, err)
	}
	cancelHeavy()
	if err := <-heavy; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled /infer: %v, want context.Canceled", err)
	}
	for i := 0; i < 3; i++ {
		body := ingestBody(t, fmt.Sprintf("shutdown-%d", i), ds.Archive[i])
		if code, err := post(context.Background(), "/ingest", body); code != http.StatusOK {
			t.Fatalf("/ingest %d = %d, %v; want 200", i, code, err)
		}
	}

	stop()
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}
	transport.CloseIdleConnections()
	if err := st.Close(); err != nil {
		t.Fatalf("store Close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 5 s after the shutdown, %d before the store opened:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
