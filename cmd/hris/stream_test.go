package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/obs"
	"repro/internal/traj"
)

// newStreamServer builds a /stream-capable server over an httptest listener,
// returning the server state (for its store/registry) and the base URL.
func newStreamServer(t *testing.T, lim streamLimits, root context.Context, ingest bool) (*server, string) {
	t.Helper()
	s := newStreamState(t, lim, root, ingest)
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// newStreamState builds the server state newStreamServer serves.
func newStreamState(t *testing.T, lim streamLimits, root context.Context, ingest bool) *server {
	t.Helper()
	ds := testWorld(t)
	reg := obs.New()
	st := hist.NewShardedStore(ds.City.Graph, ds.Archive, hist.ShardedConfig{
		StoreConfig: hist.StoreConfig{Registry: reg},
	})
	t.Cleanup(func() { st.Close() })
	params := core.DefaultParams()
	eng := core.NewEngineWithRegistry(st, params, reg)
	return &server{
		eng: eng, gate: core.NewGate(eng, core.GateConfig{}),
		st: st, params: params, root: root,
		streamIngest: ingest, drainGrace: drainGrace,
		limits: lim, sm: newSessionMetrics(reg),
	}
}

// streamClient drives one /stream connection in a strict write-then-read
// loop: each pushed point is answered by exactly one NDJSON update line.
type streamClient struct {
	t    *testing.T
	w    *io.PipeWriter
	br   *bufio.Reader
	resp *http.Response
}

func openStream(t *testing.T, base, id string) (*streamClient, int) {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/stream?id="+id, pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		pw.Close()
		return nil, resp.StatusCode
	}
	sc := &streamClient{t: t, w: pw, br: bufio.NewReader(resp.Body), resp: resp}
	t.Cleanup(func() { pw.Close(); resp.Body.Close() })
	return sc, resp.StatusCode
}

// push writes one point and reads its update line.
func (sc *streamClient) push(pt traj.GPSPoint) streamUpdateJSON {
	sc.t.Helper()
	if _, err := fmt.Fprintf(sc.w, "[%g,%g,%g]\n", pt.Pt.X, pt.Pt.Y, pt.T); err != nil {
		sc.t.Fatalf("write point: %v", err)
	}
	line, err := sc.br.ReadBytes('\n')
	if err != nil {
		sc.t.Fatalf("read update: %v (got %q)", err, line)
	}
	var upd streamUpdateJSON
	if err := json.Unmarshal(line, &upd); err != nil {
		sc.t.Fatalf("decode update %q: %v", line, err)
	}
	return upd
}

// finish closes the request body and reads the final record.
func (sc *streamClient) finish() streamFinalJSON {
	sc.t.Helper()
	sc.w.Close()
	return sc.readFinal()
}

func (sc *streamClient) readFinal() streamFinalJSON {
	sc.t.Helper()
	line, err := sc.br.ReadBytes('\n')
	if err != nil {
		sc.t.Fatalf("read final record: %v (got %q)", err, line)
	}
	var fin streamFinalJSON
	if err := json.Unmarshal(line, &fin); err != nil {
		sc.t.Fatalf("decode final %q: %v", line, err)
	}
	if !fin.Final {
		sc.t.Fatalf("expected final record, got %q", line)
	}
	return fin
}

// waitGoroutines fails the test unless the process's goroutine count falls
// back to base, its count before a stream opened, within 2 s.
func waitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 2 s after %s, %d before the stream opened:\n%s",
				runtime.NumGoroutine(), after, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamProtocol: the happy path end to end over a real connection — one
// update per point with a sane firm prefix, then a final record whose routes
// match the offline engine bit for bit on the same trace.
func TestStreamProtocol(t *testing.T) {
	s, base := newStreamServer(t, streamLimits{}, context.Background(), false)
	q := worldLight[0]
	sc, code := openStream(t, base, "veh-proto")
	if code != http.StatusOK {
		t.Fatalf("open = %d, want 200", code)
	}
	firm := 0
	for i, pt := range q.Points {
		upd := sc.push(pt)
		if upd.Seq != i || upd.Pairs != i {
			t.Fatalf("point %d: seq/pairs = %d/%d", i, upd.Seq, upd.Pairs)
		}
		if upd.FirmPairs < firm || upd.FirmPairs > upd.Pairs {
			t.Fatalf("point %d: firm_pairs %d (prev %d)", i, upd.FirmPairs, firm)
		}
		firm = upd.FirmPairs
		if i > 0 && len(upd.Provisional) == 0 {
			t.Fatalf("point %d: empty provisional", i)
		}
	}
	fin := sc.finish()
	if fin.Error != "" || fin.Draining || fin.Truncated {
		t.Fatalf("final record = %+v, want clean finalize", fin)
	}
	want, err := s.eng.InferRoutes(q, s.params)
	if err != nil {
		t.Fatalf("offline: %v", err)
	}
	if len(fin.Routes) != len(want.Routes) {
		t.Fatalf("final routes = %d, offline %d", len(fin.Routes), len(want.Routes))
	}
	for i := range fin.Routes {
		if fin.Routes[i].Score != want.Routes[i].Score || len(fin.Routes[i].Segments) != len(want.Routes[i].Route) {
			t.Fatalf("route %d diverges from offline: %+v vs %+v", i, fin.Routes[i], want.Routes[i])
		}
	}
}

// TestStreamDrainOnShutdown is the shutdown regression test: an open stream
// must finalize what it has and answer a "draining" final record within the
// grace period when the root context is cancelled, so the server's graceful
// Shutdown window is met instead of the connection being cut mid-session.
func TestStreamDrainOnShutdown(t *testing.T) {
	root, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, base := newStreamServer(t, streamLimits{}, root, false)
	q := worldLight[1]
	before := runtime.NumGoroutine()
	sc, code := openStream(t, base, "veh-drain")
	if code != http.StatusOK {
		t.Fatalf("open = %d, want 200", code)
	}
	for _, pt := range q.Points[:4] {
		sc.push(pt)
	}
	cancel() // process shutdown begins; the client has NOT closed its body
	got := make(chan streamFinalJSON, 1)
	go func() { got <- sc.readFinal() }()
	select {
	case fin := <-got:
		if !fin.Draining {
			t.Fatalf("final record = %+v, want draining=true", fin)
		}
		if fin.Error != "" || len(fin.Routes) == 0 {
			t.Fatalf("draining finalize = %+v, want routes from the 4 accepted points", fin)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("no draining final record within the shutdown grace window")
	}
	// The drained handler, its body reader and its connection are gone.
	sc.w.Close()
	sc.resp.Body.Close()
	waitGoroutines(t, before, "the drain")
}

// TestStreamDrainGraceExpiry: when the drain grace expires before the
// shutdown finalize completes, the handler must return without the lagging
// finish goroutine ever touching the ResponseWriter or the store again — the
// abandoned stream just sees its connection close (no final record is owed).
// With a zero grace the expiry races the finalize every time; -race plus the
// ingest path pins the no-use-after-return guarantee.
func TestStreamDrainGraceExpiry(t *testing.T) {
	root, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, base := newStreamServer(t, streamLimits{}, root, true)
	s.drainGrace = 0 // expire the grace immediately on shutdown
	q := worldLight[1]
	sc, code := openStream(t, base, "veh-grace")
	if code != http.StatusOK {
		t.Fatalf("open = %d, want 200", code)
	}
	for _, pt := range q.Points[:4] {
		sc.push(pt)
	}
	cancel() // shutdown begins; the grace is already expired
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Either the finish goroutine won the race and a draining final
		// record arrives, or the stream was abandoned and the read fails
		// when the handler returns and the connection closes. Both are
		// legal; writes after the handler returned are not (-race enforced).
		if line, err := sc.br.ReadBytes('\n'); err == nil {
			var fin streamFinalJSON
			if jerr := json.Unmarshal(line, &fin); jerr != nil || !fin.Final {
				t.Errorf("unexpected trailing line %q (err %v)", line, jerr)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(4 * time.Second):
		t.Fatal("handler did not release the connection after grace expiry")
	}
}

// TestStreamIngestFinalize: with finalize-to-ingest enabled, a cleanly closed
// stream admits its trajectory into the live archive and reports the new
// epoch in the final record.
func TestStreamIngestFinalize(t *testing.T) {
	s, base := newStreamServer(t, streamLimits{}, context.Background(), true)
	before := s.st.Stats().Epoch
	q := worldLight[2]
	sc, code := openStream(t, base, "veh-ingest")
	if code != http.StatusOK {
		t.Fatalf("open = %d, want 200", code)
	}
	for _, pt := range q.Points {
		sc.push(pt)
	}
	fin := sc.finish()
	if !fin.Ingested || fin.Epoch <= before {
		t.Fatalf("final record = %+v, want ingested with epoch > %d", fin, before)
	}
	if got := s.st.Stats().Epoch; got != fin.Epoch {
		t.Fatalf("archive epoch = %d, final record said %d", got, fin.Epoch)
	}
}

// TestStreamAdmission pins the pre-stream status mapping: 405 on GET, 409 on
// a duplicate vehicle id, 429 at -max-sessions, and id and slot reuse after a
// stream ends or its client vanishes.
func TestStreamAdmission(t *testing.T) {
	_, base := newStreamServer(t, streamLimits{maxSessions: 2}, context.Background(), false)

	resp, err := http.Get(base + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /stream = %d, want 405", resp.StatusCode)
	}

	scA, code := openStream(t, base, "veh-a")
	if code != http.StatusOK {
		t.Fatalf("first open = %d, want 200", code)
	}
	scA.push(worldLight[3].Points[0])

	// A duplicate id passes admission (capacity 2) but hits the one-session-
	// per-vehicle rule; the refused open must release its admission slot.
	if _, code := openStream(t, base, "veh-a"); code != http.StatusConflict {
		t.Fatalf("duplicate id = %d, want 409", code)
	}
	scB, code := openStream(t, base, "veh-b")
	if code != http.StatusOK {
		t.Fatalf("second open = %d, want 200", code)
	}
	if _, code := openStream(t, base, "veh-c"); code != http.StatusTooManyRequests {
		t.Fatalf("open at capacity = %d, want 429", code)
	}

	scA.w.Close()
	scA.readFinal() // session released after the final record

	scC, code := openStream(t, base, "veh-c")
	if code != http.StatusOK {
		t.Fatalf("open after release = %d, want 200", code)
	}

	// A client that vanishes mid-stream gives back its id and its slot: with
	// veh-c still open at capacity 2, reopening veh-b answers 200 only once
	// both are free (409 or 429 until then).
	scB.resp.Body.Close()
	waitFor(t, "the vanished stream's id and slot", func() bool {
		scB, code = openStream(t, base, "veh-b")
		return code == http.StatusOK
	})
	scB.push(worldLight[4].Points[0])
	scC.w.Close()
	scB.w.Close()
}

// TestStreamPointCap: a session at its point cap finalizes what fit, flagged
// truncated, instead of failing or silently dropping points.
func TestStreamPointCap(t *testing.T) {
	_, base := newStreamServer(t, streamLimits{maxPoints: 4}, context.Background(), false)
	q := worldHeavy // 2,000 points: comfortably longer than the cap
	sc, code := openStream(t, base, "veh-cap")
	if code != http.StatusOK {
		t.Fatalf("open = %d, want 200", code)
	}
	for _, pt := range q.Points[:4] {
		sc.push(pt)
	}
	// The fifth point exceeds the cap: the server answers with the truncated
	// final record instead of an update.
	if _, err := fmt.Fprintf(sc.w, "[%g,%g,%g]\n", q.Points[4].Pt.X, q.Points[4].Pt.Y, q.Points[4].T); err != nil {
		t.Fatal(err)
	}
	fin := sc.readFinal()
	if !fin.Truncated || fin.Error != "" || len(fin.Routes) == 0 {
		t.Fatalf("final record = %+v, want truncated finalize with routes", fin)
	}
}

// TestStreamIdleTimeout: a stream silent for -session-idle gets a final error
// record and then EOF, and its handler, body reader and connection go with
// it. With one slot, silent streams opened back to back each get in, no two
// stream handlers are ever live at once, the goroutine count settles back
// after each idle close, and a vehicle that does send points streams to a
// clean finish.
func TestStreamIdleTimeout(t *testing.T) {
	const idle = 50 * time.Millisecond
	s := newStreamState(t, streamLimits{maxSessions: 1, idle: idle}, context.Background(), false)
	var live, maxLive atomic.Int32
	mux := s.mux()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stream" {
			n := live.Add(1)
			defer live.Add(-1)
			for m := maxLive.Load(); n > m && !maxLive.CompareAndSwap(m, n); m = maxLive.Load() {
			}
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	const silent = 3
	for i := 0; i < silent; i++ {
		before := runtime.NumGoroutine()
		sc, code := openStream(t, ts.URL, fmt.Sprintf("veh-silent-%d", i))
		if code != http.StatusOK {
			t.Fatalf("silent stream %d: open = %d, want 200", i, code)
		}
		opened := time.Now()
		// Past the bound, cut the read short so a missing record fails the
		// test instead of hanging it.
		cut := time.AfterFunc(idle+time.Second, func() { sc.resp.Body.Close() })
		fin := sc.readFinal()
		if fin.Error == "" || len(fin.Routes) != 0 {
			t.Fatalf("silent stream %d: final record = %+v, want an idle error", i, fin)
		}
		if _, err := sc.br.ReadByte(); err != io.EOF {
			t.Fatalf("silent stream %d: after the final record: %v, want EOF", i, err)
		}
		cut.Stop()
		if d := time.Since(opened); d > idle+time.Second {
			t.Fatalf("silent stream %d: closed %v after opening, want within 1 s of going idle", i, d)
		}
		sc.w.Close()
		sc.resp.Body.Close()
		waitGoroutines(t, before, "the idle close")
	}
	if got := s.sm.evicted.Value(); got != silent {
		t.Fatalf("session.evicted = %d, want %d", got, silent)
	}

	sc, code := openStream(t, ts.URL, "veh-live")
	if code != http.StatusOK {
		t.Fatalf("open after idle closes = %d, want 200", code)
	}
	for _, pt := range worldLight[0].Points {
		sc.push(pt)
	}
	if fin := sc.finish(); fin.Error != "" || len(fin.Routes) == 0 {
		t.Fatalf("final record = %+v, want a clean finalize", fin)
	}
	if m := maxLive.Load(); m > 1 {
		t.Fatalf("%d stream handlers were live at once, want at most 1", m)
	}
}
