package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traj"
)

// The test world is built once: a small simulated city plus query material.
// worldLight holds distinct short queries;
// worldHeavy is a long dense query whose inference spans many pairs — slow
// enough that a test can deterministically act (cancel, burst) while it holds
// the gate's worker slot.
var (
	worldOnce  sync.Once
	worldDS    *sim.Dataset
	worldLight []*traj.Trajectory
	worldHeavy *traj.Trajectory
)

func testWorld(t *testing.T) *sim.Dataset {
	t.Helper()
	worldOnce.Do(func() {
		ccfg := sim.DefaultCityConfig()
		ccfg.Rows, ccfg.Cols = 12, 12
		ccfg.Hotspots = 6
		city := sim.GenerateCity(ccfg, 11)
		fcfg := sim.DefaultFleetConfig()
		fcfg.Trips = 40
		fcfg.Seed = 11
		worldDS = sim.BuildDataset(city, fcfg)
		rng := rand.New(rand.NewSource(511))
		for len(worldLight) < 8 {
			qc, ok := worldDS.GenQuery(6000, 180, 15, fcfg, rng)
			if !ok {
				continue
			}
			worldLight = append(worldLight, qc.Query)
		}
		// The heavy query stitches downsampled points from many trips into
		// one 400-point cross-city query: ~400 pairs of real inference work
		// (tens of milliseconds) — long enough for a test to act while it
		// holds the gate's worker slot.
		worldHeavy = &traj.Trajectory{ID: "heavy"}
		for len(worldHeavy.Points) < 400 {
			tr := worldDS.Archive[rng.Intn(len(worldDS.Archive))]
			worldHeavy.Points = append(worldHeavy.Points, traj.Downsample(tr, 180).Points...)
		}
		worldHeavy.Points = worldHeavy.Points[:400]
		for i := range worldHeavy.Points {
			worldHeavy.Points[i].T = float64(i) * 180
		}
	})
	if worldDS == nil {
		t.Fatal("test world failed to build")
	}
	return worldDS
}

// newTestServer builds a server the way main does — live store, registry,
// engine, gate — with the given admission bounds and a live root context.
func newTestServer(t *testing.T, cfg core.GateConfig) (*server, *obs.Registry) {
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
		eng:        eng,
		gate:       core.NewGate(eng, cfg),
		st:         st,
		params:     params,
		root:       context.Background(),
		drainGrace: drainGrace,
	}, reg
}

func inferBody(t *testing.T, q *traj.Trajectory, deadlineMS int) []byte {
	t.Helper()
	out, err := json.Marshal(struct {
		traj.TrajJSON
		DeadlineMS int `json:"deadline_ms,omitempty"`
	}{traj.NewTrajJSON(q, nil), deadlineMS})
	if err != nil {
		t.Fatalf("marshal query: %v", err)
	}
	return out
}

// ingestBody is an /ingest request admitting q's points as one trip.
func ingestBody(t *testing.T, id string, q *traj.Trajectory) []byte {
	t.Helper()
	trip := traj.NewTrajJSON(q, nil)
	trip.ID = id
	body, err := json.Marshal(map[string][]traj.TrajJSON{"trips": {trip}})
	if err != nil {
		t.Fatalf("marshal trip: %v", err)
	}
	return body
}

// doInfer drives handleInfer directly with an optional request context.
func doInfer(s *server, ctx context.Context, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body))
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	s.handleInfer(rec, req)
	return rec
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestInferRejectsBadRequests pins the pre-gate request validation: method,
// malformed JSON, bytes after the JSON value, and — the previously missing
// bound — a body over 1 MiB, which must be refused with 413 instead of being
// buffered without limit.
func TestInferRejectsBadRequests(t *testing.T) {
	s, reg := newTestServer(t, core.GateConfig{})

	req := httptest.NewRequest(http.MethodGet, "/infer", nil)
	rec := httptest.NewRecorder()
	s.handleInfer(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /infer = %d, want 405", rec.Code)
	}

	if rec := doInfer(s, nil, []byte("{not json")); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", rec.Code)
	}
	junk := append(inferBody(t, worldLight[0], 0), " junk"...)
	if rec := doInfer(s, nil, junk); rec.Code != http.StatusBadRequest || !strings.HasPrefix(rec.Body.String(), "bad query:") {
		t.Fatalf("trailing junk = %d %q, want 400 bad query", rec.Code, rec.Body.String())
	}
	// A negative budget is refused, not read as "the server default", and so
	// is one whose milliseconds overflow a time.Duration: 9300000000000 would
	// wrap to no deadline at all, 18446744073710 to under a millisecond.
	for _, ms := range []int{-5, 9_223_372_036_855, 9_300_000_000_000, 18_446_744_073_710} {
		if rec := doInfer(s, nil, inferBody(t, worldLight[0], ms)); rec.Code != http.StatusBadRequest || !strings.HasPrefix(rec.Body.String(), "bad query:") {
			t.Fatalf("deadline_ms %d = %d %q, want 400 bad query", ms, rec.Code, rec.Body.String())
		}
	}

	// A syntactically valid query body just over the 1 MiB bound: ~90k
	// three-number points at 14 bytes each.
	var big bytes.Buffer
	big.WriteString(`{"points":[`)
	for i := 0; i < 90_000; i++ {
		big.WriteString(`[1.0,2.0,3.0],`)
	}
	big.WriteString(`[1.0,2.0,3.0]]}`)
	if big.Len() <= maxInferBody {
		t.Fatalf("test body is %d bytes, not over the %d bound", big.Len(), maxInferBody)
	}
	if rec := doInfer(s, nil, big.Bytes()); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", rec.Code)
	}
	// Rejected bodies never reach the gate, so nothing was counted as shed.
	if got := reg.Counter(obs.CounterServerShed).Value(); got != 0 {
		t.Fatalf("server.shed = %d after pre-gate rejections, want 0", got)
	}
}

// TestInferServesQuery is the happy path end to end through the gate. The
// body ends in a newline, which is whitespace after the one JSON value.
func TestInferServesQuery(t *testing.T) {
	s, reg := newTestServer(t, core.GateConfig{})
	rec := doInfer(s, nil, append(inferBody(t, worldLight[0], 0), '\n'))
	if rec.Code != http.StatusOK {
		t.Fatalf("/infer = %d, body %q", rec.Code, rec.Body.String())
	}
	var resp struct {
		Routes   []json.RawMessage `json:"routes"`
		Degraded bool              `json:"degraded"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if len(resp.Routes) == 0 || resp.Degraded {
		t.Fatalf("routes=%d degraded=%v, want routes and no degradation", len(resp.Routes), resp.Degraded)
	}
	if got := reg.Histogram(obs.HistServerQueueWait).Count(); got != 1 {
		t.Fatalf("server.queue_wait count = %d, want 1", got)
	}
}

// TestInferCallerDeadline504: a request whose own incoming deadline has
// already lapsed is the caller's timeout, not a server shed — it must map to
// 504, not 503, and not count as shed.
func TestInferCallerDeadline504(t *testing.T) {
	s, reg := newTestServer(t, core.GateConfig{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	rec := doInfer(s, ctx, inferBody(t, worldLight[0], 0))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired caller deadline = %d, want 504 (body %q)", rec.Code, rec.Body.String())
	}
	if got := reg.Counter(obs.CounterServerShed).Value(); got != 0 {
		t.Fatalf("server.shed = %d for a caller timeout, want 0", got)
	}
}

// TestInferShedExpired503: when the gate's running latency estimate says the
// request's deadline_ms budget will lapse before inference finishes, the
// request is shed with 503 and counted under server.shed.expired.
func TestInferShedExpired503(t *testing.T) {
	s, reg := newTestServer(t, core.GateConfig{})
	// Teach the gate that inferences take ~a minute.
	for i := 0; i < 8; i++ {
		reg.Histogram(obs.StageQuery).Observe(time.Minute)
	}
	rec := doInfer(s, nil, inferBody(t, worldLight[0], 50))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("doomed deadline_ms=50 = %d, want 503 (body %q)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "shed") {
		t.Fatalf("503 body %q does not mention shedding", rec.Body.String())
	}
	if q, e := reg.Counter(obs.CounterServerShedQueue).Value(),
		reg.Counter(obs.CounterServerShedExpired).Value(); q != 0 || e != 1 {
		t.Fatalf("shed.queue/shed.expired = %d/%d, want 0/1", q, e)
	}
}

// TestInferShutdown503ClientGone408 pins the fixed error mapping on the two
// cancellation flavours the old handler conflated: a request caught by server
// shutdown answers 503 (retry elsewhere — the old code blamed the client with
// 408), and a client that vanishes mid-inference answers 408.
func TestInferShutdown503ClientGone408(t *testing.T) {
	s, reg := newTestServer(t, core.GateConfig{MaxInflight: 1, QueueDepth: 4})

	// A: a heavy query holds the single worker slot.
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	aDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { aDone <- doInfer(s, ctxA, inferBody(t, worldHeavy, 0)) }()
	waitFor(t, "heavy request to acquire the worker slot", func() bool {
		return reg.Histogram(obs.HistServerQueueWait).Count() >= 1
	})

	// B: same gate, but its server is already shutting down. Whether B dies
	// queued behind A or reaches the engine with its context cancelled, the
	// shutdown cause must map to 503.
	shutdownCtx, shutdown := context.WithCancel(context.Background())
	shutdown()
	sB := &server{eng: s.eng, gate: s.gate, st: s.st, params: s.params, root: shutdownCtx}
	if rec := doInfer(sB, nil, inferBody(t, worldLight[1], 0)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request during shutdown = %d, want 503 (body %q)", rec.Code, rec.Body.String())
	}

	// A's client goes away mid-inference: that one is the client's fault.
	cancelA()
	rec := <-aDone
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("client-gone inference = %d, want 408 (body %q)", rec.Code, rec.Body.String())
	}
}

// TestInferAdmissionBurst drives more concurrent /infer requests than the
// gate admits (run under -race in CI): with MaxInflight=1 and QueueDepth=1,
// a burst of 6 behind a slot-holding heavy request must yield exactly one
// queued success and five 429s, the obs counters must account for every
// rejection, the inflight histogram must prove concurrency never exceeded
// the bound, and no request goroutine may leak.
func TestInferAdmissionBurst(t *testing.T) {
	s, reg := newTestServer(t, core.GateConfig{MaxInflight: 1, QueueDepth: 1})
	base := runtime.NumGoroutine()

	aDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { aDone <- doInfer(s, nil, inferBody(t, worldHeavy, 0)) }()
	waitFor(t, "heavy request to acquire the worker slot", func() bool {
		return reg.Histogram(obs.HistServerQueueWait).Count() >= 1
	})

	const burst = 6
	codes := make(chan int, burst)
	for i := 0; i < burst; i++ {
		body := inferBody(t, worldLight[i+1], 0)
		go func() { codes <- doInfer(s, nil, body).Code }()
	}
	counts := map[int]int{}
	for i := 0; i < burst; i++ {
		counts[<-codes]++
	}
	if rec := <-aDone; rec.Code != http.StatusOK {
		t.Fatalf("heavy request = %d, want 200 (body %q)", rec.Code, rec.Body.String())
	}
	// One burst request fit the queue and served after the heavy one; the
	// other five found admission full.
	if counts[http.StatusOK] != 1 || counts[http.StatusTooManyRequests] != burst-1 || len(counts) != 2 {
		t.Fatalf("burst outcomes = %v, want 1×200 and %d×429", counts, burst-1)
	}

	if q := reg.Counter(obs.CounterServerShedQueue).Value(); q != burst-1 {
		t.Fatalf("server.shed.queue = %d, want %d (one per 429)", q, burst-1)
	}
	if e := reg.Counter(obs.CounterServerShedExpired).Value(); e != 0 {
		t.Fatalf("server.shed.expired = %d, want 0", e)
	}
	if sh := reg.Counter(obs.CounterServerShed).Value(); sh != burst-1 {
		t.Fatalf("server.shed = %d, want %d", sh, burst-1)
	}
	// The inflight pseudo-histogram records 1µs per occupied slot at
	// admission: its max proves concurrency stayed within MaxInflight.
	if max := reg.Histogram(obs.HistServerInflight).Max(); max > time.Microsecond {
		t.Fatalf("server.inflight max = %v, want <= 1µs (MaxInflight=1)", max)
	}
	// Heavy + the queued success are the only requests that waited for (and
	// got) a slot.
	if qw := reg.Histogram(obs.HistServerQueueWait).Count(); qw != 2 {
		t.Fatalf("server.queue_wait count = %d, want 2", qw)
	}
	// Every request goroutine must have unwound (the +2 headroom tolerates
	// unrelated runtime goroutines coming and going).
	waitFor(t, "request goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= base+2
	})
}

// TestMuxRoutes smoke-tests the assembled route table: metrics snapshot,
// expvar and live ingestion.
func TestMuxRoutes(t *testing.T) {
	s, _ := newTestServer(t, core.GateConfig{})
	mux := s.mux()

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "counters") {
		t.Fatalf("/metrics = %d, body %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/vars = %d", rec.Code)
	}

	body := ingestBody(t, "mux-test", worldHeavy)
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "admitted") {
		t.Fatalf("/ingest = %d, body %q", rec.Code, rec.Body.String())
	}
}

// TestIngestEmptiedBatchDurability: a batch that preprocessing empties (one
// one-point trip) admits nothing, and its acknowledgment still says what a
// batch admitted at that moment would have meant.
func TestIngestEmptiedBatchDurability(t *testing.T) {
	s, _ := newTestServer(t, core.GateConfig{})
	ds := testWorld(t)
	durable, _, err := hist.OpenShardedStore(t.TempDir(), ds.City.Graph, ds.Archive, hist.ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	body := ingestBody(t, "one", &traj.Trajectory{Points: worldLight[0].Points[:1]})
	for want, st := range map[string]*hist.Store{hist.DurabilityMemory: s.st, hist.DurabilitySynced: durable} {
		rec := httptest.NewRecorder()
		ingestHandler(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)), st)
		var resp struct{ Admitted hist.IngestStats }
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("/ingest = %d %q (%v)", rec.Code, rec.Body.String(), err)
		}
		if resp.Admitted.Trips != 0 || resp.Admitted.Durability != want {
			t.Fatalf("emptied batch admitted as %+v, want 0 trips, durability %q", resp.Admitted, want)
		}
	}
}

// TestIngestRejectsConcatenatedBodies: an /ingest body is one JSON value. Two
// concatenated batches are a 400 that admits neither, while a body ending in
// a newline is still one batch.
func TestIngestRejectsConcatenatedBodies(t *testing.T) {
	s, _ := newTestServer(t, core.GateConfig{})
	ingest := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		ingestHandler(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)), s.st)
		return rec
	}
	a, b := ingestBody(t, "a", worldLight[0]), ingestBody(t, "b", worldLight[1])
	before := s.st.Stats()
	if rec := ingest(append(append([]byte{}, a...), b...)); rec.Code != http.StatusBadRequest ||
		!strings.HasPrefix(rec.Body.String(), "bad trips:") {
		t.Fatalf("concatenated batches = %d %q, want 400 bad trips", rec.Code, rec.Body.String())
	}
	if after := s.st.Stats(); after.Epoch != before.Epoch || after.Trajs != before.Trajs {
		t.Fatalf("rejected body moved the store: epoch %d -> %d, trips %d -> %d",
			before.Epoch, after.Epoch, before.Trajs, after.Trajs)
	}
	if rec := ingest(append(a, '\n')); rec.Code != http.StatusOK {
		t.Fatalf("newline-terminated batch = %d %q, want 200", rec.Code, rec.Body.String())
	}
	if after := s.st.Stats(); after.Epoch != before.Epoch+1 || after.Trajs != before.Trajs+1 {
		t.Fatalf("one batch moved epoch %d -> %d, trips %d -> %d",
			before.Epoch, after.Epoch, before.Trajs, after.Trajs)
	}
}
