package core

// The model harness: one seeded generator for the serving invariant. Every
// serving shape — in-memory or durable store at any shard count, halo and
// sync policy; pooled or unpooled engine at any pair-worker count; offline
// or streamed — must answer exactly as the reference model does:
// hist.NewArchive over the trips the store admitted (after a crash, its
// durable prefix), in dataset order, served offline by an unpooled engine
// with one worker. From a seed the harness draws a store shape, an engine
// shape and a sequence of operations, runs them, and compares every answer,
// error text included, under encodeFull.
//
// TestModelSequential runs the operations one at a time; TestModelConcurrent
// runs them with one writer and three readers. Each test invocation draws the
// next block of seeds, so `go test -count=N` is the soak; the first block is
// the fixed one whose coverage the tests check.

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hist"
	"repro/internal/traj"
)

// encodeFull renders a result: routes (edges, exact score bits, parts), pair
// stats, the degraded flag and the per-pair local route sets, with
// trajectory references translated from storage indices to trajectory ids —
// the naming that must survive any ingest order.
func encodeFull(v hist.View, res *Result) string {
	var b strings.Builder
	for _, r := range res.Routes {
		fmt.Fprintf(&b, "R %v %x %v\n", r.Route, r.Score, r.Parts)
	}
	for _, p := range res.Pairs {
		fmt.Fprintf(&b, "P %+v\n", p)
	}
	fmt.Fprintf(&b, "D %v\n", res.Degraded)
	for i, locals := range res.Locals {
		for _, lr := range locals {
			ids := make([]string, 0, len(lr.Refs))
			for _, t := range lr.Refs {
				ids = append(ids, v.Traj(int(t)).ID)
			}
			sort.Strings(ids)
			fmt.Fprintf(&b, "L%d %v %x %v\n", i, lr.Route, lr.Popularity, ids)
		}
	}
	return b.String()
}

// encodeAnswer is encodeFull, or the error's text.
func encodeAnswer(v hist.View, res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return encodeFull(v, res)
}

// shardLayout is st's (epoch, trips, points) per shard: what a store of one
// shape fed the same batches holds whatever its history.
func shardLayout(st *hist.Store) string {
	var b strings.Builder
	for _, sh := range st.Stats().Shards {
		fmt.Fprintf(&b, "(%d %d %d)", sh.Epoch, sh.Trajs, sh.Points)
	}
	return b.String()
}

// shape is one serving shape: the store's and the engine's.
type shape struct {
	shards  int
	halo    float64
	seed    int    // leading permutation trips the store is opened over
	wal     string // "" in memory, else the durable store's sync policy
	pooled  bool
	workers int // Engine.pairWorkers
}

type opKind uint8

const (
	opIngest opKind = iota
	opCompact
	opCrash
	opInfer
	opStream
	opCancel
)

var opNames = []string{"ingest", "compact", "crash", "infer", "stream", "cancel"}

// op is one operation. n is the ingest's batch size (0: a batch
// preprocessing empties), the shard count a crash reopens at, the push a
// stream publishes a batch of n+1 before, or the VisitBox that cancels.
type op struct {
	kind   opKind
	n      int
	q      int  // query index (infer, stream, cancel)
	mid    bool // cancel: ask in full first
	window int  // stream: SessionConfig.Window
}

func (o op) String() string {
	return fmt.Sprintf("%s(n=%d q=%d mid=%v window=%d)", opNames[o.kind], o.n, o.q, o.mid, o.window)
}

var shardCounts = []int{1, 2, 4, 9}

// draw is the generator: a shape, fixed further by pin when set, and a
// sequence of operations from a seed. Ingests are drawn three times and
// answers twice as often as the rest.
func draw(seed int64, queries, trips int, pin func(*shape)) (shape, []op) {
	rng := rand.New(rand.NewSource(seed))
	s := shape{
		shards:  shardCounts[rng.Intn(4)],
		halo:    []float64{0, DefaultParams().Phi}[rng.Intn(2)],
		seed:    []int{0, trips / 2}[rng.Intn(2)],
		wal:     []string{"", "always", "interval", "off"}[rng.Intn(4)],
		pooled:  rng.Intn(2) == 0,
		workers: []int{0, 1, 2, 4}[rng.Intn(4)],
	}
	if pin != nil {
		pin(&s)
	}
	weights := []opKind{opIngest, opIngest, opIngest, opCompact, opCrash, opInfer, opInfer, opStream, opCancel}
	var ops []op
	for i := 6 + rng.Intn(11); i > 0; i-- {
		o := op{kind: weights[rng.Intn(len(weights))], q: rng.Intn(queries)}
		switch o.kind {
		case opIngest:
			if rng.Intn(5) > 0 {
				o.n = 1 + rng.Intn(trips/4)
			}
		case opCrash:
			if s.wal == "" {
				o.kind = opCompact
			}
			o.n = shardCounts[rng.Intn(4)]
		case opStream:
			o.window, o.n = 1+rng.Intn(12), rng.Intn(12)
		case opCancel:
			o.n, o.mid = 1+rng.Intn(8), rng.Intn(2) == 0
		}
		ops = append(ops, o)
	}
	return s, ops
}

// modelWorld is the dataset, the queries and the model's memoized answers.
type modelWorld struct {
	w       *world
	queries []*traj.Trajectory
	mu      sync.Mutex
	answers map[string]string
}

// modelQueries is the query pool's size.
const modelQueries = 6

var sharedModel struct {
	once sync.Once
	m    *modelWorld
}

// newModelWorld is the one model world every harness test shares, built on
// first use: the dataset and the query pool — fresh low-rate queries, one with
// a duplicated timestamp, one with an hour-long gap, and a one-point query.
func newModelWorld(t testing.TB) *modelWorld {
	sharedModel.once.Do(func() { sharedModel.m = buildModelWorld(t) })
	if sharedModel.m == nil {
		t.Fatal("the model world failed to build")
	}
	return sharedModel.m
}

func buildModelWorld(t testing.TB) *modelWorld {
	w := newWorld(t, 240, 29)
	m := &modelWorld{w: w, queries: w.queries(t, modelQueries-3), answers: map[string]string{}}
	dup := &traj.Trajectory{ID: "dup-ts", Points: slices.Clone(m.queries[0].Points)}
	dup.Points[2].T = dup.Points[1].T
	gap := &traj.Trajectory{ID: "gap", Points: slices.Clone(m.queries[1].Points)}
	gap.Points = append(gap.Points[:2], gap.Points[len(gap.Points)-2:]...)
	for i := 2; i < len(gap.Points); i++ {
		gap.Points[i].T += 3600
	}
	one := &traj.Trajectory{ID: "one", Points: m.queries[2].Points[:1]}
	m.queries = append(m.queries, dup, gap, one)
	return m
}

// answer is the model's answer to query qi over the archive trips idx.
func (m *modelWorld) answer(idx []int, qi int) string {
	idx = slices.Clone(idx)
	slices.Sort(idx) // dataset order
	key := fmt.Sprint(qi, idx)
	m.mu.Lock()
	defer m.mu.Unlock()
	if a, ok := m.answers[key]; ok {
		return a
	}
	var trips []*traj.Trajectory
	for _, i := range idx {
		trips = append(trips, m.w.ds.Archive[i])
	}
	arch := hist.NewArchive(m.w.g, trips)
	eng := NewEngine(arch, DefaultParams())
	eng.noPool, eng.pairWorkers = true, 1
	res, err := eng.InferRoutes(m.queries[qi], DefaultParams())
	m.answers[key] = encodeAnswer(arch, res, err)
	return m.answers[key]
}

// run is one execution of a shape and an operation sequence. The store
// admits a seeded permutation of the archive in order, so epoch k holds its
// first ends[k] trips; a crash rewinds to the durable prefix, whose lost
// trips are ingested again.
type run struct {
	m    *modelWorld
	sh   shape
	cfg  hist.ShardedConfig
	dir  string
	perm []int
	ends []int

	st  *hist.Store
	src *countingSource
	eng *Engine
	// mark is the store read at the last point its log was known synced.
	mark hist.StoreStats
}

// walBufSize mirrors hist's WAL buffer: under SyncOff, unsynced records
// reach the file only once they overflow it.
const walBufSize = 1 << 16

func newRun(m *modelWorld, sh shape, seed int64, dir string) (*run, error) {
	r := &run{m: m, sh: sh, dir: dir, perm: rand.New(rand.NewSource(seed)).Perm(len(m.w.ds.Archive)), ends: []int{sh.seed}}
	sync, _ := hist.ParseSyncPolicy(sh.wal)
	r.cfg = hist.ShardedConfig{Shards: sh.shards, Halo: sh.halo,
		StoreConfig: hist.StoreConfig{WALSync: sync}}
	st, _, err := r.open(r.cfg)
	if err == nil {
		r.attach(st)
	}
	return r, err
}

// open opens the run's store: in memory, or over its directory.
func (r *run) open(cfg hist.ShardedConfig) (*hist.Store, hist.RecoveryStats, error) {
	seed := r.trips(0, r.sh.seed)
	if r.sh.wal == "" {
		return hist.NewShardedStore(r.m.w.g, seed, cfg), hist.RecoveryStats{}, nil
	}
	return hist.OpenShardedStore(r.dir, r.m.w.g, seed, cfg)
}

// trips is the permutation's trips lo..hi.
func (r *run) trips(lo, hi int) []*traj.Trajectory {
	var out []*traj.Trajectory
	for _, i := range r.perm[lo:hi] {
		out = append(out, r.m.w.ds.Archive[i])
	}
	return out
}

// attach serves st through a fresh engine of the run's shape.
func (r *run) attach(st *hist.Store) {
	r.st, r.src, r.mark = st, &countingSource{src: st}, st.Stats()
	r.eng = NewEngine(r.src, DefaultParams())
	r.eng.noPool, r.eng.pairWorkers = !r.sh.pooled, r.sh.workers
}

func (r *run) epoch() uint64 { return uint64(len(r.ends) - 1) }

// want is the model's answer to query qi at epoch ep.
func (r *run) want(ep uint64, qi int) string { return r.m.answer(r.perm[:r.ends[ep]], qi) }

// ingest admits the next n permutation trips as one batch (n = 0: a one-point
// log preprocessing drops) and checks what the store acknowledged and holds.
func (r *run) ingest(n int) error {
	lo := r.ends[len(r.ends)-1]
	hi, before := min(lo+n, len(r.perm)), r.epoch()
	want := map[string]string{"": hist.DurabilityMemory, "always": hist.DurabilitySynced,
		"interval": hist.DurabilityLogged, "off": hist.DurabilityLogged}[r.sh.wal]
	if lo == hi {
		if stats := r.st.Ingest(&traj.Trajectory{ID: "stray", Points: r.m.queries[0].Points[:1]}); stats != (hist.IngestStats{Epoch: before, Durability: want}) {
			return fmt.Errorf("emptied batch acknowledged as %+v at epoch %d, want durability %q", stats, before, want)
		}
		return nil
	}
	stats := r.st.IngestTrips(r.trips(lo, hi)...)
	r.ends = append(r.ends, hi)
	if s := r.st.Stats(); s.Compactions > r.mark.Compactions {
		r.mark = s // the batch filled a stack, and its merge synced the log
	}
	if got := r.st.Current().NumTrajs(); stats.Trips != hi-lo || stats.Epoch != before+1 || stats.Durability != want || got != hi {
		return fmt.Errorf("batch of %d acknowledged as %+v holding %d trips, want epoch %d, durability %q, %d trips",
			hi-lo, stats, got, before+1, want, hi)
	}
	return nil
}

// crash kills the durable store and reopens its directory at shards shards.
// Recovery must land between the last synced and the last acknowledged epoch
// (exactly on the acknowledged one under SyncAlways, on the synced one under
// SyncOff while no record can have left the buffer) and equal an
// uninterrupted in-memory store of the new shape fed the same batches: epoch,
// shard count and shard layout.
func (r *run) crash(shards int) error {
	r.st.CloseAbrupt()
	lo, hi := r.mark.Epoch, r.epoch()
	if stats := r.st.Stats(); r.sh.wal == "always" {
		lo = hi
	} else if r.sh.wal == "off" && stats.Compactions == r.mark.Compactions && stats.WALBytes-r.mark.WALBytes <= walBufSize {
		hi = lo
	}
	r.sh.shards, r.cfg.Shards = shards, shards
	st, rs, err := r.open(r.cfg)
	if err != nil {
		return fmt.Errorf("reopen: %v", err)
	}
	r.attach(st)
	if rs.Epoch < lo || rs.Epoch > hi || rs.WALBatches != int(rs.Epoch) {
		return fmt.Errorf("recovered %+v, want epoch in [%d, %d] from as many wal batches", rs, lo, hi)
	}
	r.ends = r.ends[:rs.Epoch+1]
	oracle := hist.NewShardedStore(r.m.w.g, r.trips(0, r.sh.seed), r.cfg)
	for k := 1; k < len(r.ends); k++ {
		oracle.IngestTrips(r.trips(r.ends[k-1], r.ends[k])...)
	}
	if got, want := shardLayout(st), shardLayout(oracle); st.Snapshot().Epoch() != rs.Epoch || len(st.Stats().Shards) != shards || got != want {
		return fmt.Errorf("reopened at epoch %d as (epoch trips points) per shard %s, an uninterrupted store is %s",
			st.Snapshot().Epoch(), got, want)
	}
	return nil
}

// infer answers query qi on ctx, encoded against the current generation
// (storage indices are stable across a store's later generations).
func (r *run) infer(ctx context.Context, qi int) string {
	res, err := r.eng.InferRoutesCtx(ctx, r.m.queries[qi], DefaultParams())
	return encodeAnswer(r.st.Current(), res, err)
}

// stream pushes query o.q through a session, publishing a batch before push
// o.n when publish is set, and returns its answer and pinned epoch. Updates
// must count up, firm up monotonically and carry a tail.
func (r *run) stream(o op, publish bool) (string, uint64) {
	s := r.eng.NewSession(DefaultParams(), SessionConfig{Window: o.window})
	defer s.Close()
	var err error
	firm := 0
	for i, pt := range r.m.queries[o.q].Points {
		if publish && i == o.n {
			if err := r.ingest(1 + o.n); err != nil {
				return err.Error(), s.Epoch()
			}
		}
		var up SessionUpdate
		if up, err = s.Push(context.Background(), pt); err != nil {
			break
		}
		if up.Seq != i || up.Pairs != i || up.FirmPairs < firm || up.FirmPairs > up.Pairs || i > 0 && len(up.Provisional) == 0 {
			return fmt.Sprintf("push %d: update %+v after firm %d", i, up, firm), s.Epoch()
		}
		firm = up.FirmPairs
	}
	var res *Result
	if err == nil {
		res, err = s.Finalize()
	}
	return encodeAnswer(r.st.Current(), res, err), s.Epoch()
}

// step runs operation o and checks it against the model.
func (r *run) step(o op) error {
	check := func(what string, ep uint64, got string) error {
		if want := r.want(ep, o.q); got != want {
			return fmt.Errorf("%s differs from the model at epoch %d\ngot:\n%s\nwant:\n%s", what, ep, got, want)
		}
		return nil
	}
	switch o.kind {
	case opIngest:
		return r.ingest(o.n)
	case opCompact:
		r.st.Compact() // it ends with a log sync
		r.mark = r.st.Stats()
	case opCrash:
		return r.crash(o.n)
	case opInfer:
		return check("answer", r.epoch(), r.infer(context.Background(), o.q))
	case opStream:
		got, ep := r.stream(o, true) // the session pinned its epoch
		return check("session", ep, got)
	case opCancel:
		// Warm, the cancelled search is the pair's second sighting: the one
		// the reference-search memo would retain.
		if o.mid {
			if err := r.step(op{kind: opInfer, q: o.q}); err != nil {
				return err
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		r.src.cancel = cancel
		r.src.fired.Store(false)
		r.src.trap.Store(int64(o.n))
		got := r.infer(ctx, o.q)
		r.src.trap.Store(0)
		cancel()
		if !r.src.fired.Load() || got != "error: "+context.Canceled.Error() {
			if err := check("answer under an unfired or lost cancellation", r.epoch(), got); err != nil {
				return err
			}
		}
		// Whatever the cancelled search left behind must not change the
		// full answer that follows.
		return check("answer after the cancellation", r.epoch(), r.infer(context.Background(), o.q))
	}
	return nil
}

// close shuts the store and waits for the goroutine count to return to base.
func (r *run) close(base int) error {
	if err := r.st.Close(); err != nil {
		return err
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines after Close, %d before the store opened", runtime.NumGoroutine(), base)
		}
	}
	return nil
}

// runSequential executes ops in order over a store in the empty directory
// dir and returns the index of the first failing operation (len(ops) when
// only the close failed) and its error.
func runSequential(m *modelWorld, sh shape, seed int64, ops []op, dir string) (int, error) {
	base := runtime.NumGoroutine()
	r, err := newRun(m, sh, seed, dir)
	if err != nil {
		return 0, err
	}
	for i, o := range ops {
		if err := r.step(o); err != nil {
			r.st.CloseAbrupt()
			return i, err
		}
	}
	return len(ops), r.close(base)
}

// modelBlock counts a test's invocations: each draws the next block of seeds.
var modelBlock = map[string]int64{}

func modelSeeds(t *testing.T, n int64) (seeds []int64, fixed bool) {
	b := modelBlock[t.Name()]
	modelBlock[t.Name()]++
	for i := range n {
		seeds = append(seeds, 1+b*n+i)
	}
	return seeds, b == 0
}

// checkCase runs one sequential case. A failure reports the seed, the shape,
// the shortest failing prefix and that prefix shrunk by dropping operations
// one at a time.
func checkCase(t *testing.T, m *modelWorld, sh shape, seed int64, ops []op) {
	t.Helper()
	fail, err := runSequential(m, sh, seed, ops, t.TempDir())
	if err == nil {
		return
	}
	if fail == len(ops) {
		t.Fatalf("seed %d shape %+v: %v", seed, sh, err)
	}
	prefix := ops[:fail+1]
	shrunk := slices.Clone(prefix)
	for i := len(shrunk) - 2; i >= 0; i = min(i, len(shrunk)-1) - 1 {
		try := slices.Delete(slices.Clone(shrunk), i, i+1)
		if k, err := runSequential(m, sh, seed, try, t.TempDir()); err != nil && k < len(try) {
			shrunk = try[:k+1]
		}
	}
	t.Fatalf("seed %d shape %+v: op %d (%v): %v\nshortest failing prefix, %d ops: %v\nshrunk, %d ops: %v",
		seed, sh, fail, ops[fail], err, len(prefix), prefix, len(shrunk), shrunk)
}

// TestModelSequential: every operation of every drawn case answers as the
// model.
func TestModelSequential(t *testing.T) {
	m := newModelWorld(t)
	seeds, fixed := modelSeeds(t, 20)
	seen := map[string]bool{}
	for _, seed := range seeds {
		sh, ops := draw(seed, len(m.queries), len(m.w.ds.Archive), nil)
		for _, o := range ops {
			seen[fmt.Sprint("op ", o.kind)] = true
		}
		for i, v := range []any{sh.shards, sh.halo, sh.seed, sh.wal, sh.pooled, sh.workers} {
			seen[fmt.Sprint(i, v)] = true
		}
		checkCase(t, m, sh, seed, ops)
	}
	// 4 shard counts, 2 halos, 2 seeds, 4 durabilities, pooled or not, 4
	// worker counts and 6 operation kinds.
	if fixed && len(seen) != 4+2+2+4+2+4+6 {
		t.Errorf("the fixed seeds cover %d of 24 shape values and operation kinds: %v", len(seen), seen)
	}
}

// checkConcurrent runs one case's ingests and compactions (crashes compact
// here) from one writer while three readers cycle through every query,
// offline and streamed; the writer publishes only once a reader answered at
// the current epoch. Each answer must be the model's at an epoch current
// while it ran, every query the model's at the final epoch, and the goroutine
// count must return to its baseline after Close. It returns the epochs before
// the final one that readers answered at.
func checkConcurrent(t *testing.T, m *modelWorld, sh shape, seed int64, ops []op) map[uint64]bool {
	t.Helper()
	base := runtime.NumGoroutine()
	r, err := newRun(m, sh, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var reads []op
	for qi := range m.queries {
		reads = append(reads, op{kind: opInfer, q: qi}, op{kind: opStream, q: qi, window: 1 + qi})
	}
	type answer struct {
		q      int
		got    string
		lo, hi uint64 // epochs current before and after the call
	}
	var mu sync.Mutex
	answered, cond := uint64(0), sync.NewCond(&mu) // 1 + the newest epoch an answer started at
	answers := map[answer]bool{}
	var writerErr error
	var finished atomic.Bool
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		defer finished.Store(true)
		for _, o := range ops {
			mu.Lock()
			for answered <= r.epoch() {
				cond.Wait()
			}
			mu.Unlock()
			if o.kind == opCompact || o.kind == opCrash {
				r.st.Compact()
			} else if o.kind == opIngest || o.kind == opStream {
				if writerErr = r.ingest(o.n); writerErr != nil {
					return
				}
			}
		}
	}()
	for g := range 3 {
		go func() {
			defer wg.Done()
			for pass := 0; pass == 0 || !finished.Load(); pass++ {
				for k := range reads {
					o := reads[(k+g)%len(reads)]
					a := answer{q: o.q, lo: r.st.Snapshot().Epoch()}
					if o.kind == opStream {
						a.got, a.lo = r.stream(o, false)
						a.hi = a.lo
					} else {
						a.got, a.hi = r.infer(context.Background(), o.q), r.st.Snapshot().Epoch()
					}
					mu.Lock()
					answers[a] = true
					if a.lo >= answered {
						answered = a.lo + 1
						cond.Broadcast()
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if writerErr != nil {
		t.Fatalf("seed %d shape %+v: writer: %v", seed, sh, writerErr)
	}
	final := r.epoch()
	for qi := range m.queries {
		answers[answer{q: qi, got: r.infer(context.Background(), qi), lo: final, hi: final}] = true
	}
	observed := map[uint64]bool{}
	for a := range answers {
		if a.lo < final {
			observed[a.lo] = true
		}
		ok := false
		for ep := a.lo; ep <= a.hi && !ok; ep++ {
			ok = a.got == r.want(ep, a.q)
		}
		if !ok {
			t.Fatalf("seed %d shape %+v: query %d answered as no epoch in [%d, %d] (final %d):\n%s",
				seed, sh, a.q, a.lo, a.hi, final, a.got)
		}
	}
	if err := r.close(base); err != nil {
		t.Fatalf("seed %d shape %+v: %v", seed, sh, err)
	}
	return observed
}

// TestModelConcurrent: checkConcurrent over drawn cases; the fixed seeds must
// race readers against at least two epochs before the last and draw a pooled
// engine.
func TestModelConcurrent(t *testing.T) {
	m := newModelWorld(t)
	seeds, fixed := modelSeeds(t, 2)
	observed := map[uint64]bool{}
	pooled := false
	for _, seed := range seeds {
		sh, ops := draw(seed, len(m.queries), len(m.w.ds.Archive), nil)
		pooled = pooled || sh.pooled
		maps.Copy(observed, checkConcurrent(t, m, sh, seed, ops))
	}
	if fixed && (len(observed) < 2 || !pooled) {
		t.Errorf("the fixed seeds race readers against %d epochs before the last, pooled %v", len(observed), pooled)
	}
}

// The serving shapes the harness is checked at by name: each test below runs
// it with part of the shape fixed and, where its name is a schedule, with
// scripted operations.

// pinned runs n drawn cases, the test's next block of seeds, with each shape
// fixed by pin; concurrent runs them as TestModelConcurrent does.
func pinned(t *testing.T, n int64, concurrent bool, pin func(*shape)) {
	m := newModelWorld(t)
	seeds, _ := modelSeeds(t, n)
	for _, seed := range seeds {
		sh, ops := draw(seed, len(m.queries), len(m.w.ds.Archive), pin)
		if concurrent {
			checkConcurrent(t, m, sh, seed, ops)
		} else {
			checkCase(t, m, sh, seed, ops)
		}
	}
}

// scripted runs the concatenated ops at sh over the archive permutations of
// seeds 1..n.
func scripted(t *testing.T, n int64, sh shape, ops ...[]op) {
	m := newModelWorld(t)
	for seed := range n {
		checkCase(t, m, sh, 1+seed, slices.Concat(ops...))
	}
}

// rest is an ingest size past the archive's end: the batch takes what is left.
const rest = 1 << 20

// ingests is one ingest per batch size.
func ingests(ns ...int) (ops []op) {
	for _, n := range ns {
		ops = append(ops, op{kind: opIngest, n: n})
	}
	return ops
}

var compaction = []op{{kind: opCompact}}

func crashTo(shards int) []op { return []op{{kind: opCrash, n: shards}} }

// everyQuery asks each query of the pool once; streamed, query q publishes a
// batch before its push q mod 3.
func everyQuery(kind opKind, window int) (ops []op) {
	for qi := range modelQueries {
		ops = append(ops, op{kind: kind, q: qi, n: qi % 3, window: window})
	}
	return ops
}

// archiveScript ingests in uneven batches, one of them emptied, and asks
// every query before and after a compaction and the archive's last batch.
func archiveScript() []op {
	return slices.Concat(ingests(37, 1, 0, 60), everyQuery(opInfer, 0), compaction, ingests(rest), everyQuery(opInfer, 0))
}

// TestStoreInferenceMatchesArchive: a one-shard in-memory store fed a
// permutation of the archive in batches answers as NewArchive over the same
// trips, before and after compaction.
func TestStoreInferenceMatchesArchive(t *testing.T) {
	scripted(t, 1, shape{shards: 1}, archiveScript())
}

// TestStoreInferenceMatchesArchiveQuick: drawn cases on one-shard in-memory
// stores.
func TestStoreInferenceMatchesArchiveQuick(t *testing.T) {
	pinned(t, 3, false, func(s *shape) { s.shards, s.wal = 1, "" })
}

// TestShardedInferenceMatchesArchive: archiveScript at shards {2, 4, 9},
// the halo alternating between 0 and φ.
func TestShardedInferenceMatchesArchive(t *testing.T) {
	for i, shards := range shardCounts[1:] {
		scripted(t, 1, shape{shards: shards, halo: float64(i%2) * DefaultParams().Phi}, archiveScript())
	}
}

// TestShardedInferenceMatchesArchiveQuick: drawn cases on in-memory stores of
// two or more shards.
func TestShardedInferenceMatchesArchiveQuick(t *testing.T) {
	pinned(t, 3, false, func(s *shape) { s.shards, s.wal = max(s.shards, 2), "" })
}

// TestConcurrentIngestAndInferBatch: concurrent cases on one-shard in-memory
// stores.
func TestConcurrentIngestAndInferBatch(t *testing.T) {
	pinned(t, 1, true, func(s *shape) { s.shards, s.wal = 1, "" })
}

// TestShardedConcurrentIngestAndInferBatch: concurrent cases on four shards.
func TestShardedConcurrentIngestAndInferBatch(t *testing.T) {
	pinned(t, 1, true, func(s *shape) { s.shards = 4 })
}

// TestDurableShardedCrashRecoveryEquivalence: a SyncAlways store killed at
// each point of its life, right after a write that filled and merged a stack
// too, recovers every acknowledged batch and answers as the model after.
func TestDurableShardedCrashRecoveryEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, c := range []struct {
				name string
				ops  []op
			}{
				{"before-any-compact", slices.Concat(ingests(40, 40), crashTo(shards))},
				{"between-compact-and-ingest", slices.Concat(ingests(40), compaction, crashTo(shards), ingests(40))},
				{"after-filling-write", slices.Concat(ingests(10, 10, 10, 10, 10, 10, 10), crashTo(shards))},
				{"all-ingested", slices.Concat(ingests(40, rest), compaction, crashTo(shards))},
			} {
				t.Run(c.name, func(t *testing.T) {
					scripted(t, 1, shape{shards: shards, wal: "always"}, c.ops, everyQuery(opInfer, 0))
				})
			}
		})
	}
}

// TestDurableShardedSyncOffPrefix: a SyncOff store killed while the batches
// since its last compaction still fit the log's buffer recovers exactly the
// prefix that compaction synced.
func TestDurableShardedSyncOffPrefix(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			scripted(t, 1, shape{shards: shards, wal: "off"},
				ingests(40), compaction, ingests(2, 2), crashTo(shards), everyQuery(opInfer, 0))
		})
	}
}

// TestDurableShardedReshardOnReopen: a durable store reopened at other shard
// counts holds what an uninterrupted store of the new shape would and
// answers as the model.
func TestDurableShardedReshardOnReopen(t *testing.T) {
	scripted(t, 1, shape{shards: 1, wal: "always"},
		ingests(40, 40), crashTo(4), everyQuery(opInfer, 0),
		ingests(30), crashTo(2), crashTo(9), ingests(rest), everyQuery(opInfer, 0))
}

// TestPooledMatchesUnpooled: a pooled engine, serial or with more pair
// workers than cores, answers as the unpooled model, each query asked twice
// over recycled scratch.
func TestPooledMatchesUnpooled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		scripted(t, 1, shape{shards: 1, pooled: true, workers: workers},
			ingests(rest), everyQuery(opInfer, 0), everyQuery(opInfer, 0))
	}
}

// TestQuickPooledMatchesUnpooled: drawn cases on pooled engines.
func TestQuickPooledMatchesUnpooled(t *testing.T) {
	pinned(t, 3, false, func(s *shape) { s.pooled = true })
}

// TestPooledConcurrentBatch: concurrent cases on pooled engines.
func TestPooledConcurrentBatch(t *testing.T) {
	pinned(t, 1, true, func(s *shape) { s.pooled = true })
}

// TestSessionMatchesOffline: every query streamed at windows 1 and 12,
// with a batch published mid-session, answers as the offline model at the
// session's epoch.
func TestSessionMatchesOffline(t *testing.T) {
	scripted(t, 1, shape{shards: 1}, ingests(60),
		everyQuery(opStream, 1), everyQuery(opStream, 12))
}

// TestQuickSessionMatchesOffline: drawn cases with every offline answer
// streamed instead, at varying windows and publish points.
func TestQuickSessionMatchesOffline(t *testing.T) {
	m := newModelWorld(t)
	seeds, _ := modelSeeds(t, 3)
	for _, seed := range seeds {
		sh, ops := draw(seed, len(m.queries), len(m.w.ds.Archive), nil)
		for i, o := range ops {
			if o.kind == opInfer {
				ops[i] = op{kind: opStream, q: o.q, n: i % 5, window: 1 + (int(seed)+i)%12}
			}
		}
		checkCase(t, m, sh, seed, ops)
	}
}

// TestSessionConcurrentSharedEngine: concurrent cases whose readers stream
// through sessions on one shared pooled engine of two pair workers.
func TestSessionConcurrentSharedEngine(t *testing.T) {
	pinned(t, 1, true, func(s *shape) { s.pooled, s.workers = true, 2 })
}

// TestInferBatchMatchesSequential: concurrent answers on one unpooled engine
// of four pair workers equal the sequential model's.
func TestInferBatchMatchesSequential(t *testing.T) {
	pinned(t, 1, true, func(s *shape) { s.pooled, s.workers = false, 4 })
}

// TestInferRoutesWorkerDeterminism: an unpooled engine at any pair-worker
// count answers as the one-worker model.
func TestInferRoutesWorkerDeterminism(t *testing.T) {
	for _, workers := range []int{0, 4} {
		scripted(t, 1, shape{shards: 1, workers: workers}, ingests(rest), everyQuery(opInfer, 0))
	}
}
