package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/hist"
	"repro/internal/sim"
	"repro/internal/traj"
)

// encodeRoutes renders the archive-order-independent surface of a result:
// routes (edges, exact score bits, parts), pair stats and the degraded flag.
func encodeRoutes(res *Result) string {
	var b strings.Builder
	for _, r := range res.Routes {
		fmt.Fprintf(&b, "R %v %x %v\n", r.Route, r.Score, r.Parts)
	}
	for _, p := range res.Pairs {
		fmt.Fprintf(&b, "P %+v\n", p)
	}
	fmt.Fprintf(&b, "D %v\n", res.Degraded)
	return b.String()
}

// encodeFull additionally renders the per-pair local route sets, with
// trajectory references translated from storage indices to trajectory ids —
// the naming that must survive any ingest order.
func encodeFull(v hist.View, res *Result) string {
	var b strings.Builder
	b.WriteString(encodeRoutes(res))
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

// liveWorld builds a dataset plus evaluation queries for the equivalence
// tests.
func liveWorld(trips int, seed int64) (*sim.Dataset, []*traj.Trajectory) {
	ccfg := sim.DefaultCityConfig()
	ccfg.Rows, ccfg.Cols = 12, 12
	ccfg.Hotspots = 6
	city := sim.GenerateCity(ccfg, seed)
	fcfg := sim.DefaultFleetConfig()
	fcfg.Trips = trips
	fcfg.Seed = seed
	ds := sim.BuildDataset(city, fcfg)
	rng := rand.New(rand.NewSource(seed + 500))
	var queries []*traj.Trajectory
	for len(queries) < 3 {
		qc, ok := ds.GenQuery(6000, 180, 15, fcfg, rng)
		if !ok {
			continue
		}
		queries = append(queries, qc.Query)
	}
	return ds, queries
}

// checkStoreEquivalence asserts the tentpole acceptance criterion: a Store
// that ingested the same trips as a bulk archive — in a random order, in
// random batch sizes, before and after compaction — infers byte-identical
// results.
func checkStoreEquivalence(t testing.TB, trips int, seed, permSeed int64) bool {
	ds, queries := liveWorld(trips, seed)
	arch := hist.NewArchive(ds.City.Graph, ds.Archive)
	engA := NewEngine(arch, DefaultParams())
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := engA.InferRoutes(q, DefaultParams())
		if err != nil {
			t.Errorf("archive inference: %v", err)
			return false
		}
		want[i] = encodeFull(arch, res)
	}

	rng := rand.New(rand.NewSource(permSeed))
	perm := rng.Perm(len(ds.Archive))
	st := hist.NewStore(ds.City.Graph, nil, hist.StoreConfig{CompactSegments: 1 << 30})
	for lo := 0; lo < len(perm); {
		hi := lo + 1 + rng.Intn(40)
		if hi > len(perm) {
			hi = len(perm)
		}
		batch := make([]*traj.Trajectory, 0, hi-lo)
		for _, i := range perm[lo:hi] {
			batch = append(batch, ds.Archive[i])
		}
		st.IngestTrips(batch...)
		lo = hi
	}
	engS := NewEngine(st, DefaultParams())
	for phase := 0; phase < 2; phase++ {
		snap := st.Current()
		for i, q := range queries {
			res, err := engS.InferRoutes(q, DefaultParams())
			if err != nil {
				t.Errorf("store inference (phase %d): %v", phase, err)
				return false
			}
			if got := encodeFull(snap, res); got != want[i] {
				t.Errorf("seed %d perm %d phase %d query %d: store result differs from archive\nstore:\n%s\narchive:\n%s",
					seed, permSeed, phase, i, got, want[i])
				return false
			}
		}
		st.Compact()
	}
	return true
}

func TestStoreInferenceMatchesArchive(t *testing.T) {
	for _, seed := range []int64{3, 17, 29} {
		if !checkStoreEquivalence(t, 220, seed, seed*7+1) {
			return
		}
	}
}

func TestStoreInferenceMatchesArchiveQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick.Check equivalence sweep is not short")
	}
	f := func(seed, permSeed int64) bool {
		return checkStoreEquivalence(t, 120, 40+(seed%13+13)%13, permSeed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentIngestAndInferBatch drives concurrent Ingest and inference
// on one store and asserts (a) every query result matches the result of SOME
// single published epoch — no torn reads across a snapshot boundary — and
// (b) queries issued after ingestion completes see the new trips. Run under
// -race by verify.sh.
func TestConcurrentIngestAndInferBatch(t *testing.T) {
	ds, queries := liveWorld(260, 91)
	const seedTrips = 140
	const batchSize = 30

	// Published epochs are exactly the prefixes of the ingest sequence:
	// epoch 0 holds the seed, epoch k the seed plus the first k batches.
	var prefixes []int
	for n := seedTrips; n < len(ds.Archive); n += batchSize {
		prefixes = append(prefixes, n)
	}
	prefixes = append(prefixes, len(ds.Archive))
	expected := make([]map[string]int, len(queries))
	for i := range expected {
		expected[i] = make(map[string]int)
	}
	for ep, n := range prefixes {
		eng := NewEngine(hist.NewArchive(ds.City.Graph, ds.Archive[:n]), DefaultParams())
		for i, q := range queries {
			res, err := eng.InferRoutes(q, DefaultParams())
			if err != nil {
				t.Fatalf("epoch %d oracle: %v", ep, err)
			}
			expected[i][encodeRoutes(res)] = ep
		}
	}

	st := hist.NewStore(ds.City.Graph, ds.Archive[:seedTrips], hist.StoreConfig{CompactSegments: 3})
	eng := NewEngine(st, DefaultParams())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for lo := seedTrips; lo < len(ds.Archive); lo += batchSize {
			hi := lo + batchSize
			if hi > len(ds.Archive) {
				hi = len(ds.Archive)
			}
			st.IngestTrips(ds.Archive[lo:hi]...)
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				out, errs := inferConcurrently(t.Context(), eng, queries, DefaultParams(), 2)
				for i, res := range out {
					if errs[i] != nil {
						t.Errorf("query %d: %v", i, errs[i])
						return
					}
					if _, ok := expected[i][encodeRoutes(res)]; !ok {
						t.Errorf("query %d: result matches no published epoch (torn read?)", i)
						return
					}
				}
			}
		}()
	}
	<-done
	wg.Wait()
	st.Wait()

	// Post-ingest queries must see the full archive.
	if got := st.Current().NumTrajs(); got != len(ds.Archive) {
		t.Fatalf("store holds %d trajs, want %d", got, len(ds.Archive))
	}
	finalEp := len(prefixes) - 1
	for i, q := range queries {
		res, err := eng.InferRoutes(q, DefaultParams())
		if err != nil {
			t.Fatalf("final query %d: %v", i, err)
		}
		if ep, ok := expected[i][encodeRoutes(res)]; !ok || ep != finalEp {
			t.Fatalf("final query %d: does not match the fully ingested archive (epoch %d, ok %v)", i, ep, ok)
		}
	}
}
