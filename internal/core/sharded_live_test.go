package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/hist"
	"repro/internal/traj"
)

// checkShardedEquivalence asserts the PR's acceptance criterion: a
// sharded store that ingested the same trips as a bulk archive — in a random
// order, in random batch sizes, before and after compaction, at any shard
// count and halo — infers byte-identical results through the full engine.
func checkShardedEquivalence(t testing.TB, trips int, seed, permSeed int64, shards int, halo float64) bool {
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
	st := hist.NewShardedStore(ds.City.Graph, nil, hist.ShardedConfig{
		StoreConfig: hist.StoreConfig{CompactSegments: 1 << 30},
		Shards:      shards,
		Halo:        halo,
	})
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
				t.Errorf("sharded inference (shards %d, phase %d): %v", shards, phase, err)
				return false
			}
			if got := encodeFull(snap, res); got != want[i] {
				t.Errorf("seed %d perm %d shards %d halo %v phase %d query %d: sharded result differs from archive\nsharded:\n%s\narchive:\n%s",
					seed, permSeed, shards, halo, phase, i, got, want[i])
				return false
			}
		}
		st.Compact()
		st.Wait()
	}
	return true
}

func TestShardedInferenceMatchesArchive(t *testing.T) {
	phi := DefaultParams().Phi
	for _, c := range []struct {
		shards int
		halo   float64
	}{{1, phi}, {2, phi}, {4, phi}, {9, phi}, {4, 0}} {
		if !checkShardedEquivalence(t, 220, 17, 17*7+int64(c.shards), c.shards, c.halo) {
			return
		}
	}
}

func TestShardedInferenceMatchesArchiveQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick.Check equivalence sweep is not short")
	}
	counts := []int{1, 2, 4, 9}
	f := func(seed, permSeed int64, pick uint8) bool {
		shards := counts[int(pick)%len(counts)]
		return checkShardedEquivalence(t, 120, 40+(seed%13+13)%13, permSeed, shards, DefaultParams().Phi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedConcurrentIngestAndInferBatch is the sharded twin of
// TestConcurrentIngestAndInferBatch: concurrent IngestTrips and
// inference over a 4-shard store, every result matching exactly one
// published epoch (no torn reads across shard snapshots) and
// post-ingest queries seeing the full archive. Run under -race by verify.sh.
func TestShardedConcurrentIngestAndInferBatch(t *testing.T) {
	ds, queries := liveWorld(260, 91)
	const seedTrips = 140
	const batchSize = 30

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

	st := hist.NewShardedStore(ds.City.Graph, ds.Archive[:seedTrips], hist.ShardedConfig{
		StoreConfig: hist.StoreConfig{CompactSegments: 3},
		Shards:      4,
		Halo:        DefaultParams().Phi,
	})
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

	if got := st.Current().NumTrajs(); got != len(ds.Archive) {
		t.Fatalf("sharded store holds %d trajs, want %d", got, len(ds.Archive))
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
