package core

// Crash-recovery equivalence suite for the durable live archive: a store
// killed at an injected point — between ingest and compaction, or in the
// middle of a compaction — and reopened from its data directory must answer
// InferRoutes byte-identically to an uninterrupted store holding the
// durable prefix of trips, at the same epoch and epoch fingerprint, so
// epoch-tagged caches stay coherent across the restart. Every test runs at
// shards {1, 4}: durability sits above sharding, so the shape must not
// matter — including to a directory reopened at a different shard count.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hist"
	"repro/internal/sim"
	"repro/internal/traj"
)

// durableBatches partitions the dataset's archive into the random ingest
// batches both the durable store and its uninterrupted oracle replay.
func durableBatches(trips []*traj.Trajectory, permSeed int64) [][]*traj.Trajectory {
	rng := rand.New(rand.NewSource(permSeed))
	perm := rng.Perm(len(trips))
	var batches [][]*traj.Trajectory
	for lo := 0; lo < len(perm); {
		hi := lo + 1 + rng.Intn(25)
		if hi > len(perm) {
			hi = len(perm)
		}
		b := make([]*traj.Trajectory, 0, hi-lo)
		for _, i := range perm[lo:hi] {
			b = append(b, trips[i])
		}
		batches = append(batches, b)
		lo = hi
	}
	return batches
}

// crashPlan says where the kill lands: after crashAt batches (with a
// compaction flush after compactAt when >= 0, and the kill optionally
// injected mid-compaction through the CompactBeforePublish seam).
type crashPlan struct {
	name          string
	crashAt       int
	compactAt     int
	midCompaction bool
}

func plans(n int) []crashPlan {
	return []crashPlan{
		{name: "before-any-compact", crashAt: n / 3, compactAt: -1},
		{name: "between-compact-and-ingest", crashAt: n - 1, compactAt: n / 2},
		{name: "mid-compaction", crashAt: n / 2, compactAt: n / 2, midCompaction: true},
		{name: "all-ingested", crashAt: n, compactAt: n / 4},
	}
}

// runCrash drives st through the plan and kills it. The returned epoch is
// the store's epoch at the kill; under SyncAlways every admitted batch is
// on disk, so it is also the epoch recovery must reach.
func runCrash(t *testing.T, st *hist.Store, batches [][]*traj.Trajectory, plan crashPlan) uint64 {
	t.Helper()
	for i := 0; i < plan.crashAt; i++ {
		if stats := st.IngestTrips(batches[i]...); stats.Durability != hist.DurabilitySynced {
			t.Fatalf("batch %d durability %q, want synced", i, stats.Durability)
		}
		if i+1 == plan.compactAt {
			if plan.midCompaction {
				// Kill between the WAL append and the log sync that ends
				// the compaction pass: the pass has merged but neither
				// published nor synced.
				hist.CompactBeforePublish = st.CloseAbrupt
				st.Compact()
				hist.CompactBeforePublish = nil
				return uint64(plan.crashAt)
			}
			st.Compact()
			st.Wait()
		}
	}
	st.CloseAbrupt()
	return uint64(plan.crashAt)
}

// durableConfig is the store shape under test at n shards.
func durableConfig(n int, sync hist.SyncPolicy) hist.ShardedConfig {
	return hist.ShardedConfig{
		StoreConfig: hist.StoreConfig{CompactSegments: 1 << 30, WALSync: sync},
		Shards:      n,
		Halo:        500,
	}
}

// openDurable fails the test on error.
func openDurable(t *testing.T, dir string, ds *sim.Dataset, cfg hist.ShardedConfig) (*hist.Store, hist.RecoveryStats) {
	t.Helper()
	st, rs, err := hist.OpenShardedStore(dir, ds.City.Graph, nil, cfg)
	if err != nil {
		t.Fatalf("OpenShardedStore: %v", err)
	}
	return st, rs
}

// checkRecovered asserts rec sits at wantEpoch and is indistinguishable —
// epoch, fingerprint, byte-identical InferRoutes output over every query —
// from an uninterrupted in-memory store of the same shape fed the same
// batch prefix.
func checkRecovered(t *testing.T, rec *hist.Store, ds *sim.Dataset, cfg hist.ShardedConfig,
	batches [][]*traj.Trajectory, wantEpoch uint64, queries []*traj.Trajectory) {
	t.Helper()
	oracle := hist.NewShardedStore(ds.City.Graph, nil, cfg)
	for _, b := range batches[:wantEpoch] {
		oracle.IngestTrips(b...)
	}
	vR, vO := rec.Snapshot(), oracle.Snapshot()
	if vR.Epoch() != wantEpoch || vO.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch %d, oracle epoch %d, want %d", vR.Epoch(), vO.Epoch(), wantEpoch)
	}
	if rf, of := vR.EpochFingerprint(), vO.EpochFingerprint(); rf != of {
		t.Fatalf("recovered fingerprint %x, oracle %x", rf, of)
	}
	engR := NewEngine(rec, DefaultParams())
	engO := NewEngine(oracle, DefaultParams())
	for i, q := range queries {
		resR, err := engR.InferRoutes(q, DefaultParams())
		if err != nil {
			t.Fatalf("recovered inference: %v", err)
		}
		resO, err := engO.InferRoutes(q, DefaultParams())
		if err != nil {
			t.Fatalf("oracle inference: %v", err)
		}
		if got, want := encodeFull(vR, resR), encodeFull(vO, resO); got != want {
			t.Fatalf("query %d: recovered store result differs from uninterrupted oracle\nrecovered:\n%s\noracle:\n%s", i, got, want)
		}
	}
}

func TestDurableShardedCrashRecoveryEquivalence(t *testing.T) {
	ds, queries := liveWorld(140, 23)
	batches := durableBatches(ds.Archive, 91)
	for _, n := range []int{1, 4} {
		cfg := durableConfig(n, hist.SyncAlways)
		for _, plan := range plans(len(batches)) {
			t.Run(fmt.Sprintf("shards=%d/%s", n, plan.name), func(t *testing.T) {
				dir := t.TempDir()
				st, _ := openDurable(t, dir, ds, cfg)
				wantEpoch := runCrash(t, st, batches, plan)

				rec, rs := openDurable(t, dir, ds, cfg)
				defer rec.Close()
				if rs.Epoch != wantEpoch {
					t.Fatalf("recovered epoch %d, want %d (stats %+v)", rs.Epoch, wantEpoch, rs)
				}
				checkRecovered(t, rec, ds, cfg, batches, wantEpoch, queries)
			})
		}
	}
}

// TestDurableShardedSyncOffPrefix: under SyncOff the acknowledged-but-
// unsynced tail is genuinely lost on a crash, and the recovered store equals
// an uninterrupted store over just the prefix the last compaction synced —
// never a torn mixture.
func TestDurableShardedSyncOffPrefix(t *testing.T) {
	ds, queries := liveWorld(140, 31)
	batches := durableBatches(ds.Archive, 55)
	if len(batches) < 4 {
		t.Fatalf("need at least 4 batches, got %d", len(batches))
	}
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			cfg := durableConfig(n, hist.SyncOff)
			dir := t.TempDir()
			st, _ := openDurable(t, dir, ds, cfg)
			durable := len(batches) / 2
			for i := 0; i < durable; i++ {
				st.IngestTrips(batches[i]...)
			}
			st.Compact() // ends with a log sync covering epochs 1..durable
			st.Wait()
			for i := durable; i < len(batches); i++ {
				if stats := st.IngestTrips(batches[i]...); stats.Durability != hist.DurabilityLogged {
					t.Fatalf("batch %d durability %q, want logged", i, stats.Durability)
				}
			}
			st.CloseAbrupt()

			rec, rs := openDurable(t, dir, ds, cfg)
			defer rec.Close()
			if rs.Epoch != uint64(durable) {
				t.Fatalf("recovered epoch %d, want the compaction-synced prefix %d", rs.Epoch, durable)
			}
			checkRecovered(t, rec, ds, cfg, batches, uint64(durable), queries)
		})
	}
}

// TestDurableShardedReshardOnReopen: the files do not depend on the partition, so
// a directory written at one shard — with batches logged on both sides of a
// compaction — and killed reopens at 4 and at 9 shards as exactly the store an
// uninterrupted store of that shard count would be.
func TestDurableShardedReshardOnReopen(t *testing.T) {
	ds, queries := liveWorld(140, 47)
	batches := durableBatches(ds.Archive, 63)
	dir := t.TempDir()
	st, _ := openDurable(t, dir, ds, durableConfig(1, hist.SyncAlways))
	wantEpoch := runCrash(t, st, batches, crashPlan{crashAt: len(batches), compactAt: len(batches) / 2})
	for _, n := range []int{4, 9} {
		cfg := durableConfig(n, hist.SyncAlways)
		rec, rs := openDurable(t, dir, ds, cfg)
		if rs.Epoch != wantEpoch || rs.WALBatches != int(wantEpoch) {
			t.Fatalf("shards=%d: recovery stats %+v, want epoch %d from as many wal batches", n, rs, wantEpoch)
		}
		if got := len(rec.Stats().Shards); got != n {
			t.Fatalf("reopened with %d shards, want %d", got, n)
		}
		checkRecovered(t, rec, ds, cfg, batches, wantEpoch, queries)
		rec.CloseAbrupt()
	}
}
