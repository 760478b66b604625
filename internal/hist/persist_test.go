package hist

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/traj"
)

// viewKey renders a view's full content — epoch, trajectory order, exact
// coordinate bits — so recovered stores can be compared to uninterrupted
// ones at the strongest level below actual inference (which the core
// package's equivalence suite covers).
func viewKey(v View) string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d trajs %d points %d\n", v.Epoch(), v.NumTrajs(), v.NumPoints())
	for i := 0; i < v.NumTrajs(); i++ {
		tr := v.Traj(i)
		fmt.Fprintf(&b, "%s:", tr.ID)
		for _, p := range tr.Points {
			fmt.Fprintf(&b, " %x/%x/%x", math.Float64bits(p.Pt.X), math.Float64bits(p.Pt.Y), math.Float64bits(p.T))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"off", SyncOff}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Errorf("ParseSyncPolicy accepted garbage")
	}
}

// TestStoreConfigNormalization: degenerate compaction thresholds must not
// make the store compact on every ingest (threshold 1: the base segment
// alone reaches it) or never compact (zero/negative values).
func TestStoreConfigNormalization(t *testing.T) {
	g, _, _ := refWorld()
	for _, cs := range []int{0, -5} {
		st := NewStore(g, nil, StoreConfig{CompactSegments: cs})
		if st.cfg.CompactSegments != DefaultCompactSegments {
			t.Errorf("CompactSegments %d normalized to %d, want %d", cs, st.cfg.CompactSegments, DefaultCompactSegments)
		}
	}
	st := NewStore(g, nil, StoreConfig{CompactSegments: 1})
	if st.cfg.CompactSegments != 2 {
		t.Errorf("CompactSegments 1 normalized to %d, want 2", st.cfg.CompactSegments)
	}
}

// durableShards are the store shapes every durability test runs at: the
// single layout must behave identically unsharded and sharded.
var durableShards = []int{1, 4}

// forShards runs body once per durable shape, as a subtest.
func forShards(t *testing.T, body func(t *testing.T, cfg ShardedConfig)) {
	for _, n := range durableShards {
		cfg := ShardedConfig{Shards: n, Halo: 60, StoreConfig: StoreConfig{CompactSegments: 1 << 30}}
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { body(t, cfg) })
	}
}

// openForTest fails the test on error.
func openForTest(t *testing.T, dir string, seed []*traj.Trajectory, cfg ShardedConfig) (*Store, RecoveryStats) {
	t.Helper()
	g, _, _ := refWorld()
	st, rs, err := OpenShardedStore(dir, g, seed, cfg)
	if err != nil {
		t.Fatalf("OpenShardedStore(%s): %v", dir, err)
	}
	return st, rs
}

// shardEpochs is v's per-shard epoch vector.
func shardEpochs(v *Snapshot) []uint64 {
	epochs := make([]uint64, len(v.shards))
	for i, sh := range v.shards {
		epochs[i] = sh.epoch
	}
	return epochs
}

// shardedKey is viewKey plus the store epoch and shard epochs — the
// generation identity epoch-tagged caches depend on.
func shardedKey(st *Store) string {
	v := st.Snapshot()
	return fmt.Sprintf("epoch %d shards %v\n%s", v.Epoch(), shardEpochs(v), viewKey(v))
}

// TestOpenShardedStoreRoundTrip: clean shutdown and reopen restores content,
// store epoch and shard epochs exactly, with batches logged on
// both sides of a compaction — and an in-memory store fed the same batches
// agrees, since recovery goes through the same construction path.
func TestOpenShardedStoreRoundTrip(t *testing.T) {
	forShards(t, func(t *testing.T, cfg ShardedConfig) {
		g, _, _ := refWorld()
		trips := storeTrips()
		seed := trips[:2]
		dir := t.TempDir()

		st, rs := openForTest(t, dir, seed, cfg)
		if rs != (RecoveryStats{}) {
			t.Fatalf("fresh open recovered %+v", rs)
		}
		if stats := st.IngestTrips(trips[2], trips[3]); stats.Durability != DurabilitySynced {
			t.Fatalf("SyncAlways ingest durability = %q", stats.Durability)
		}
		st.IngestTrips(trips[4])
		st.Compact() // merges epochs 1-2 and syncs the log
		st.IngestTrips(trips[5])
		want := shardedKey(st)
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		re, rs := openForTest(t, dir, seed, cfg)
		defer re.Close()
		if got := shardedKey(re); got != want {
			t.Fatalf("reopened store differs:\n%s\nwant:\n%s", got, want)
		}
		if rs.Epoch != 3 || rs.WALBatches != 3 || rs.WALTrips != 4 || rs.TornBytes != 0 {
			t.Fatalf("recovery stats %+v, want epoch 3 from 3 wal batches / 4 trips", rs)
		}
		stats := re.Stats()
		if stats.Durability != "always" || stats.WALBytes == 0 || len(stats.Shards) != cfg.Shards {
			t.Fatalf("reopened stats %+v", stats)
		}
		mem := NewShardedStore(g, seed, cfg)
		mem.IngestTrips(trips[2], trips[3])
		mem.IngestTrips(trips[4])
		mem.IngestTrips(trips[5])
		if got := shardedKey(mem); got != want {
			t.Fatalf("in-memory store differs from durable one:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestOpenShardedStoreCrash: an abrupt close under SyncAlways loses nothing,
// whether or not a compaction ran since the batch was logged; under SyncOff
// it loses everything since the last compaction's log sync.
func TestOpenShardedStoreCrash(t *testing.T) {
	forShards(t, func(t *testing.T, cfg ShardedConfig) {
		trips := storeTrips()
		t.Run("always", func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openForTest(t, dir, nil, cfg)
			for _, tr := range trips {
				st.IngestTrips(tr)
			}
			want := shardedKey(st)
			st.CloseAbrupt()
			re, rs := openForTest(t, dir, nil, cfg)
			defer re.Close()
			if got := shardedKey(re); got != want {
				t.Fatalf("recovered store differs:\n%s\nwant:\n%s", got, want)
			}
			if rs.WALBatches != len(trips) {
				t.Fatalf("recovered %d batches, want %d", rs.WALBatches, len(trips))
			}
		})
		t.Run("compacted", func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openForTest(t, dir, nil, cfg)
			st.IngestTrips(trips[0])
			st.IngestTrips(trips[1])
			st.Compact() // merges batches 1-2
			st.IngestTrips(trips[2])
			st.IngestTrips(trips[3])
			want := shardedKey(st)
			st.CloseAbrupt()

			re, rs := openForTest(t, dir, nil, cfg)
			if rs.Epoch != 4 {
				t.Fatalf("recovered epoch %d, want 4 (stats %+v)", rs.Epoch, rs)
			}
			if got := shardedKey(re); got != want {
				t.Fatalf("crash recovery differs:\n%s\nwant:\n%s", got, want)
			}
			// Keep going after recovery: new batches, another compaction,
			// another crash.
			re.IngestTrips(trips[4])
			re.Compact()
			re.IngestTrips(trips[5])
			want = shardedKey(re)
			re.CloseAbrupt()

			re2, rs2 := openForTest(t, dir, nil, cfg)
			defer re2.Close()
			if rs2.Epoch != 6 {
				t.Fatalf("second recovery epoch %d, want 6", rs2.Epoch)
			}
			if got := shardedKey(re2); got != want {
				t.Fatalf("second crash recovery differs:\n%s\nwant:\n%s", got, want)
			}
		})
		t.Run("off", func(t *testing.T) {
			cfg := cfg
			cfg.WALSync = SyncOff
			dir := t.TempDir()
			st, _ := openForTest(t, dir, nil, cfg)
			st.IngestTrips(trips[0])
			st.IngestTrips(trips[1])
			st.Compact() // its log sync makes epochs 1-2 durable despite SyncOff
			if stats := st.IngestTrips(trips[2]); stats.Durability != DurabilityLogged {
				t.Fatalf("SyncOff ingest durability = %q", stats.Durability)
			}
			st.CloseAbrupt() // the buffered record for epoch 3 is genuinely dropped
			re, rs := openForTest(t, dir, nil, cfg)
			defer re.Close()
			if rs.Epoch != 2 || re.Current().NumTrajs() != 2 {
				t.Fatalf("recovered epoch %d with %d trajs, want the compaction-synced prefix (2, 2)", rs.Epoch, re.Current().NumTrajs())
			}
			// The store must keep working at the recovered epoch.
			if st2 := re.IngestTrips(trips[3]); st2.Epoch != 3 {
				t.Fatalf("post-recovery ingest epoch %d, want 3", st2.Epoch)
			}
		})
	})
}

// copyDir clones a data directory so destructive truncation can run per cut
// point.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for name, data := range readDirFiles(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// readDirFiles returns every file under dir, keyed by its slash-relative
// path; subdirectories are walked (a current data directory has none).
func readDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestWALTornWriteRecovery is the torn-write sweep: the log is truncated at
// every byte offset of its final record — simulating a crash at any point
// of the last append — and recovery must keep exactly the prefix of fully
// written batches, discarding the torn tail.
func TestWALTornWriteRecovery(t *testing.T) {
	forShards(t, func(t *testing.T, cfg ShardedConfig) {
		trips := storeTrips()
		dir := t.TempDir()
		st, _ := openForTest(t, dir, nil, cfg)
		for _, tr := range trips[:4] {
			st.IngestTrips(tr)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		data, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		// Locate the final record's start offset by walking the frames.
		lastStart := 0
		for rest := data; len(rest) > 0; {
			payload, r, err := readFrame(rest)
			if err != nil {
				t.Fatalf("clean wal does not parse: %v", err)
			}
			if len(r) > 0 {
				lastStart += frameHeaderSize + len(payload)
			}
			rest = r
		}

		for cut := lastStart; cut <= len(data); cut++ {
			cdir := copyDir(t, dir)
			if err := os.WriteFile(filepath.Join(cdir, walName), data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			re, rs := openForTest(t, cdir, nil, cfg)
			wantEpoch := uint64(3)
			wantTorn := cut > lastStart && cut < len(data)
			if cut == len(data) {
				wantEpoch = 4
			}
			if rs.Epoch != wantEpoch || uint64(re.Current().NumTrajs()) != wantEpoch {
				t.Fatalf("cut %d/%d: recovered epoch %d with %d trajs, want %d",
					cut, len(data), rs.Epoch, re.Current().NumTrajs(), wantEpoch)
			}
			if wantTorn && rs.TornBytes == 0 {
				t.Fatalf("cut %d: torn bytes not reported", cut)
			}
			// The recovered prefix must be exactly the first wantEpoch trips.
			for i := 0; i < int(wantEpoch); i++ {
				if re.Current().Traj(i).ID != trips[i].ID {
					t.Fatalf("cut %d: trip %d is %s, want %s", cut, i, re.Current().Traj(i).ID, trips[i].ID)
				}
			}
			// And the store must accept new batches contiguously after the cut.
			if stats := re.IngestTrips(trips[4]); stats.Epoch != wantEpoch+1 {
				t.Fatalf("cut %d: post-recovery epoch %d", cut, stats.Epoch)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			// A second recovery of the same directory must see the appended batch:
			// the truncation left no stale bytes for the new record to collide with.
			re2, rs2 := openForTest(t, cdir, nil, cfg)
			if rs2.Epoch != wantEpoch+1 {
				t.Fatalf("cut %d: second recovery epoch %d, want %d", cut, rs2.Epoch, wantEpoch+1)
			}
			re2.Close()
		}
	})
}

// TestWALEmptyRecordRecovery: a CRC-valid log record that no writer
// produces — a batch without trips, or with a trip without points — is as
// untrustworthy as a torn tail, wherever it sits. Recovery truncates the log
// there and reopens at the last real epoch, equal to an uninterrupted store
// over those batches, and a further crash and reopen loses nothing.
func TestWALEmptyRecordRecovery(t *testing.T) {
	forShards(t, func(t *testing.T, cfg ShardedConfig) {
		g, _, _ := refWorld()
		trips := storeTrips()
		mem := NewShardedStore(g, nil, cfg)
		for _, tr := range trips[:3] {
			mem.IngestTrips(tr)
		}
		want := shardedKey(mem)
		for _, bad := range []struct {
			name  string
			trips []*traj.Trajectory
		}{{"no-trips", nil}, {"no-points", []*traj.Trajectory{{ID: "empty"}}}} {
			for _, last := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/last=%v", bad.name, last), func(t *testing.T) {
					dir := t.TempDir()
					st, _ := openForTest(t, dir, nil, cfg)
					for _, tr := range trips[:3] {
						if stats := st.IngestTrips(tr); stats.Durability != DurabilitySynced {
							t.Fatalf("ingest durability %q, want synced", stats.Durability)
						}
					}
					st.CloseAbrupt()
					tail := appendFrame(nil, appendBatch(nil, 4, bad.trips))
					if !last {
						tail = appendFrame(tail, appendBatch(nil, 5, trips[3:4]))
					}
					f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write(tail); err != nil {
						t.Fatal(err)
					}
					f.Close()

					re, rs := openForTest(t, dir, nil, cfg)
					if rs.Epoch != 3 || rs.TornBytes != int64(len(tail)) {
						t.Fatalf("recovery stats %+v, want epoch 3 with %d torn bytes", rs, len(tail))
					}
					if got := shardedKey(re); got != want {
						t.Fatalf("recovered store differs:\n%s\nwant:\n%s", got, want)
					}
					if stats := re.IngestTrips(trips[4]); stats.Epoch != 4 || stats.Durability != DurabilitySynced {
						t.Fatalf("post-recovery ingest %+v, want synced at epoch 4", stats)
					}
					again := shardedKey(re)
					re.CloseAbrupt()
					re2, rs2 := openForTest(t, dir, nil, cfg)
					defer re2.Close()
					if rs2.Epoch != 4 || rs2.TornBytes != 0 || shardedKey(re2) != again {
						t.Fatalf("second recovery %+v lost acknowledged batches", rs2)
					}
				})
			}
		}
	})
}

// TestManifestGuards: a data directory refuses a different seed, whatever
// the shard count — and accepts the same seed at any shard count.
func TestManifestGuards(t *testing.T) {
	g, _, _ := refWorld()
	trips := storeTrips()
	dir := t.TempDir()
	st, _ := openForTest(t, dir, trips[:2], ShardedConfig{})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2} {
		if _, _, err := OpenShardedStore(dir, g, trips[:3], ShardedConfig{Shards: n}); err == nil {
			t.Fatalf("OpenShardedStore(shards=%d) accepted a different seed", n)
		}
		re, _ := openForTest(t, dir, trips[:2], ShardedConfig{Shards: n, Halo: 60})
		re.Close()
	}
}

// refuseOldLayout writes files (slash-relative name → body) into a fresh
// directory, opens it, and requires a refusal naming wantVersion that leaves
// every file byte-identical: nothing is created, truncated or removed, since
// recovery's log truncation must never run on files it cannot interpret.
func refuseOldLayout(t *testing.T, files map[string]string, wantVersion string) {
	t.Helper()
	g, _, _ := refWorld()
	dir := t.TempDir()
	for name, body := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := OpenShardedStore(dir, g, nil, ShardedConfig{Shards: 4, Halo: 500})
	if err == nil || !strings.Contains(err.Error(), "layout version "+wantVersion) {
		t.Fatalf("opening a v%s directory: err = %v, want a layout-version refusal", wantVersion, err)
	}
	after := readDirFiles(t, dir)
	if len(after) != len(files) {
		t.Fatalf("refused directory now holds %d files, want %d", len(after), len(files))
	}
	for name, body := range files {
		if string(after[name]) != body {
			t.Fatalf("refused open modified %s: %q", name, after[name])
		}
	}
}

// TestV1ManifestRefused: directories written by the version-1 layouts — a
// plain store, a sharded root, a shard subdirectory — are refused with an
// error naming the version and left untouched.
func TestV1ManifestRefused(t *testing.T) {
	for _, kind := range []string{"store", "sharded", "shard"} {
		t.Run(kind, func(t *testing.T) {
			refuseOldLayout(t, map[string]string{
				manifestName:                    `{"version": 1, "kind": "` + kind + `", "shards": 4, "halo": 500}` + "\n",
				"wal-0000000000000001.log":      "torn garbage a v2 scan would truncate",
				"seg-0000000000000001.seg":      "old segment bytes",
				"shard-0000/" + manifestName:    `{"version": 1, "kind": "shard"}` + "\n",
				"shard-0000/seg-00000000000001": "annotated segment bytes",
			}, "1")
		})
	}
}

// TestV2ManifestRefused: a version-2 directory — rotated log files beside
// segment checkpoints — is refused even when its manifest carries the
// opener's own seed fingerprint, and left untouched.
func TestV2ManifestRefused(t *testing.T) {
	refuseOldLayout(t, map[string]string{
		manifestName:               `{"version": 2, "seed_trips": 0, "seed_fp": "` + fpString(seedFingerprint(nil)) + `"}` + "\n",
		"wal-0000000000000001.log": "torn garbage a scan would truncate",
		"wal-0000000000000003.log": "a rotated log file",
		"seg-0000000000000001.seg": "segment checkpoint bytes",
	}, "2")
}

// TestDataDirLayout: whatever the shard count, and across ingest, compaction
// and close, a data directory holds exactly the manifest and the log.
func TestDataDirLayout(t *testing.T) {
	trips := storeTrips()
	for _, n := range []int{1, 4, 9} {
		dir := t.TempDir()
		layout := func(when string) {
			t.Helper()
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			if want := []string{manifestName, walName}; !slices.Equal(names, want) {
				t.Errorf("shards=%d %s: data directory holds %q, want %q", n, when, names, want)
			}
		}
		st, _ := openForTest(t, dir, trips[:1], ShardedConfig{Shards: n, Halo: 60})
		layout("after open")
		st.IngestTrips(trips[1], trips[2])
		st.Compact()
		st.IngestTrips(trips[3])
		st.Compact()
		st.IngestTrips(trips[4])
		layout("after ingest and compaction")
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		layout("after close")
	}
}

// TestWALFailureIsSticky: once a WAL write fails the store keeps serving
// from memory but reports every later batch as failed without touching the
// log, so the directory holds exactly the pre-failure prefix.
func TestWALFailureIsSticky(t *testing.T) {
	forShards(t, func(t *testing.T, cfg ShardedConfig) {
		trips := storeTrips()
		dir := t.TempDir()
		reg := obs.New()
		cfg.Registry = reg
		st, _ := openForTest(t, dir, nil, cfg)
		st.IngestTrips(trips[0])
		st.IngestTrips(trips[1])
		st.persist.w.f.Close() // the disk goes away under the live store
		for i, tr := range trips[2:4] {
			stats := st.IngestTrips(tr)
			if stats.Durability != DurabilityFailed {
				t.Fatalf("batch %d after the failure reported %q, want failed", i, stats.Durability)
			}
			if want := uint64(3 + i); stats.Epoch != want {
				t.Fatalf("batch %d after the failure at epoch %d, want %d (still served from memory)", i, stats.Epoch, want)
			}
		}
		if n := reg.Counter(obs.CounterWALErrors).Value(); n != 2 {
			t.Fatalf("wal error counter %d, want one per refused batch", n)
		}
		st.Compact() // a failed store's compaction must not write the log either
		st.CloseAbrupt()

		re, rs := openForTest(t, dir, nil, cfg)
		defer re.Close()
		if rs.Epoch != 2 || re.Current().NumTrajs() != 2 {
			t.Fatalf("recovered epoch %d with %d trajs, want exactly the pre-failure prefix (2, 2)", rs.Epoch, re.Current().NumTrajs())
		}
		if stats := re.IngestTrips(trips[2]); stats.Durability != DurabilitySynced || stats.Epoch != 3 {
			t.Fatalf("reopened store ingest %+v, want synced at epoch 3", stats)
		}
	})
}

// TestDurableBackgroundCheckpoint: with auto-compaction on, concurrent
// writers drive background shard merges whose log syncs race further
// ingest; whatever interleaving happens, a crash afterwards recovers the
// store that was running (run under -race this also fences the sync).
func TestDurableBackgroundCheckpoint(t *testing.T) {
	forShards(t, func(t *testing.T, cfg ShardedConfig) {
		cfg.CompactSegments = 2
		trips := storeTrips()
		dir := t.TempDir()
		st, _ := openForTest(t, dir, nil, cfg)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 12; i++ {
					st.IngestTrips(trips[(w+i)%len(trips)])
					withinRadius(st.Current(), trips[0].Points[0].Pt, 100)
				}
			}(w)
		}
		wg.Wait()
		st.Wait()
		if st.Stats().Compactions == 0 {
			t.Fatalf("48 batches at CompactSegments=2 never compacted")
		}
		want := shardedKey(st)
		st.CloseAbrupt()
		re, rs := openForTest(t, dir, nil, cfg)
		defer re.Close()
		if rs.Epoch != 48 {
			t.Fatalf("recovered epoch %d, want 48 (stats %+v)", rs.Epoch, rs)
		}
		if got := shardedKey(re); got != want {
			t.Fatalf("recovered store differs:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestDurableCloseReturnsGoroutines: once a durable store is closed, by
// Close or by CloseAbrupt, under every sync policy, the goroutines it
// started are gone: the SyncInterval ticker, and a background compaction
// pass that was still running at the close.
func TestDurableCloseReturnsGoroutines(t *testing.T) {
	t.Cleanup(func() { CompactBeforePublish = nil })
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		for _, abrupt := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/abrupt=%v", policy, abrupt), func(t *testing.T) {
				base := runtime.NumGoroutine()
				cfg := ShardedConfig{Shards: 4, Halo: 60, StoreConfig: StoreConfig{CompactSegments: 2, WALSync: policy}}
				st, _ := openForTest(t, t.TempDir(), nil, cfg)
				// Hold the first background pass open until 10 ms after the
				// close starts, so the close finds it running.
				started, release := make(chan struct{}), make(chan struct{})
				var once sync.Once
				CompactBeforePublish = func() {
					once.Do(func() { close(started) })
					<-release
				}
				for _, tr := range storeTrips() {
					st.IngestTrips(tr)
				}
				<-started
				closed := make(chan struct{})
				go func() {
					if abrupt {
						st.CloseAbrupt()
					} else if err := st.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
					close(closed)
				}()
				time.AfterFunc(10*time.Millisecond, func() { close(release) })
				<-closed
				CompactBeforePublish = nil // the pass it held is over
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > base {
					if time.Now().After(deadline) {
						buf := make([]byte, 1<<16)
						t.Fatalf("%d goroutines 5 s after the close, %d before the open:\n%s",
							runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
