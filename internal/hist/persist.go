package hist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// This file is the durability layer of the live archive, and it sits above
// sharding: a Store opened with OpenShardedStore (instead of NewStore or
// NewShardedStore) writes every admitted batch to one write-ahead log before
// any shard sees it, and rebuilds itself from that log on the next open — at
// the same epoch and shard epochs, with byte-identical inference answers over
// the durable prefix of batches. How the archive is partitioned is a
// property of the running process, not of the file, so a directory reopens
// at any shard count. Readers are untouched: the View/Snapshot contract, the
// canonical result ordering and the epoch-tagged caches all work unchanged
// over a recovered store, because recovery replays batches through the
// exact construction path ingest uses.

// SyncPolicy selects when WAL records reach stable storage. The zero value
// is SyncAlways — a durable store is safe by default.
type SyncPolicy int

const (
	// SyncAlways fsyncs the log before an ingest returns: an acknowledged
	// batch survives both process death and machine crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background tick (walSyncInterval): an
	// acknowledged batch may be lost if a crash beats the next tick.
	SyncInterval
	// SyncOff fsyncs only at the end of a compaction pass and at clean
	// Close: records sit in a user-space buffer and the page cache, so a
	// crash loses everything since the last compaction.
	SyncOff
)

// ParseSyncPolicy maps the flag spellings "always", "interval" and "off".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return SyncAlways, fmt.Errorf("hist: unknown sync policy %q (want always, interval or off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return "always"
}

// walSyncInterval is the SyncInterval background fsync period.
const walSyncInterval = 200 * time.Millisecond

// Durability values reported in IngestStats: how far the batch had
// provably traveled when the ingest call returned.
const (
	// DurabilitySynced: the WAL record was fsynced (SyncAlways).
	DurabilitySynced = "synced"
	// DurabilityLogged: the record reached the log buffer, not yet stable
	// storage (SyncInterval / SyncOff).
	DurabilityLogged = "logged"
	// DurabilityMemory: the store has no persistence (NewStore,
	// NewShardedStore).
	DurabilityMemory = "memory"
	// DurabilityFailed: a WAL append or sync errored — on this batch or an
	// earlier one; the failure is sticky until the directory is reopened. The
	// batch is visible in memory but will not survive a restart.
	DurabilityFailed = "failed"
)

// RecoveryStats summarizes what OpenShardedStore rebuilt.
type RecoveryStats struct {
	Epoch      uint64 `json:"epoch"`       // store epoch after recovery
	WALBatches int    `json:"wal_batches"` // batch records replayed from the log
	WALTrips   int    `json:"wal_trips"`   // trips replayed from the log
	TornBytes  int64  `json:"torn_bytes"`  // log bytes discarded (torn tail etc.)
}

const (
	manifestName    = "MANIFEST.json"
	manifestVersion = 3
)

// manifest pins a data directory to the seed it was created over: the log
// holds only post-seed history, so reopening with a different seed would
// silently reinterpret it. Nothing else about the opener matters — in
// particular not its shard count or halo.
type manifest struct {
	Version   int    `json:"version"`
	SeedTrips int    `json:"seed_trips"`
	SeedFP    string `json:"seed_fp"`
}

// checkManifest writes want into a virgin directory and verifies an exact
// match against an existing one. It runs before anything else reads dir, so
// a refused directory — a different seed, the version-1 layouts with
// per-shard subdirectories and annotated segments, or the version-2 layout
// of rotated logs beside segment checkpoints — is left untouched.
func checkManifest(dir string, want manifest) error {
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		buf, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			return err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, path); err != nil {
			return err
		}
		syncDir(dir)
		return nil
	}
	var have manifest
	if err := json.Unmarshal(data, &have); err != nil {
		return fmt.Errorf("hist: %s: %w", path, err)
	}
	if have.Version != want.Version {
		return fmt.Errorf("hist: data directory %s is in on-disk layout version %d; this build reads only version %d (one write-ahead log per directory) and does not migrate — point it at a fresh directory and re-ingest",
			dir, have.Version, want.Version)
	}
	if have != want {
		return fmt.Errorf("hist: data directory %s was created over a different seed (manifest %+v, want %+v)", dir, have, want)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
// Best-effort: some platforms refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

func fpString(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// persist is a durable Store's attachment to its data directory's log.
type persist struct {
	policy SyncPolicy
	reg    *obs.Registry

	mu       sync.Mutex
	w        *walWriter
	walBytes int64 // log bytes: the recovered prefix plus every append since
	failed   bool  // sticky: a WAL append or sync failed; nothing more is written
	closed   bool

	stop chan struct{} // SyncInterval ticker lifecycle
	done chan struct{}
}

// fail latches the sticky failure (call with mu held). A failed append may
// have left a partial record behind and recovery stops at the first epoch
// gap, so acknowledging anything after it as durable would be a lie; the
// directory keeps the prefix it had until it is reopened.
func (p *persist) fail() {
	p.failed = true
	if p.reg != nil {
		p.reg.Counter(obs.CounterWALErrors).Inc()
	}
}

// logBatch logs one admitted batch per the sync policy and reports how
// durable it is. Callers already serialize batches (the store's write
// mutex); p.mu additionally fences the ticker and compaction syncs.
func (p *persist) logBatch(epoch uint64, trips []*traj.Trajectory) string {
	if p == nil {
		return DurabilityMemory
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return DurabilityMemory
	}
	if p.failed {
		p.fail()
		return DurabilityFailed
	}
	n, err := p.w.append(epoch, trips)
	if err == nil && p.policy == SyncAlways {
		err = p.w.sync()
	}
	if err != nil {
		p.fail()
		return DurabilityFailed
	}
	p.walBytes += int64(n)
	if p.reg != nil {
		p.reg.Counter(obs.CounterWALRecords).Inc()
		p.reg.Counter(obs.CounterWALBytes).Add(uint64(n))
		if p.policy == SyncAlways {
			p.reg.Counter(obs.CounterWALFsyncs).Inc()
		}
	}
	if p.policy == SyncAlways {
		return DurabilitySynced
	}
	return DurabilityLogged
}

// startSyncLoop runs the SyncInterval background fsync tick.
func (p *persist) startSyncLoop() {
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(walSyncInterval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.syncNow()
			}
		}
	}()
}

// syncNow drains and fsyncs the WAL if it has unsynced bytes. The interval
// ticker calls it, and so does the end of every compaction pass, which is
// what makes a compaction a durability point under SyncOff.
func (p *persist) syncNow() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.failed || !p.w.dirty {
		return
	}
	if err := p.w.sync(); err != nil {
		p.fail()
		return
	}
	if p.reg != nil {
		p.reg.Counter(obs.CounterWALFsyncs).Inc()
	}
}

// close stops the ticker and cleanly syncs and closes the WAL.
func (p *persist) close() error {
	if p == nil {
		return nil
	}
	if p.stop != nil {
		close(p.stop)
		<-p.done
		p.stop = nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	return p.w.close()
}

// abandon is the crash seam: it drops the WAL's user-space buffer and
// closes the descriptor without flushing, so unsynced records are genuinely
// lost — exactly what SIGKILL would do to the process.
func (p *persist) abandon() {
	if p == nil {
		return
	}
	if p.stop != nil {
		close(p.stop)
		<-p.done
		p.stop = nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		p.w.abandon()
	}
}

// fold merges the on-disk gauges into a StoreStats.
func (p *persist) fold(st *StoreStats) {
	if p == nil {
		return
	}
	p.mu.Lock()
	st.WALBytes += p.walBytes
	if !p.closed {
		st.Durability = p.policy.String()
	}
	p.mu.Unlock()
}

// foldRecovery records recovery counters.
func foldRecovery(reg *obs.Registry, rs RecoveryStats) {
	if reg == nil {
		return
	}
	reg.Counter(obs.CounterRecoveryBatches).Add(uint64(rs.WALBatches))
	reg.Counter(obs.CounterRecoveryTrips).Add(uint64(rs.WALTrips))
	reg.Counter(obs.CounterRecoveryTornBytes).Add(uint64(rs.TornBytes))
}

// OpenShardedStore opens a durable live archive in dir: a Store whose
// batches are written ahead to a log, and which on reopen rebuilds the
// archive that log describes. The seed is re-supplied by the caller on every
// open (it is the caller's dataset, durable elsewhere); a fingerprint in the
// directory's manifest refuses a different seed — the only thing the opener
// must get right, since the log says nothing about shards or halo. Recovery
// takes the log's trustworthy records — truncating a torn final record at
// the first bad checksum — and replays them through the ingest path into a
// fresh store of cfg's shape, so the store resumes at the exact epoch the
// durable prefix reached, with the shard epochs an uninterrupted store of
// that shape would carry.
func OpenShardedStore(dir string, g *roadnet.Graph, seed []*traj.Trajectory, cfg ShardedConfig) (*Store, RecoveryStats, error) {
	var rs RecoveryStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rs, err
	}
	want := manifest{Version: manifestVersion, SeedTrips: len(seed), SeedFP: fpString(seedFingerprint(seed))}
	if err := checkManifest(dir, want); err != nil {
		return nil, rs, err
	}
	path := filepath.Join(dir, walName)
	scan, err := scanWAL(path)
	if err != nil {
		return nil, rs, err
	}
	rs.TornBytes = scan.TornBytes

	// Replay through ingest, which leaves compaction alone, and compact once
	// at the end. Persistence attaches only afterwards, so the replay itself
	// writes nothing. The scan returns epochs 1, 2, 3, ... and every decoded
	// batch holds a trip with a point, so each one advances the epoch by
	// exactly one and the store lands on the log's last epoch.
	s := NewShardedStore(g, seed, cfg)
	for _, b := range scan.Batches {
		s.ingest(b.Trips)
		rs.WALBatches++
		rs.WALTrips += len(b.Trips)
	}
	s.Compact()
	rs.Epoch = s.cur.Load().epoch

	w, err := openWAL(path)
	if err != nil {
		return nil, rs, err
	}
	p := &persist{policy: cfg.WALSync, reg: cfg.Registry, w: w, walBytes: scan.Bytes}
	s.persist = p
	if p.policy == SyncInterval {
		p.startSyncLoop()
	}
	foldRecovery(cfg.Registry, rs)
	return s, rs, nil
}

// Close waits out background compaction (and the log sync it ends with),
// then syncs and closes the log and detaches the store from its data
// directory. In-memory stores treat Close as Wait.
func (s *Store) Close() error {
	s.Wait()
	return s.persist.close()
}

// CloseAbrupt simulates the process dying mid-flight: buffered, unsynced
// WAL records are dropped (not flushed), nothing is compacted or synced, and
// the store must not be used afterwards. A background compaction pass still
// running finishes in memory only, its log sync a no-op, before CloseAbrupt
// returns. Crash-recovery tests pair it with OpenShardedStore on the same
// directory.
func (s *Store) CloseAbrupt() {
	s.persist.abandon()
	s.Wait()
}
