package hist

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/traj"
)

// The write-ahead log makes the batch segments durable: a durable Store
// appends one framed record per admitted batch — the batch encoding of
// codec.go — before the batch becomes visible in any shard, so a
// crash loses at most the records that never reached disk. Log files are
// named wal-<start epoch, %016x>.log; a file holds the contiguous run of
// epochs from its start to the next file's start (the active file runs to
// the newest epoch). Rotation happens when a checkpoint makes a prefix of
// the log redundant; files whose whole epoch range is covered by the
// retained segment generations are deleted.
//
// Records inside a file are strictly epoch-ascending and contiguous, which
// is what lets recovery treat "first bad checksum" and "first epoch gap"
// identically: everything from that byte offset on is dropped (the torn
// tail of a crashed append, or garbage after it), and the file is
// physically truncated so the next append cannot create two different
// records claiming the same epoch.

const (
	walPrefix = "wal-"
	walSuffix = ".log"
	// walBufSize is the user-space buffer in front of the log file. Under
	// SyncInterval/SyncOff records sit here until a flush; a crash loses
	// them — exactly the weaker guarantee those policies advertise.
	walBufSize = 1 << 16
)

func walPath(dir string, start uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", walPrefix, start, walSuffix))
}

// walStartEpoch parses the start epoch out of a WAL file name, or false.
func walStartEpoch(name string) (uint64, bool) {
	if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix), 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listWALFiles returns the data directory's WAL files sorted by start epoch.
func listWALFiles(dir string) ([]string, []uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	var starts []uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if s, ok := walStartEpoch(e.Name()); ok {
			names = append(names, filepath.Join(dir, e.Name()))
			starts = append(starts, s)
		}
	}
	sort.Sort(&walFileSorter{names: names, starts: starts})
	return names, starts, nil
}

type walFileSorter struct {
	names  []string
	starts []uint64
}

func (s *walFileSorter) Len() int           { return len(s.names) }
func (s *walFileSorter) Less(i, j int) bool { return s.starts[i] < s.starts[j] }
func (s *walFileSorter) Swap(i, j int) {
	s.names[i], s.names[j] = s.names[j], s.names[i]
	s.starts[i], s.starts[j] = s.starts[j], s.starts[i]
}

// walWriter appends batch records to the active WAL file. Callers serialize
// externally (the store's persist mutex).
type walWriter struct {
	dir   string
	f     *os.File
	bw    *bufio.Writer
	start uint64 // first epoch of the active file
	dirty bool   // unsynced bytes may exist (buffered or in the page cache)
}

// openWAL opens (creating if needed) the active WAL file whose first record
// will be epoch start. Opening appends: recovery has already truncated any
// untrustworthy tail, so an existing file with that start epoch is the
// legitimate continuation point.
func openWAL(dir string, start uint64) (*walWriter, error) {
	f, err := os.OpenFile(walPath(dir, start), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &walWriter{dir: dir, f: f, bw: bufio.NewWriterSize(f, walBufSize), start: start, dirty: true}, nil
}

// append writes one batch record. The record reaches the user-space buffer
// only; call sync per the store's sync policy. Returns the
// encoded size.
func (w *walWriter) append(epoch uint64, trips []*traj.Trajectory) (int, error) {
	rec := appendFrame(nil, appendBatch(nil, epoch, trips))
	if _, err := w.bw.Write(rec); err != nil {
		return 0, err
	}
	w.dirty = true
	return len(rec), nil
}

// sync drains the buffer and fsyncs the file: records appended before sync
// survive a machine crash.
func (w *walWriter) sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	return nil
}

// rotate closes the active file (flushing it) and starts a new one whose
// first record will be epoch next.
func (w *walWriter) rotate(next uint64) error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(walPath(w.dir, next), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f, w.bw, w.start, w.dirty = f, bufio.NewWriterSize(f, walBufSize), next, true
	return nil
}

// close flushes, fsyncs and closes the active file (clean shutdown).
func (w *walWriter) close() error {
	if err := w.sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// abandon drops the user-space buffer and closes the file descriptor
// without flushing or syncing — the crash-simulation seam: buffered records
// are genuinely lost, exactly as they would be when the process dies.
func (w *walWriter) abandon() {
	w.bw = bufio.NewWriterSize(discardWriter{}, 1)
	w.f.Close()
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// walBatch is one recovered batch — a WAL record or a segment-file block.
type walBatch struct {
	Epoch uint64
	Trips []*traj.Trajectory
}

// walScanResult is what recovery learned from the log.
type walScanResult struct {
	Batches   []walBatch
	Bytes     int64 // valid record bytes retained
	TornBytes int64 // bytes dropped by truncation (torn tail, gaps, garbage)
}

// scanWAL reads every WAL file in dir in epoch order and returns the
// longest trustworthy prefix of batch records: scanning stops at the first
// short frame, checksum mismatch, undecodable payload or epoch
// discontinuity, the offending file is physically truncated at that byte
// offset (so a later append cannot sit after garbage), and any later WAL
// files are deleted. A torn final record — the expected shape of a crash
// mid-append — is therefore tolerated by construction.
func scanWAL(dir string) (walScanResult, error) {
	names, starts, err := listWALFiles(dir)
	if err != nil {
		return walScanResult{}, err
	}
	var res walScanResult
	var next uint64 // next expected epoch; 0 = not yet pinned
	for i, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return walScanResult{}, err
		}
		if next != 0 && starts[i] != next {
			// A file whose start does not continue the run: stale leftover.
			res.TornBytes += int64(len(data))
			truncateAndDrop(name, 0, names[i+1:])
			return res, nil
		}
		off := int64(0)
		rest := data
		for len(rest) > 0 {
			payload, r, err := readFrame(rest)
			if err != nil {
				break
			}
			b, perr := decodeBatch(payload)
			if perr != nil {
				break
			}
			if next != 0 && b.Epoch != next {
				break
			}
			recLen := int64(len(rest) - len(r))
			res.Batches = append(res.Batches, b)
			res.Bytes += recLen
			off += recLen
			rest = r
			next = b.Epoch + 1
		}
		if len(rest) > 0 {
			res.TornBytes += int64(len(rest))
			truncateAndDrop(name, off, names[i+1:])
			return res, nil
		}
	}
	return res, nil
}

// truncateAndDrop cuts file at off (removing it outright at offset 0) and
// deletes the later files — the untrustworthy suffix of the log.
func truncateAndDrop(file string, off int64, later []string) {
	if off == 0 {
		os.Remove(file)
	} else {
		os.Truncate(file, off)
	}
	for _, n := range later {
		os.Remove(n)
	}
}

// dropWALThrough deletes closed WAL files whose entire epoch range is ≤
// keep, returning the bytes freed. The file holding the active tail (last
// one) is never deleted here — rotation handles it.
func dropWALThrough(dir string, keep uint64) int64 {
	names, starts, err := listWALFiles(dir)
	if err != nil {
		return 0
	}
	var freed int64
	for i := 0; i+1 < len(names); i++ {
		// File i covers [starts[i], starts[i+1]-1].
		if starts[i+1]-1 <= keep {
			if fi, err := os.Stat(names[i]); err == nil {
				freed += fi.Size()
			}
			os.Remove(names[i])
		}
	}
	return freed
}

// removeWALFiles deletes every WAL file in dir — recovery calls it when the
// log on disk is wholly redundant (covered by a segment file) so the fresh
// active file can start at the store's current epoch without a gap.
func removeWALFiles(dir string) {
	names, _, err := listWALFiles(dir)
	if err != nil {
		return
	}
	for _, n := range names {
		os.Remove(n)
	}
}
