package hist

import (
	"bufio"
	"errors"
	"io/fs"
	"os"

	"repro/internal/traj"
)

// The write-ahead log is the durable archive's only data file: a durable
// Store appends one framed record per admitted batch — the batch encoding of
// codec.go — to wal.log before the batch becomes visible in any shard, so a
// crash loses at most the records that never reached disk, and recovery
// replays the file from the start.
//
// Records are strictly epoch-ascending and contiguous from epoch 1, which is
// what lets recovery treat "first bad checksum" and "first epoch gap"
// identically: everything from that byte offset on is dropped (the torn
// tail of a crashed append, or garbage after it), and the file is
// physically truncated so the next append cannot create two different
// records claiming the same epoch.

const (
	walName = "wal.log"
	// walBufSize is the user-space buffer in front of the log file. Under
	// SyncInterval/SyncOff records sit here until a flush; a crash loses
	// them — exactly the weaker guarantee those policies advertise.
	walBufSize = 1 << 16
)

// walWriter appends batch records to the log. Callers serialize externally
// (the store's persist mutex).
type walWriter struct {
	f     *os.File
	bw    *bufio.Writer
	dirty bool // unsynced bytes may exist (buffered or in the page cache)
}

// openWAL opens (creating if needed) the log at path for appending. Recovery
// has already truncated any untrustworthy tail, so the next record continues
// the run the file holds.
func openWAL(path string) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &walWriter{f: f, bw: bufio.NewWriterSize(f, walBufSize), dirty: true}, nil
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

// close flushes, fsyncs and closes the file (clean shutdown).
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

// walBatch is one recovered batch record.
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

// scanWAL reads the log at path and returns its longest trustworthy prefix
// of batch records, epochs 1, 2, 3, ...: scanning stops at the first short
// frame, checksum mismatch, undecodable payload or epoch discontinuity (a
// first record at any epoch but 1 included), and the file is physically
// truncated at that byte offset so a later append cannot sit after garbage.
// A torn final record — the expected shape of a crash mid-append — is
// therefore tolerated by construction. A missing file is an empty log.
func scanWAL(path string) (walScanResult, error) {
	var res walScanResult
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return res, nil
		}
		return res, err
	}
	rest := data
	for len(rest) > 0 {
		payload, r, err := readFrame(rest)
		if err != nil {
			break
		}
		b, err := decodeBatch(payload)
		if err != nil || b.Epoch != uint64(len(res.Batches))+1 {
			break
		}
		res.Batches = append(res.Batches, b)
		res.Bytes += int64(len(rest) - len(r))
		rest = r
	}
	if len(rest) > 0 {
		res.TornBytes = int64(len(rest))
		if err := os.Truncate(path, res.Bytes); err != nil {
			return walScanResult{}, err
		}
	}
	return res, nil
}
