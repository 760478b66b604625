package hist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/traj"
)

// Segment files are the checkpoint tier of the durable archive: after a
// compaction pass the store serializes its whole post-seed history to an
// append-only file — written once, front to back, never modified — so a
// restart needs only the log records newer than the file. Files are named
// seg-<generation, %016x>.seg, the generation a monotonic per-directory
// counter; recovery loads the newest file that validates end to end and
// falls back to the previous generation if the newest is damaged (the two
// newest generations are retained, older ones deleted at checkpoint).
//
// Layout: a framed header record followed by one framed block per ingest
// batch (a frame is [u32 len][u32 CRC32-C][payload], codec.go). Header
// payload:
//
//	[u32 magic "HSG1"][u16 version][u16 reserved][u64 epoch][u64 trip count]
//
// Each block is the batch encoding the WAL uses for its records, so the file
// is the log's prefix 1..epoch with the framing kept — batch boundaries are
// on disk, and recovery replays a segment exactly as it replays the log.
// Every block must validate, the batch epochs must run 1..epoch without a
// gap, and the trip count must match the header for the file to be accepted
// — segments are written via tmp+rename, so a half-written file never
// appears under the final name in the first place.

const (
	segPrefix     = "seg-"
	segSuffix     = ".seg"
	segTmpSuffix  = ".tmp"
	segMagic      = 0x48534731 // "HSG1"
	segVersion    = 2
	segHeaderSize = 24
)

func segPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, gen, segSuffix))
}

// segGeneration parses the generation out of a segment file name.
func segGeneration(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listSegments returns dir's segment files sorted newest generation first.
func listSegments(dir string) (names []string, gens []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if g, ok := segGeneration(e.Name()); ok {
			names = append(names, filepath.Join(dir, e.Name()))
			gens = append(gens, g)
		}
	}
	sort.Sort(sort.Reverse(&walFileSorter{names: names, starts: gens}))
	return names, gens, nil
}

// writeSegment serializes batches — the contiguous history 1..len(batches) —
// to the segment file for generation gen in dir, using write-to-temp, fsync,
// rename, fsync-directory so the file is either fully present or absent.
// Returns the file size.
func writeSegment(dir string, gen uint64, batches [][]*traj.Trajectory) (int64, error) {
	trips := 0
	for _, b := range batches {
		trips += len(b)
	}
	hdr := make([]byte, 0, segHeaderSize)
	hdr = binary.LittleEndian.AppendUint32(hdr, segMagic)
	hdr = binary.LittleEndian.AppendUint16(hdr, segVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, 0)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(batches)))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(trips))

	final := segPath(dir, gen)
	tmp := final + segTmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp) // no-op after a successful rename

	bw := bufio.NewWriterSize(f, walBufSize)
	frame := appendFrame(nil, hdr)
	size := int64(len(frame))
	bw.Write(frame) // a bufio.Writer's error is sticky: Flush reports it
	var payload []byte
	for k, b := range batches {
		payload = appendBatch(payload[:0], uint64(k+1), b)
		frame = appendFrame(frame[:0], payload)
		size += int64(len(frame))
		bw.Write(frame)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return 0, err
	}
	syncDir(dir)
	return size, nil
}

// readSegment loads and fully validates one segment file, returning the
// batches 1..epoch it holds. It accepts exactly what writeSegment writes:
// every header field is checked, the reserved one included.
func readSegment(path string) ([]walBatch, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	hdr, rest, err := readFrame(data)
	if err != nil {
		return nil, fmt.Errorf("hist: segment %s: %w", path, err)
	}
	if len(hdr) != segHeaderSize || binary.LittleEndian.Uint32(hdr) != segMagic || binary.LittleEndian.Uint16(hdr[6:]) != 0 {
		return nil, fmt.Errorf("hist: segment %s: bad header", path)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != segVersion {
		return nil, fmt.Errorf("hist: segment %s: unsupported version %d", path, v)
	}
	epoch := binary.LittleEndian.Uint64(hdr[8:])
	wantTrips := binary.LittleEndian.Uint64(hdr[16:])
	var batches []walBatch
	trips := uint64(0)
	for len(rest) > 0 {
		var payload []byte
		payload, rest, err = readFrame(rest)
		if err != nil {
			return nil, fmt.Errorf("hist: segment %s: %w", path, err)
		}
		b, err := decodeBatch(payload)
		if err != nil {
			return nil, fmt.Errorf("hist: segment %s: %w", path, err)
		}
		if b.Epoch != uint64(len(batches))+1 {
			return nil, fmt.Errorf("hist: segment %s: batch %d where %d belongs", path, b.Epoch, len(batches)+1)
		}
		batches = append(batches, b)
		trips += uint64(len(b.Trips))
	}
	if uint64(len(batches)) != epoch || trips != wantTrips {
		return nil, fmt.Errorf("hist: segment %s: %d batches / %d trips, header says %d / %d",
			path, len(batches), trips, epoch, wantTrips)
	}
	return batches, nil
}

// newestValidSegment loads the newest segment file in dir that validates,
// deleting nothing, and returns its batches and size; no valid segment is no
// batches.
func newestValidSegment(dir string) (batches []walBatch, size int64) {
	names, _, err := listSegments(dir)
	if err != nil {
		return nil, 0
	}
	for _, name := range names {
		if b, err := readSegment(name); err == nil {
			return b, fileSize(name)
		}
	}
	return nil, 0
}

// dropOldSegments removes all segment generations older than keepFrom.
func dropOldSegments(dir string, keepFrom uint64) {
	names, gens, err := listSegments(dir)
	if err != nil {
		return
	}
	for i := range names {
		if gens[i] < keepFrom {
			os.Remove(names[i])
		}
	}
}

// maxSegmentGen returns the highest generation present in dir (0 if none).
func maxSegmentGen(dir string) uint64 {
	_, gens, err := listSegments(dir)
	if err != nil || len(gens) == 0 {
		return 0
	}
	return gens[0]
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
// Best-effort: some platforms refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
