package hist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/geo"
	"repro/internal/traj"
)

// On-disk encoding of the write-ahead log.
//
// Everything on disk is built from one primitive, the framed record:
//
//	[u32 payload length][u32 CRC32-C of payload][payload]
//
// all little-endian. A reader that finds a short frame, an impossible
// length or a checksum mismatch knows the record — and, in an append-only
// log, everything after it — is not trustworthy. CRC32-C (Castagnoli) is
// the standard storage polynomial; the Go runtime accelerates it in
// hardware on amd64/arm64.
//
// A trip is encoded as
//
//	[u32 id length][id bytes][u32 point count][points: x, y, t float64 bits]
//
// and a batch — the payload of one WAL record — as
//
//	[u64 epoch][u32 trip count][trips]
//
// Batch boundaries are therefore on disk wherever trips are, and recovery
// needs no side annotation to replay history batch by batch.

// castagnoli is the CRC32-C table used for every on-disk checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// frameHeaderSize is the framed-record prefix: payload length + CRC.
	frameHeaderSize = 8
	// maxFramePayload bounds a single frame (64 MiB). A length above this is
	// treated as corruption rather than an allocation request.
	maxFramePayload = 64 << 20
	// maxTripPoints bounds a single decoded trip, for the same reason.
	maxTripPoints = 1 << 24
)

// appendFrame appends a framed record holding payload to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// readFrame decodes the framed record at the start of b, returning the
// payload and the remaining bytes. Any truncation or checksum mismatch
// returns an error, which the log scan reads as "torn tail, truncate here".
func readFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < frameHeaderSize {
		return nil, nil, fmt.Errorf("hist: frame truncated: %d header bytes", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	sum := binary.LittleEndian.Uint32(b[4:])
	if n > maxFramePayload {
		return nil, nil, fmt.Errorf("hist: frame length %d exceeds limit", n)
	}
	if len(b) < frameHeaderSize+int(n) {
		return nil, nil, fmt.Errorf("hist: frame truncated: want %d payload bytes, have %d", n, len(b)-frameHeaderSize)
	}
	payload = b[frameHeaderSize : frameHeaderSize+int(n)]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, nil, fmt.Errorf("hist: frame checksum mismatch")
	}
	return payload, b[frameHeaderSize+int(n):], nil
}

// appendTrip appends the trip encoding of tr to buf.
func appendTrip(buf []byte, tr *traj.Trajectory) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tr.ID)))
	buf = append(buf, tr.ID...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tr.Points)))
	for _, p := range tr.Points {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Pt.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Pt.Y))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.T))
	}
	return buf
}

// readTrip decodes one trip from the front of b.
func readTrip(b []byte) (*traj.Trajectory, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("hist: trip truncated")
	}
	idLen := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if idLen > maxFramePayload || len(b) < int(idLen)+4 {
		return nil, nil, fmt.Errorf("hist: trip id truncated")
	}
	id := string(b[:idLen])
	b = b[idLen:]
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if n > maxTripPoints || len(b) < int(n)*24 {
		return nil, nil, fmt.Errorf("hist: trip points truncated")
	}
	tr := &traj.Trajectory{ID: id, Points: make([]traj.GPSPoint, n)}
	for i := range tr.Points {
		x := math.Float64frombits(binary.LittleEndian.Uint64(b))
		y := math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		t := math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
		tr.Points[i] = traj.GPSPoint{Pt: geo.Pt(x, y), T: t}
		b = b[24:]
	}
	return tr, b, nil
}

// appendBatch appends the batch encoding of one admitted ingest batch to buf.
func appendBatch(buf []byte, epoch uint64, trips []*traj.Trajectory) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(trips)))
	for _, tr := range trips {
		buf = appendTrip(buf, tr)
	}
	return buf
}

// decodeBatch parses one batch encoding; the payload must hold exactly one,
// in the only shape ingest writes: at least one trip, each with at least one
// point. Anything else would replay without advancing the epoch, so it is
// rejected like a bad checksum.
func decodeBatch(payload []byte) (walBatch, error) {
	if len(payload) < 12 {
		return walBatch{}, fmt.Errorf("hist: batch record truncated")
	}
	b := walBatch{Epoch: binary.LittleEndian.Uint64(payload)}
	n := binary.LittleEndian.Uint32(payload[8:])
	rest := payload[12:]
	if b.Epoch == 0 {
		return walBatch{}, fmt.Errorf("hist: batch record with epoch 0")
	}
	if n == 0 {
		return walBatch{}, fmt.Errorf("hist: batch record without trips")
	}
	for k := uint32(0); k < n; k++ {
		var tr *traj.Trajectory
		var err error
		tr, rest, err = readTrip(rest)
		if err != nil {
			return walBatch{}, err
		}
		if tr.Len() == 0 {
			return walBatch{}, fmt.Errorf("hist: batch record with a trip without points")
		}
		b.Trips = append(b.Trips, tr)
	}
	if len(rest) != 0 {
		return walBatch{}, fmt.Errorf("hist: %d trailing bytes in batch record", len(rest))
	}
	return b, nil
}

// seedFingerprint folds the identity of a seed trip set — per trip: id,
// first sample, length — into one FNV-1a hash. OpenShardedStore records it in
// the manifest and refuses to marry a data directory to a different seed: the
// seed is re-supplied by the caller on every open (it is the caller's
// dataset, already durable elsewhere), so recovery correctness depends on
// it being the same seed.
func seedFingerprint(seed []*traj.Trajectory) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for shift := 0; shift < 64; shift += 8 {
			h ^= (v >> shift) & 0xff
			h *= prime
		}
	}
	mix(uint64(len(seed)))
	for _, tr := range seed {
		for i := 0; i < len(tr.ID); i++ {
			h ^= uint64(tr.ID[i])
			h *= prime
		}
		mix(uint64(tr.Len()))
		if tr.Len() > 0 {
			p := tr.Points[0]
			mix(math.Float64bits(p.Pt.X))
			mix(math.Float64bits(p.Pt.Y))
			mix(math.Float64bits(p.T))
		}
	}
	return h
}
