package hist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geo"
	"repro/internal/traj"
)

// The decoders below read bytes this process did not write: a log left by a
// crashed process, a bad disk, or anyone with write access to the data
// directory. They must reject what ingest never writes, and
// never panic. Run one as go test -run '^$' -fuzz '^FuzzDecodeBatch$' .

// FuzzDecodeBatch: every payload decodeBatch accepts holds at least one trip
// with at least one point each — the only shape ingest logs — and re-encodes
// byte-identically, so nothing is dropped or invented on the way through.
func FuzzDecodeBatch(f *testing.F) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	for _, trips := range [][]*traj.Trajectory{
		storeTrips()[:1],
		storeTrips(),
		{{ID: "", Points: []traj.GPSPoint{{Pt: geo.Pt(nan, 1), T: nan}}}},
		{{ID: "inf", Points: []traj.GPSPoint{{Pt: geo.Pt(math.Inf(1), negZero), T: math.Inf(-1)}}}},
		nil,
		{{ID: "no points"}},
	} {
		f.Add(appendBatch(nil, 1, trips))
	}
	f.Add(appendBatch(nil, 0, storeTrips()[:1]))
	f.Fuzz(func(t *testing.T, payload []byte) {
		b, err := decodeBatch(payload)
		if err != nil {
			return
		}
		if len(b.Trips) == 0 {
			t.Fatal("accepted a batch without trips")
		}
		for i, tr := range b.Trips {
			if tr.Len() == 0 {
				t.Fatalf("accepted trip %d without points", i)
			}
		}
		if again := appendBatch(nil, b.Epoch, b.Trips); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n%x\n%x", payload, again)
		}
	})
}

// FuzzScanWAL writes arbitrary bytes as the log file and scans it: the scan
// never panics, returns the contiguous epoch run 1, 2, 3, ... and accounts
// for every byte, and a second scan of the truncated file finds the same
// batches with nothing left to truncate — recovery is idempotent.
func FuzzScanWAL(f *testing.F) {
	// Short seeds: the fuzzer spends its time minimizing what it finds, at a
	// cost that grows with input length.
	trips := []*traj.Trajectory{
		lineTraj("a", geo.Pt(0, 0)),
		lineTraj("b", geo.Pt(1, 2), geo.Pt(3, 4)),
		lineTraj("c", geo.Pt(5, 6)),
	}
	var log []byte
	for i, tr := range trips {
		log = appendFrame(log, appendBatch(nil, uint64(i+1), []*traj.Trajectory{tr}))
	}
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add(appendFrame(bytes.Clone(log), appendBatch(nil, uint64(len(trips)+1), nil)))
	f.Add(appendFrame(appendFrame(nil, appendBatch(nil, 1, trips[:1])), appendBatch(nil, 3, trips[1:2])))
	f.Add([]byte{})
	f.Add(appendFrame(nil, appendBatch(nil, 2, trips[:1]))) // a run that does not start at epoch 1
	path := filepath.Join(f.TempDir(), walName)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		first, err := scanWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range first.Batches {
			if b.Epoch != uint64(i+1) {
				t.Fatalf("batch %d carries epoch %d", i, b.Epoch)
			}
		}
		if first.Bytes+first.TornBytes != int64(len(data)) {
			t.Fatalf("%d kept + %d torn bytes of %d", first.Bytes, first.TornBytes, len(data))
		}
		second, err := scanWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if second.TornBytes != 0 || second.Bytes != first.Bytes || len(second.Batches) != len(first.Batches) {
			t.Fatalf("rescan %d batches / %d bytes / %d torn, first scan %d / %d",
				len(second.Batches), second.Bytes, second.TornBytes, len(first.Batches), first.Bytes)
		}
		for i, b := range second.Batches {
			a := first.Batches[i]
			if !bytes.Equal(appendBatch(nil, a.Epoch, a.Trips), appendBatch(nil, b.Epoch, b.Trips)) {
				t.Fatalf("rescan batch %d differs", i)
			}
		}
	})
}
