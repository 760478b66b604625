package traj_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/traj"
)

var (
	simArchiveOnce sync.Once
	simArchive     []byte
)

// simArchiveBytes is a sim-generated dataset's archive as WriteArchive
// writes it: noisy float coordinates and timestamps, and a truth route for
// every trip.
func simArchiveBytes(t testing.TB) []byte {
	t.Helper()
	simArchiveOnce.Do(func() {
		ccfg := sim.DefaultCityConfig()
		ccfg.Rows, ccfg.Cols = 12, 12
		fcfg := sim.DefaultFleetConfig()
		fcfg.Trips = 200
		ds := sim.BuildDataset(sim.GenerateCity(ccfg, 5), fcfg)
		truth := make(map[string][]int, len(ds.Truth))
		for id, r := range ds.Truth {
			truth[id] = r
		}
		var buf bytes.Buffer
		if err := traj.WriteArchive(&buf, ds.Archive, truth); err != nil {
			t.Fatal(err)
		}
		simArchive = buf.Bytes()
	})
	return simArchive
}

// TestReadArchiveSimMatchesEncodingJSON: a generated archive decodes to the
// same trajectories and truth map through ReadArchive and encoding/json.
func TestReadArchiveSimMatchesEncodingJSON(t *testing.T) {
	data := simArchiveBytes(t)
	got, truth, err := traj.ReadArchive(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	std, stdTruth, err := traj.DecodeArchiveStd(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(truth) != len(got) {
		t.Fatalf("%d trajectories, %d truth routes: want a non-empty archive with a route per trip", len(got), len(truth))
	}
	if !reflect.DeepEqual(got, std) || !reflect.DeepEqual(truth, stdTruth) {
		t.Fatal("ReadArchive and encoding/json disagree on a generated archive")
	}
}

// BenchmarkReadArchive decodes a generated archive of 200 trips.
func BenchmarkReadArchive(b *testing.B) {
	data := simArchiveBytes(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := traj.ReadArchive(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
