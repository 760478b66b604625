package traj

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestArchiveRoundTrip(t *testing.T) {
	trajs := []*Trajectory{
		mkTraj("a", [3]float64{0, 0, 0}, [3]float64{10, 5, 30}),
		mkTraj("b", [3]float64{-5, 2, 1}, [3]float64{8, 8, 61}, [3]float64{20, 20, 121}),
	}
	truth := map[string][]int{"a": {3, 4, 5}}
	var buf bytes.Buffer
	if err := WriteArchive(&buf, trajs, truth); err != nil {
		t.Fatalf("WriteArchive: %v", err)
	}
	got, gotTruth, err := ReadArchive(&buf)
	if err != nil {
		t.Fatalf("ReadArchive: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("trajectories = %d", len(got))
	}
	for i := range trajs {
		if got[i].ID != trajs[i].ID || got[i].Len() != trajs[i].Len() {
			t.Fatalf("trajectory %d differs", i)
		}
		for j := range trajs[i].Points {
			if got[i].Points[j] != trajs[i].Points[j] {
				t.Fatalf("point %d/%d differs", i, j)
			}
		}
	}
	if len(gotTruth) != 1 || len(gotTruth["a"]) != 3 || gotTruth["a"][2] != 5 {
		t.Fatalf("truth = %v", gotTruth)
	}
}

func TestReadArchiveErrors(t *testing.T) {
	if _, _, err := ReadArchive(strings.NewReader("nope")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Non-increasing timestamps rejected.
	bad := `{"trajectories":[{"id":"x","points":[[0,0,10],[1,1,5]]}]}`
	if _, _, err := ReadArchive(strings.NewReader(bad)); err == nil {
		t.Fatal("non-increasing timestamps accepted")
	}
}

// TestReadArchiveSeeds: FuzzReadArchive's hand-written seeds are accepted
// or rejected as marked, an accepted one decodes as encoding/json decodes
// it, and a rejection names the byte where decoding stopped.
func TestReadArchiveSeeds(t *testing.T) {
	for _, s := range archiveSeeds {
		got, truth, err := ReadArchive(strings.NewReader(s.in))
		if (err == nil) != s.ok {
			t.Errorf("%s: err = %v, want ok=%v", s.in, err, s.ok)
			continue
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "traj: decode archive: byte ") {
				t.Errorf("%s: error %q lacks the prefix and offset", s.in, err)
			}
			continue
		}
		std, stdTruth, err := DecodeArchiveStd([]byte(s.in))
		if err != nil || !reflect.DeepEqual(got, std) || !reflect.DeepEqual(truth, stdTruth) {
			t.Errorf("%s: decoded %+v %v, encoding/json %+v %v (%v)", s.in, got, truth, std, stdTruth, err)
		}
	}
}

// TestReadArchiveSharesNoCapacity: trajectories decoded into one backing
// array cannot grow into each other.
func TestReadArchiveSharesNoCapacity(t *testing.T) {
	in := `{"trajectories":[{"id":"a","points":[[0,0,1],[1,1,2]],"truth":[1]},{"id":"b","points":[[5,5,1]],"truth":[2]}]}`
	got, truth, err := ReadArchive(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got[0].Points, GPSPoint{T: 99})
	_ = append(truth["a"], 99)
	if got[1].Points[0].T != 1 || truth["b"][0] != 2 {
		t.Fatalf("append to one trajectory changed the next: %+v %v", got[1], truth["b"])
	}
}

func TestWriteArchiveNilTruth(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteArchive(&buf, []*Trajectory{mkTraj("a", [3]float64{0, 0, 0})}, nil); err != nil {
		t.Fatal(err)
	}
	_, truth, err := ReadArchive(&buf)
	if err != nil || len(truth) != 0 {
		t.Fatalf("nil truth round trip: %v %v", truth, err)
	}
}
