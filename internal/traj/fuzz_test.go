package traj

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadArchive: arbitrary bytes as a dataset's trajectory file.
// ReadArchive never panics; every trajectory it accepts has strictly
// increasing timestamps; and WriteArchive → ReadArchive reproduces the
// accepted trajectories and truth map exactly, so nothing read is lost or
// altered on the way back out.
func FuzzReadArchive(f *testing.F) {
	var buf bytes.Buffer
	trajs := []*Trajectory{
		mkTraj("a", [3]float64{0, 0, 0}, [3]float64{10, 5, 30}),
		mkTraj("b", [3]float64{-5, 2, 1}, [3]float64{8, 8, 61}),
		{ID: "empty"},
	}
	if err := WriteArchive(&buf, trajs, map[string][]int{"a": {3, 4, 5}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"trajectories":[{"id":"x","points":[[0,0,10],[1,1,5]]}]}`))
	f.Add([]byte(`{"trajectories":[{"id":"x","points":[[0,0,-0],[1e308,-1e-320,1]],"truth":[]},{"id":"x","truth":[-1]}]}`))
	f.Add([]byte(`{"trajectories":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, truth, err := ReadArchive(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, tr := range got {
			for i := 1; i < len(tr.Points); i++ {
				if !(tr.Points[i].T > tr.Points[i-1].T) {
					t.Fatalf("accepted trajectory %q with time %v after %v", tr.ID, tr.Points[i].T, tr.Points[i-1].T)
				}
			}
		}
		var out bytes.Buffer
		if err := WriteArchive(&out, got, truth); err != nil {
			t.Fatalf("cannot write back what was read: %v", err)
		}
		again, againTruth, err := ReadArchive(&out)
		if err != nil {
			t.Fatalf("rejected its own serialisation: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(again, got) || !reflect.DeepEqual(againTruth, truth) {
			t.Fatalf("round trip changed the archive:\n%s", out.Bytes())
		}
	})
}
