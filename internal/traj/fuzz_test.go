package traj

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geo"
)

// DecodeArchiveStd is ReadArchive's reference reader: json.Unmarshal into
// ArchiveJSON, converted to what ReadArchive returns, minus Validate.
// Exported for this package's external tests.
func DecodeArchiveStd(data []byte) ([]*Trajectory, map[string][]int, error) {
	var aj ArchiveJSON
	if err := json.Unmarshal(data, &aj); err != nil {
		return nil, nil, err
	}
	var trajs []*Trajectory
	truth := make(map[string][]int)
	for _, tj := range aj.Trajectories {
		tr := &Trajectory{ID: tj.ID}
		for _, p := range tj.Points {
			tr.Points = append(tr.Points, GPSPoint{Pt: geo.Pt(p[0], p[1]), T: p[2]})
		}
		trajs = append(trajs, tr)
		if len(tj.Truth) > 0 {
			truth[tj.ID] = tj.Truth
		}
	}
	return trajs, truth, nil
}

// archiveSeeds are inputs that ReadArchive must accept (ok) or reject.
var archiveSeeds = []struct {
	in string
	ok bool
}{
	{`{"trajectories":[{"id":"x","points":[[0,0,10],[1,1,5]]}]}`, false}, // time goes back
	{`{"trajectories":[{"id":"x","points":[[0,0,-0],[1e308,-1e-320,1]],"truth":[]},{"id":"x","truth":[-1]}]}`, true},
	{`{"trajectories":null}`, true},
	{`{"trajectories":[{"id":"p","points":null,"truth":null}]}`, true},
	// Escaped non-ASCII ids (~ stands for a backslash-u escape): é, a
	// surrogate pair, a lone surrogate, then raw UTF-8 and short escapes.
	{strings.ReplaceAll(`{"trajectories":[{"id":"caf~00e9 ~d83d~de95 ~d800 🚕\n\/","points":[[1,2,3]]}]}`, "~", `\u`), true},
	{`{"trajectories":[{"id":"z","points":[[1e308,1e-320,-0],[-0.0,1E+2,2.5e-3]]}]}`, true},
	{" \r\n\t{ \"trajectories\" :\n[ {\"truth\" : [ 7 , 8 ] ,\t\"points\":[ [ 1 , 2 , 3 ] ] , \"id\" : \"r\" } ] \n} \n", true},
	{`{"trajectories":[{"id":"t","truth":[1.0]}]}`, false},
	{`{"trajectories":[{"id":"t","truth":[1e2]}]}`, false},
	{`{"trajectories":[{"id":"n","points":[[NaN,0,1]]}]}`, false},
	{`{"trajectories":[{"id":"k","points":[[0,0,1]],"speed":3}]}`, false},
	{`{"trajectories":[{"id":"k","ID":"K"}]}`, false},
	{`{"trajectories":[{"id":"k"}]} x`, false},
	{`{"trajectories":[{"id":"o","points":[[1e309,0,1]]}]}`, false},
	{`{"trajectories":[{"id":"h","points":[[0x1p3,0,1]]}]}`, false},
	{`{"trajectories":[{"id":"q","points":[[+1,0,1]]}]}`, false},
	{`{"trajectories":[{"id":"q","points":[[.5,0,1]]}]}`, false},
	{`{"trajectories":[{"id":"q","points":[[1.,0,1]]}]}`, false},
	{`{"trajectories":[{"id":"q","truth":[9223372036854775808]}]}`, false},
}

// FuzzReadArchive: arbitrary bytes as a dataset's trajectory file.
// ReadArchive never panics; every input it accepts, json.Unmarshal into
// ArchiveJSON accepts too, with the same trajectories and truth map; every
// trajectory it accepts has strictly increasing timestamps; and
// WriteArchive → ReadArchive reproduces the accepted trajectories and truth
// map exactly, so nothing read is lost or altered on the way back out.
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
	for _, s := range archiveSeeds {
		f.Add([]byte(s.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, truth, err := ReadArchive(bytes.NewReader(data))
		if err != nil {
			return
		}
		std, stdTruth, err := DecodeArchiveStd(data)
		if err != nil {
			t.Fatalf("accepted what encoding/json rejects (%v)", err)
		}
		if !reflect.DeepEqual(got, std) || !reflect.DeepEqual(truth, stdTruth) {
			t.Fatalf("decoded differently from encoding/json:\n%+v %v\n%+v %v", got, truth, std, stdTruth)
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
