package traj

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"slices"
	"testing"
)

// The reference readers of the wire shapes: the trip, query and point
// decoding cmd/hris did with encoding/json before it used ReadTrip,
// ReadTrips and ParsePoint.
type (
	tripJSONStd struct {
		ID     string       `json:"id"`
		Points [][3]float64 `json:"points"`
	}
	queryJSONStd struct {
		Points     [][3]float64 `json:"points"`
		Truth      []int        `json:"truth,omitempty"`
		DeadlineMS int          `json:"deadline_ms,omitempty"`
	}
)

// decodeOneStd decodes exactly one JSON value from data into v and
// requires only whitespace after it.
func decodeOneStd(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// sameFloats reports whether a and b hold the same float64 bit patterns.
func sameFloats(a, b [3]float64) bool {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// samePoints reports whether pts are the wire points std, bit for bit.
func samePoints(pts []GPSPoint, std [][3]float64) bool {
	return slices.EqualFunc(pts, std, func(p GPSPoint, w [3]float64) bool {
		return sameFloats([3]float64{p.Pt.X, p.Pt.Y, p.T}, w)
	})
}

var wireSeeds = []string{
	`{"id":"a","points":[[0,0,0],[10,5,30]]}`,
	`{"points":[[1,2,3]],"deadline_ms":50,"truth":[4,5]}`,
	`{"trips":[{"id":"a","points":[[0,0,0]]},{"id":"b","points":null,"truth":[1]}]}`,
	`{"trips":null}`,
	"[1.5, -2e3, 0]\r\n",
	`[-0,1E+2,2.5e-3]`,
	`[1,2]`,
	`[1,2,3,4]`,
	`{"id":"k","Points":[[0,0,1]]}`,
	`{"id":"k","points":[[0,0,1]],"points":[]}`,
	`{"id":"k","points":[[0,0,1]],"speed":3}`,
	`{"points":[[0,0,1]],"deadline_ms":1.5}`,
	`{"points":[[0,0,1]],"deadline_ms":null}`,
	`{"id":"k"} {}`,
}

// FuzzReadWire: arbitrary bytes as an /infer body or -query file, a -follow
// line, an /ingest body and a /stream line. No reader panics, and every
// input one accepts, the encoding/json decoding it replaced accepts too,
// with the same id, points, truth and deadline_ms.
func FuzzReadWire(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, extra := range []string{"", "deadline_ms"} {
			tr, truth, n, err := ReadTrip(bytes.NewReader(data), extra)
			if err != nil {
				continue
			}
			var tj tripJSONStd
			var qj queryJSONStd
			if err := json.Unmarshal(data, &tj); err != nil {
				t.Fatalf("ReadTrip(%q) accepted what the trip reference rejects (%v)", extra, err)
			}
			if err := decodeOneStd(data, &qj); err != nil {
				t.Fatalf("ReadTrip(%q) accepted what the query reference rejects (%v)", extra, err)
			}
			if tr.ID != tj.ID || !samePoints(tr.Points, tj.Points) || !samePoints(tr.Points, qj.Points) ||
				!slices.Equal(truth, qj.Truth) || n != qj.DeadlineMS {
				t.Fatalf("ReadTrip(%q) = %+v %v %d; encoding/json %+v %+v", extra, tr, truth, n, tj, qj)
			}
		}

		if trips, err := ReadTrips(bytes.NewReader(data), "trips"); err == nil {
			var req struct {
				Trips []tripJSONStd `json:"trips"`
			}
			if err := decodeOneStd(data, &req); err != nil {
				t.Fatalf("ReadTrips accepted what encoding/json rejects (%v)", err)
			}
			if !slices.EqualFunc(trips, req.Trips, func(tr *Trajectory, tj tripJSONStd) bool {
				return tr.ID == tj.ID && samePoints(tr.Points, tj.Points)
			}) {
				t.Fatalf("ReadTrips decoded differently from encoding/json:\n%+v\n%+v", trips, req.Trips)
			}
		}

		if p, err := ParsePoint(data); err == nil {
			var std [3]float64
			if err := json.Unmarshal(data, &std); err != nil {
				t.Fatalf("ParsePoint accepted what encoding/json rejects (%v)", err)
			}
			if !sameFloats([3]float64{p.Pt.X, p.Pt.Y, p.T}, std) {
				t.Fatalf("ParsePoint = %+v, encoding/json %v", p, std)
			}
		}
	})
}
