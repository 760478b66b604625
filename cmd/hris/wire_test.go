package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/traj"
)

// streamRecords posts body to /stream on base and returns the response's
// NDJSON records, each decoded as a final record: an update line reads as
// one with Final unset.
func streamRecords(t *testing.T, base, id string, body []byte) []streamFinalJSON {
	t.Helper()
	resp, err := http.Post(base+"/stream?id="+id, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /stream = %d", resp.StatusCode)
	}
	var recs []streamFinalJSON
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec streamFinalJSON
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("/stream record %q: %v", sc.Bytes(), err)
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 || !recs[len(recs)-1].Final {
		t.Fatalf("/stream ended without a final record: %+v", recs)
	}
	return recs
}

// wirePoint is p as a /stream line writes it.
func wirePoint(p traj.GPSPoint) string {
	return fmt.Sprintf("[%g,%g,%g]", p.Pt.X, p.Pt.Y, p.T)
}

// TestWireRefusesMalformedTrips: five trips that encoding/json read without
// complaint, each one point or one key away from a well-formed trip, are
// refused by every surface in its own way. /infer and /ingest answer 400,
// -follow skips and counts the line, /stream ends with a "bad point" final
// record and -query is fatal. /stream reads bare points, so a key defect
// reaches it as the whole trip object on one line.
func TestWireRefusesMalformedTrips(t *testing.T) {
	s, base := newStreamServer(t, streamLimits{}, context.Background(), false)
	q := worldLight[0]
	var rest []string
	for _, p := range q.Points[1:] {
		rest = append(rest, wirePoint(p))
	}
	p0 := q.Points[0]
	points := func(first string) string { return "[" + first + "," + strings.Join(rest, ",") + "]" }
	good := points(wirePoint(p0))
	cases := []struct{ name, trip, line string }{
		{"two numbers", `{"id":"bad","points":` + points(fmt.Sprintf("[%g,%g]", p0.Pt.X, p0.Pt.Y)) + `}`,
			fmt.Sprintf("[%g,%g]", p0.Pt.X, p0.Pt.Y)},
		{"four numbers", `{"id":"bad","points":` + points(fmt.Sprintf("[%g,%g,%g,0]", p0.Pt.X, p0.Pt.Y, p0.T)) + `}`,
			fmt.Sprintf("[%g,%g,%g,0]", p0.Pt.X, p0.Pt.Y, p0.T)},
		{"key in another case", `{"id":"bad","Points":` + good + `}`, ""},
		{"repeated key", `{"id":"bad","points":` + good + `,"points":` + good + `}`, ""},
		{"unknown key", `{"id":"bad","points":` + good + `,"speed":3}`, ""},
	}

	dir := t.TempDir()
	bin := buildBinary(t, dir)
	writeDataset(t, dir, testWorld(t), nil)
	for _, tc := range cases {
		if tc.line == "" {
			tc.line = tc.trip
		}
		t.Run(tc.name, func(t *testing.T) {
			if rec := doInfer(s, nil, []byte(tc.trip)); rec.Code != http.StatusBadRequest ||
				!strings.HasPrefix(rec.Body.String(), "bad query:") {
				t.Errorf("/infer = %d %q, want 400 bad query", rec.Code, rec.Body.String())
			}

			before := s.st.Stats()
			rec := httptest.NewRecorder()
			body := `{"trips":[` + tc.trip + `]}`
			ingestHandler(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body)), s.st)
			if rec.Code != http.StatusBadRequest || !strings.HasPrefix(rec.Body.String(), "bad trips:") {
				t.Errorf("/ingest = %d %q, want 400 bad trips", rec.Code, rec.Body.String())
			}

			reg := obs.New()
			follow(context.Background(), strings.NewReader(tc.trip+"\n"), s.st, reg)
			if got := reg.Counter(obs.CounterIngestRejected).Value(); got != 1 {
				t.Errorf("-follow: ingest.rejected = %d, want 1", got)
			}
			if after := s.st.Stats(); after.Epoch != before.Epoch {
				t.Errorf("refused trips moved the store from epoch %d to %d", before.Epoch, after.Epoch)
			}

			recs := streamRecords(t, base, "bad", []byte(tc.line+"\n"))
			if fin := recs[len(recs)-1]; len(recs) != 1 || !strings.HasPrefix(fin.Error, "bad point:") {
				t.Errorf("/stream answered %+v, want only a bad point final record", recs)
			}

			path := filepath.Join(dir, "q.json")
			if err := os.WriteFile(path, []byte(tc.trip), 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := exec.Command(bin, "-data", dir, "-query", path).CombinedOutput()
			if err == nil || !bytes.Contains(out, []byte("decode query: traj: decode trip: byte ")) ||
				bytes.Contains(out, []byte("panic:")) {
				t.Errorf("-query: %v, want a clean decode fatal:\n%s", err, out)
			}
		})
	}
}

// TestWireTimeAndPlaceEdges pins what /infer and /stream answer for points
// the grammar admits but the search cannot use as they are: a repeated
// timestamp and a timestamp that goes back leave the pair without
// references, so it is answered with fallback routes; a point 10⁶ m outside
// the network has no candidate edge, so its pair has no route at all, which
// is a 422 and a final error record. None of them is a 5xx or a panic.
func TestWireTimeAndPlaceEdges(t *testing.T) {
	s, base := newStreamServer(t, streamLimits{}, context.Background(), false)
	far := s.eng.Graph().BBox().Max.X + 1e6
	for _, tc := range []struct {
		name   string
		edit   func(pts []traj.GPSPoint)
		routes bool
	}{
		{"duplicate timestamps", func(pts []traj.GPSPoint) { pts[2].T = pts[1].T }, true},
		{"decreasing timestamps", func(pts []traj.GPSPoint) { pts[2].T = pts[1].T - 60 }, true},
		{"point outside the network", func(pts []traj.GPSPoint) { pts[2].Pt.X = far }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := worldLight[0].Clone()
			tc.edit(q.Points)
			if tc.routes {
				res, err := s.eng.InferRoutesCtx(context.Background(), q, s.params)
				if err != nil {
					t.Fatal(err)
				}
				if ps := res.Pairs[1]; ps.Refs != 0 || !ps.UsedFall {
					t.Fatalf("edited pair %+v, want no references and a fallback route", ps)
				}
			}

			rec := doInfer(s, nil, inferBody(t, q, 0))
			var resp struct {
				Routes []routeJSON `json:"routes"`
			}
			switch {
			case tc.routes && (rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || len(resp.Routes) == 0):
				t.Errorf("/infer = %d %q, want 200 with routes", rec.Code, rec.Body.String())
			case !tc.routes && rec.Code != http.StatusUnprocessableEntity:
				t.Errorf("/infer = %d %q, want 422", rec.Code, rec.Body.String())
			}

			var lines bytes.Buffer
			for _, p := range q.Points {
				fmt.Fprintln(&lines, wirePoint(p))
			}
			recs := streamRecords(t, base, "edge", lines.Bytes())
			fin := recs[len(recs)-1]
			if tc.routes && (len(recs) != q.Len()+1 || fin.Error != "" || len(fin.Routes) == 0) {
				t.Errorf("/stream answered %d records, final %+v; want %d updates and routes", len(recs), fin, q.Len())
			}
			if !tc.routes && (fin.Error == "" || len(fin.Routes) != 0) {
				t.Errorf("/stream final %+v, want an error record", fin)
			}
		})
	}
}

// TestReadmeExamples: README's /ingest curl body and /stream printf lines
// decode with the readers the handlers use.
func TestReadmeExamples(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	quoted := func(after string) string {
		_, rest, ok := strings.Cut(string(readme), after)
		body, _, closed := strings.Cut(rest, "'")
		if !ok || !closed {
			t.Fatalf("README has no %q...' example", after)
		}
		return body
	}
	trips, err := traj.ReadTrips(strings.NewReader(quoted("/ingest -d '")), "trips")
	if err != nil || len(trips) != 1 || trips[0].Len() != 3 {
		t.Fatalf("/ingest example: %v, %+v", err, trips)
	}
	lines := strings.Split(strings.TrimSuffix(quoted("printf '"), `\n`), `\n`)
	for _, line := range lines {
		if _, err := traj.ParsePoint([]byte(line)); err != nil {
			t.Fatalf("/stream example line %q: %v", line, err)
		}
	}
	if len(lines) != 3 {
		t.Fatalf("/stream example has %d lines, want 3", len(lines))
	}
}
