package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traj"
)

// scrape reads the binary's /metrics snapshot.
func scrape(t *testing.T, base string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	return s
}

// buildBinary builds cmd/hris into dir and returns its path.
func buildBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "hris")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeFile creates dir/name through fn.
func writeFile(t *testing.T, dir, name string, fn func(io.Writer) error) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if err = fn(f); err == nil {
		err = f.Close()
	}
	if err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
}

// writeDataset writes the dataset directory loadDataset reads, with the
// given ground-truth routes.
func writeDataset(t *testing.T, dir string, ds *sim.Dataset, truth map[string][]int) {
	t.Helper()
	writeFile(t, dir, "network.json", ds.City.Graph.WriteJSON)
	writeFile(t, dir, "archive.json", func(w io.Writer) error { return traj.WriteArchive(w, ds.Archive, truth) })
}

// TestBinaryWiring runs the built binary, not the handlers: what the
// in-process tests prove about the gate and the stream handler only holds
// for users if main passes -max-inflight, -queue-depth and -stream-ingest on
// to them. One worker slot and no queue make every request that overlaps a
// running one a 429; finalize-to-ingest makes a clean /stream session
// advance the archive epoch; SIGTERM must exit 0 inside the shutdown timeout.
func TestBinaryWiring(t *testing.T) {
	ds := testWorld(t)
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	writeDataset(t, dir, ds, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	base := "http://" + addr

	var logs bytes.Buffer // read only after Wait has returned
	cmd := exec.Command(bin, "-data", dir, "-http", addr,
		"-max-inflight", "1", "-queue-depth", "0", "-stream-ingest")
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer cmd.Process.Kill() // no-op after a clean exit
	waitFor(t, "the binary to listen", func() bool {
		select {
		case err := <-exited:
			t.Fatalf("binary exited early: %v\n%s", err, logs.String())
		default:
		}
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
		}
		return err == nil
	})

	post := func(q *traj.Trajectory) int {
		resp, err := http.Post(base+"/infer", "application/json", bytes.NewReader(inferBody(t, q, 0)))
		if err != nil {
			t.Errorf("POST /infer: %v", err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// (i) While the heavy query holds the one worker slot, a burst of
	// distinct light queries finds no queue: all 429, each counted, no 5xx.
	// The heavy query is worldHeavy five times over, so it outlasts the
	// burst by a wide margin; its answer arriving after the burst's last
	// proves the slot was held throughout.
	heavy := &traj.Trajectory{ID: "heavy"}
	for len(heavy.Points) < 5*len(worldHeavy.Points) {
		for _, p := range worldHeavy.Points {
			p.T = float64(len(heavy.Points)) * 180
			heavy.Points = append(heavy.Points, p)
		}
	}
	heavyDone := make(chan int, 1)
	go func() { heavyDone <- post(heavy) }()
	waitFor(t, "the heavy request to take the worker slot", func() bool {
		return scrape(t, base).Stages[obs.HistServerQueueWait].Count >= 1
	})
	const burst = 6
	codes := make(chan int, burst)
	for i := 0; i < burst; i++ {
		q := worldLight[i+1]
		go func() { codes <- post(q) }()
	}
	for i := 0; i < burst; i++ {
		if code := <-codes; code != http.StatusTooManyRequests {
			t.Errorf("burst request behind a held slot with no queue = %d, want 429", code)
		}
	}
	select {
	case code := <-heavyDone:
		t.Fatalf("heavy request (%d) finished before the burst did: the slot was not provably held", code)
	default:
	}
	if got := scrape(t, base).Counters[obs.CounterServerShedQueue]; got != burst {
		t.Errorf("server.shed.queue = %d, want %d (one per 429)", got, burst)
	}
	if code := <-heavyDone; code != http.StatusOK {
		t.Errorf("heavy request = %d, want 200", code)
	}

	// (ii) One /stream session pushed to a clean finish is ingested and
	// advances the archive epoch.
	sc, code := openStream(t, base, "veh-binary")
	if code != http.StatusOK {
		t.Fatalf("open /stream = %d, want 200", code)
	}
	for _, pt := range worldLight[2].Points {
		sc.push(pt)
	}
	if fin := sc.finish(); !fin.Ingested || fin.Error != "" {
		t.Errorf("final record: ingested=%v error=%q, want ingested and no error", fin.Ingested, fin.Error)
	}
	if got := scrape(t, base).Counters["archive.epoch"]; got < 1 {
		t.Errorf("archive.epoch = %d after a finalize-to-ingest, want >= 1", got)
	}

	// (iii) SIGTERM drains and exits 0 inside main's 5 s shutdown timeout.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("exit after SIGTERM: %v\n%s", err, logs.String())
		}
	case <-time.After(6 * time.Second):
		t.Errorf("binary still running 6 s after SIGTERM")
	}
}

// TestBinaryChecksAccelFirst: a bad -accel is refused before any file is
// opened, so a missing dataset does not hide it behind "open network".
func TestBinaryChecksAccelFirst(t *testing.T) {
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	out, err := exec.Command(bin, "-accel", "bogus", "-data", filepath.Join(dir, "missing"), "-demo").CombinedOutput()
	if err == nil {
		t.Fatalf("exit 0 with -accel bogus, want a fatal\n%s", out)
	}
	if !bytes.Contains(out, []byte(`unknown -accel "bogus"`)) {
		t.Fatalf("want the -accel message, got:\n%s", out)
	}
}

// TestBinaryRejectsUnknownTruth: a ground-truth route naming a segment the
// network does not have — in a -query file or in the dataset's archive — is
// a clean fatal naming the file and the id, not an index-out-of-range panic
// when A_L or the GeoJSON export scores the route.
func TestBinaryRejectsUnknownTruth(t *testing.T) {
	ds := testWorld(t)
	bin := buildBinary(t, t.TempDir())
	n := ds.City.Graph.NumSegments()
	for _, tc := range []struct {
		name  string
		truth []int // the bad route
		query bool  // in a -query file; otherwise in archive.json under -demo
		id    string
	}{
		{"query/negative", []int{0, -1}, true, "-1"},
		{"query/past-end", []int{n}, true, fmt.Sprint(n)},
		{"archive/past-end", []int{0, n + 7}, false, fmt.Sprint(n + 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-data", dir}
			if tc.query {
				writeDataset(t, dir, ds, nil)
				q := worldLight[0]
				qj := queryJSON{Truth: tc.truth}
				for _, p := range q.Points {
					qj.Points = append(qj.Points, [3]float64{p.Pt.X, p.Pt.Y, p.T})
				}
				writeFile(t, dir, "q.json", func(w io.Writer) error { return json.NewEncoder(w).Encode(qj) })
				args = append(args, "-query", filepath.Join(dir, "q.json"))
			} else {
				// The one trip with a truth route is the one -demo picks.
				for _, tr := range ds.Archive {
					if !tr.IsLowSamplingRate() && tr.Len() >= 10 {
						writeDataset(t, dir, ds, map[string][]int{tr.ID: tc.truth})
						break
					}
				}
				args = append(args, "-demo")
			}
			out, err := exec.Command(bin, args...).CombinedOutput()
			if err == nil {
				t.Fatalf("exit 0 with truth %v, want a fatal\n%s", tc.truth, out)
			}
			if bytes.Contains(out, []byte("panic:")) || !bytes.Contains(out, []byte("truth segment "+tc.id+" ")) {
				t.Fatalf("want a clean fatal naming segment %s, got:\n%s", tc.id, out)
			}
		})
	}
}
