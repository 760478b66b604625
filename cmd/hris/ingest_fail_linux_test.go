package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/hist"
	"repro/internal/traj"
)

// breakWAL makes every further write to the process's open WAL file under
// dir fail, the way a vanished disk would: a read-only descriptor is dup'ed
// over the log's descriptor number, so the number stays taken (nothing else
// can be opened onto it) and write(2) returns EBADF.
func breakWAL(t *testing.T, dir string) {
	t.Helper()
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	ro, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	broken := 0
	for _, e := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || filepath.Dir(target) != dir || !strings.HasSuffix(target, ".log") {
			continue
		}
		fd, _ := strconv.Atoi(e.Name())
		if err := syscall.Dup3(int(ro.Fd()), fd, 0); err != nil {
			t.Fatalf("dup over wal fd %d: %v", fd, err)
		}
		broken++
	}
	if broken != 1 {
		t.Fatalf("found %d open wal files under %s, want 1", broken, dir)
	}
}

// TestIngestWALFailureIsSticky: after the log stops accepting writes, POST
// /ingest answers 500 with durability "failed" — for the batch that hit the
// error and for every one after it — and a reopen finds exactly the batches
// that were acknowledged 200.
func TestIngestWALFailureIsSticky(t *testing.T) {
	ds := testWorld(t)
	dir := t.TempDir()
	st, _, err := hist.OpenShardedStore(dir, ds.City.Graph, nil, hist.ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	post := func(i int) (int, string) {
		tj := traj.NewTrajJSON(ds.Archive[i], nil)
		tj.ID = fmt.Sprintf("fail-%d", i)
		body, err := json.Marshal(map[string][]traj.TrajJSON{"trips": {tj}})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		ingestHandler(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)), st)
		var resp struct {
			Admitted hist.IngestStats `json:"admitted"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("/ingest body %q: %v", rec.Body.String(), err)
		}
		if resp.Admitted.Trips == 0 {
			t.Fatalf("trip %d admitted nothing; pick a trip that survives preprocessing", i)
		}
		return rec.Code, resp.Admitted.Durability
	}
	if code, d := post(0); code != http.StatusOK || d != hist.DurabilitySynced {
		t.Fatalf("healthy /ingest = %d %q, want 200 synced", code, d)
	}
	breakWAL(t, dir)
	for i := 1; i <= 2; i++ {
		if code, d := post(i); code != http.StatusInternalServerError || d != hist.DurabilityFailed {
			t.Fatalf("/ingest %d after the wal broke = %d %q, want 500 failed", i, code, d)
		}
	}
	st.CloseAbrupt()
	re, rs, err := hist.OpenShardedStore(dir, ds.City.Graph, nil, hist.ShardedConfig{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if rs.Epoch != 1 {
		t.Fatalf("recovered epoch %d, want exactly the one acknowledged batch", rs.Epoch)
	}
}
