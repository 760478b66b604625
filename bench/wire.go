package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the number of concurrent connections on the closed-loop
// workloads. One, not one per core: on the 2-core box the bounds were
// calibrated on, two clients plus the driver saturate both cores, and every
// metric then wanders by 25% between identical runs (6% with one client).
const clients = 1

// ingestPeriod is the open-loop writer's schedule on ingest-mix: 10 batches
// of 10 trips per second.
const ingestPeriod = 100 * time.Millisecond

// answer is the raw reply to the query at index q: an /infer body, or the
// final record of a /stream session.
type answer struct {
	q    int
	body []byte
}

// phase collects what one driven interval observed. Slices are appended in
// completion order, so they are time-ordered.
type phase struct {
	mu        sync.Mutex
	lat       []float64 // ms per answered request (/infer reply or /stream update)
	ack, late []float64 // ms per /ingest batch: due→ack, and due→actually sent
	answers   []answer
	attempted int
	failed    int
	ops       int // answered requests plus acknowledged ingest batches
	respBytes int64
	maxEpoch  uint64 // highest archive epoch an /ingest ack reported
	elapsed   time.Duration

	// atMark runs once, when the markOps-th request is answered: peak memory
	// is read after a fixed amount of work, not after a fixed time, so that a
	// faster server is not charged for the extra requests it served.
	markOps int
	atMark  func()
}

// answered counts one answered request; the caller holds p.mu.
func (p *phase) answered(latency time.Duration, bytes int) {
	p.attempted++
	p.ops++
	p.lat = append(p.lat, ms(latency))
	p.respBytes += int64(bytes)
	if len(p.lat) == p.markOps {
		p.atMark()
	}
}

func (p *phase) fail(n int) {
	p.mu.Lock()
	p.attempted += n
	p.failed += n
	p.mu.Unlock()
}

// newClient returns an HTTP client that owns exactly one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

func post(hc *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// sequential hands out query indices start, start+1, ... below n, once each.
func sequential(start, n int) func() (int, bool) {
	var next atomic.Int64
	next.Store(int64(start))
	return func() (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < n
	}
}

// replayOrder hands out indices below pool in a seeded random order, forever.
func replayOrder(seed int64, pool int) func() (int, bool) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		return rng.Intn(pool), true
	}
}

// driver sends one workload's traffic at a server.
type driver struct {
	base   string
	w      *world
	next   func() (int, bool) // the next query to send
	tracer *tracer            // records one span per request when non-nil
}

// budget bounds a driven interval by wall clock (measured intervals) or by a
// number of requests shared between the clients (warm-ups). The zero budget
// is unbounded.
type budget struct {
	until time.Time     // zero = no deadline
	ops   *atomic.Int64 // nil = any number of requests
}

func (b budget) take() bool {
	if !b.until.IsZero() && !time.Now().Before(b.until) {
		return false
	}
	return b.ops == nil || b.ops.Add(-1) >= 0
}

func opsBudget(n int) budget {
	var ops atomic.Int64
	ops.Store(int64(n))
	return budget{ops: &ops}
}

// inferLoop runs n closed-loop clients on /infer: each sends the next query,
// waits for the whole reply, and sends again.
func (d *driver) inferLoop(n int, b budget, rec *phase) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for b.take() {
				qi, ok := d.next()
				if !ok {
					return
				}
				t0 := time.Now()
				code, body, err := post(hc, d.base+"/infer", d.w.queries[qi].body)
				t1 := time.Now()
				if err != nil || code != http.StatusOK {
					rec.fail(1)
					continue
				}
				d.tracer.add("http.infer", qi, t0, t1)
				rec.mu.Lock()
				rec.answered(t1.Sub(t0), len(body))
				rec.answers = append(rec.answers, answer{qi, body})
				rec.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// streamLoop runs n vehicles on /stream, each driving sessions back to back.
func (d *driver) streamLoop(n int, b budget, rec *phase) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for b.take() {
				qi, ok := d.next()
				if !ok {
					return
				}
				d.streamSession(hc, qi, b, rec)
			}
		}()
	}
	wg.Wait()
}

// streamSession drives one vehicle session in a closed loop: write a point,
// wait for its update line (that round trip is the update lag), repeat; then
// end the request body and read the final record. Every point and the final
// record count as one attempted operation each.
func (d *driver) streamSession(hc *http.Client, qi int, b budget, rec *phase) {
	q := d.w.queries[qi]
	expected := q.traj.Len() + 1
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, fmt.Sprintf("%s/stream?id=veh-%d", d.base, qi), pr)
	if err != nil {
		rec.fail(expected)
		return
	}
	resp, err := hc.Do(req)
	if err != nil {
		rec.fail(expected)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		rec.fail(expected)
		return
	}
	br := bufio.NewReader(resp.Body)
	done := 0
	for i, pt := range q.traj.Points {
		if i > 0 {
			b.take() // points after the first draw down a warm-up's budget too
		}
		t0 := time.Now()
		if _, err := fmt.Fprintf(pw, "[%g,%g,%g]\n", pt.Pt.X, pt.Pt.Y, pt.T); err != nil {
			break
		}
		line, err := br.ReadBytes('\n')
		t1 := time.Now()
		// An update line that is a final record, or is flagged degraded,
		// means the server cut the session short.
		if err != nil || bytes.HasPrefix(line, []byte(`{"final"`)) || bytes.Contains(line, []byte(`"degraded":true`)) {
			break
		}
		d.tracer.add("http.stream.push", qi, t0, t1)
		rec.mu.Lock()
		rec.answered(t1.Sub(t0), len(line))
		rec.mu.Unlock()
		done++
	}
	if done < q.traj.Len() {
		rec.fail(expected - done)
		return
	}
	pw.Close()
	final, err := br.ReadBytes('\n')
	if err != nil {
		rec.fail(1)
		return
	}
	rec.mu.Lock()
	rec.attempted++
	rec.answers = append(rec.answers, answer{qi, final})
	rec.mu.Unlock()
}

// ingestLoop is the open-loop writer: batch i is due at start + i*period
// whatever happened to the batches before it, and its latency is counted from
// that due time, so a stall delays (and is charged to) every batch behind it.
func (d *driver) ingestLoop(b budget, rec *phase) {
	hc := newClient()
	defer hc.CloseIdleConnections()
	start := time.Now()
	for i, body := range d.w.batches {
		due := start.Add(time.Duration(i) * ingestPeriod)
		if !due.Before(b.until) {
			return
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		code, resp, err := post(hc, d.base+"/ingest", body)
		acked := time.Now()
		var r struct {
			Admitted struct {
				Epoch      uint64 `json:"epoch"`
				Durability string `json:"durability"`
			} `json:"admitted"`
		}
		if err != nil || code != http.StatusOK || json.Unmarshal(resp, &r) != nil || r.Admitted.Durability != "synced" {
			rec.fail(1)
			continue
		}
		d.tracer.add("http.ingest", i, sent, acked)
		rec.mu.Lock()
		rec.attempted++
		rec.ops++
		rec.ack = append(rec.ack, ms(acked.Sub(due)))
		rec.late = append(rec.late, ms(sent.Sub(due)))
		if r.Admitted.Epoch > rec.maxEpoch {
			rec.maxEpoch = r.Admitted.Epoch
		}
		rec.mu.Unlock()
	}
}

// drive sends the workload's traffic until the budget ends. Warm-ups (budgets
// bounded by requests) carry reads only: the ingest schedule of ingest-mix
// belongs to the measured interval.
func (d *driver) drive(workload string, b budget, rec *phase) {
	t0 := time.Now()
	switch workload {
	case "infer-fresh", "infer-replay":
		d.inferLoop(clients, b, rec)
	case "stream-fleet":
		d.streamLoop(clients, b, rec)
	case "ingest-mix":
		var wg sync.WaitGroup
		if b.ops == nil {
			wg.Add(1)
			go func() { defer wg.Done(); d.ingestLoop(b, rec) }()
		}
		d.inferLoop(1, b, rec)
		wg.Wait()
	}
	rec.elapsed = time.Since(t0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
