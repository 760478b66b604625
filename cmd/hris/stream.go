package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// maxStreamLine bounds one NDJSON point line on /stream — a point is three
// JSON numbers, so 64 KiB is far beyond any honest producer.
const maxStreamLine = 1 << 16

// streamUpdateJSON is one incremental answer on the /stream response: the
// session state after the point at Seq was absorbed.
type streamUpdateJSON struct {
	Seq         int           `json:"seq"`
	Pairs       int           `json:"pairs"`
	FirmPairs   int           `json:"firm_pairs"`
	Provisional roadnet.Route `json:"provisional,omitempty"`
	Score       float64       `json:"score,omitempty"`
	Degraded    bool          `json:"degraded,omitempty"`
}

// streamFinalJSON is the terminal /stream record: the finalized whole-trace
// routes (identical to what POST /infer would return for the same points), or
// the error that ended the session. Draining marks a server-shutdown
// finalize, Truncated a point-cap finalize; Ingested/Epoch report the
// optional finalize-to-ingest handoff.
type streamFinalJSON struct {
	Final     bool        `json:"final"`
	Routes    []routeJSON `json:"routes,omitempty"`
	Degraded  bool        `json:"degraded,omitempty"`
	Draining  bool        `json:"draining,omitempty"`
	Truncated bool        `json:"truncated,omitempty"`
	Ingested  bool        `json:"ingested,omitempty"`
	Epoch     uint64      `json:"epoch,omitempty"`
	Error     string      `json:"error,omitempty"`
}

type routeJSON struct {
	Segments roadnet.Route `json:"segments"`
	Score    float64       `json:"score"`
}

// streamSeq disambiguates anonymous /stream sessions.
var streamSeq atomic.Uint64

// streamLimits bounds the /stream sessions of one server. A count ≤ 0 means
// unlimited and an idle ≤ 0 means a silent stream is never closed.
type streamLimits struct {
	maxSessions int           // open sessions before 429
	maxPoints   int           // points per session before a truncated finalize
	idle        time.Duration // silence before a stream is closed
}

// sessionMetrics are the session.* instruments, resolved once from the
// engine's registry. The zero value records nothing.
type sessionMetrics struct {
	created, rejected, duplicate, evicted, finalized, aborted, points *obs.Counter
	step, finalize, lag                                               *obs.Histogram
}

func newSessionMetrics(reg *obs.Registry) sessionMetrics {
	return sessionMetrics{
		created:   reg.Counter(obs.CounterSessionCreated),
		rejected:  reg.Counter(obs.CounterSessionRejected),
		duplicate: reg.Counter(obs.CounterSessionDuplicate),
		evicted:   reg.Counter(obs.CounterSessionEvicted),
		finalized: reg.Counter(obs.CounterSessionFinalized),
		aborted:   reg.Counter(obs.CounterSessionAborted),
		points:    reg.Counter(obs.CounterSessionPoints),
		step:      reg.Histogram(obs.HistSessionStep),
		finalize:  reg.Histogram(obs.HistSessionFinalize),
		lag:       reg.Histogram(obs.HistSessionLag),
	}
}

// admitStream claims the vehicle id for a new stream, or returns the status
// that refuses it: 429 with maxSessions streams open, 409 when the id is
// already streaming. A claimed id must be given back with releaseStream.
func (s *server) admitStream(id string) (int, string) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	switch _, dup := s.streams[id]; {
	case s.limits.maxSessions > 0 && len(s.streams) >= s.limits.maxSessions:
		s.sm.rejected.Inc()
		return http.StatusTooManyRequests, "session limit reached"
	case dup:
		s.sm.duplicate.Inc()
		return http.StatusConflict, "session id already active"
	}
	if s.streams == nil {
		s.streams = make(map[string]struct{})
	}
	s.streams[id] = struct{}{}
	s.sm.created.Inc()
	return 0, ""
}

func (s *server) releaseStream(id string) {
	s.streamMu.Lock()
	delete(s.streams, id)
	s.streamMu.Unlock()
}

// streamLine is one read off the request body: a raw line or the reader's
// terminal error.
type streamLine struct {
	data []byte
	err  error
}

// handleStream serves one vehicle's live trajectory as a long-lived NDJSON
// exchange: POST /stream?id=VEH with one [x, y, t] point per request line;
// each line is answered (in order) with a streamUpdateJSON line, and the end
// of the request body finalizes the session into a streamFinalJSON line.
//
// Status mapping (before the stream starts; afterwards errors ride in-band):
//
//	405 not a POST
//	409 the vehicle id already has an active session
//	429 -max-sessions streams are open — back off and retry
//
// The handler owns its core.Session from open to final record: it enforces
// the point cap and the idle timeout itself, and gives the id and the slot
// back before it writes the final record, so a vehicle that reads its final
// record may reopen at once. A stream silent for -session-idle gets a final
// error record and its connection closes.
//
// Shutdown: when the process begins draining, every open stream finalizes
// what it has within drainGrace and answers a final record flagged
// "draining", so the server's graceful Shutdown window is honored and no
// accepted point is silently dropped.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	// rejectStream refuses the request before the stream starts. The body is
	// an open-ended NDJSON feed, so the response must mark the connection
	// closed: otherwise the server would drain the body before replying (to
	// reuse the connection) while the client waits for this very reply
	// before closing its send side — a mutual deadlock.
	rejectStream := func(msg string, code int) {
		w.Header().Set("Connection", "close")
		http.Error(w, msg, code)
	}
	if r.Method != http.MethodPost {
		rejectStream(`POST an NDJSON stream of [x, y, t] points; add ?id=VEHICLE to name the session`, http.StatusMethodNotAllowed)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		id = fmt.Sprintf("anon-%d", streamSeq.Add(1))
	}
	if code, msg := s.admitStream(id); code != 0 {
		rejectStream(msg, code)
		return
	}
	sess := s.eng.NewSession(s.params, core.SessionConfig{})
	// drop closes the session unfinalized and gives the id back, counting the
	// outcome; finish is the other way out. Exactly one of them runs.
	drop := func(outcome *obs.Counter) {
		sess.Close()
		s.releaseStream(id)
		outcome.Inc()
	}

	// A stream outlives the server's request read/write timeouts by design;
	// lift them for this connection and enable full-duplex so we can keep
	// reading points after the first response bytes are written.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	_ = rc.SetReadDeadline(time.Time{})
	_ = rc.SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Push the response headers now so a client driving the stream in a
	// strict write-then-read loop unblocks before the first point.
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()
	enc := json.NewEncoder(w)
	// wmu serializes response writes and the finalize-to-ingest handoff
	// against drain grace abandonment: once the grace expires the handler
	// returns, and nothing may touch the ResponseWriter (net/http forbids
	// writes after ServeHTTP returns) or the store (main closes it once
	// Shutdown unblocks) — a lagging finish goroutine flips to a no-op
	// under this lock instead.
	var wmu sync.Mutex
	abandoned := false
	writeRec := func(v any) bool {
		wmu.Lock()
		defer wmu.Unlock()
		if abandoned {
			return false
		}
		if err := enc.Encode(v); err != nil {
			return false
		}
		_ = rc.Flush()
		return true
	}

	// The body reader runs aside so the handler can race point arrival
	// against process shutdown. When the handler returns early the server
	// closes the body, the pending read fails, and the goroutine exits.
	lines := make(chan streamLine)
	go func() {
		br := bufio.NewReader(r.Body)
		for {
			data, err := readLine(br, maxStreamLine)
			select {
			case lines <- streamLine{data: data, err: err}:
			case <-r.Context().Done():
				return
			}
			if err != nil && err != errLineTooLong {
				return
			}
		}
	}()

	var pts []traj.GPSPoint
	finish := func(fin streamFinalJSON) {
		t0 := time.Now()
		res, err := sess.Finalize()
		s.releaseStream(id)
		if err != nil {
			s.sm.aborted.Inc()
			fin.Error = err.Error()
			writeRec(fin)
			return
		}
		s.sm.finalized.Inc()
		s.sm.finalize.ObserveSince(t0)
		fin.Degraded = res.Degraded
		for _, gr := range res.Routes {
			fin.Routes = append(fin.Routes, routeJSON{Segments: gr.Route, Score: gr.Score})
		}
		if s.streamIngest {
			wmu.Lock()
			if !abandoned {
				stats := s.st.Ingest(&traj.Trajectory{ID: "stream-" + id, Points: pts})
				if stats.Trips > 0 {
					fin.Ingested = true
					fin.Epoch = stats.Epoch
				}
			}
			wmu.Unlock()
		}
		writeRec(fin)
	}
	// The idle timer is re-armed lazily: a point only stamps last, and a
	// fire that finds the stream heard from within the idle window re-arms
	// for the remainder. Reset then always follows a receive from C, which
	// is safe under either timer-channel semantics.
	var idle *time.Timer
	var idleC <-chan time.Time // nil, and never ready, without a timeout
	last := time.Now()
	if s.limits.idle > 0 {
		idle = time.NewTimer(s.limits.idle)
		defer idle.Stop()
		idleC = idle.C
	}
	for {
		select {
		case <-r.Context().Done():
			// Client vanished (connection aborted); the reader goroutine may
			// have exited without delivering a final line, so this select arm
			// is the only guaranteed exit.
			drop(s.sm.aborted)
			return
		case <-s.root.Done():
			// Server draining: finalize what we have within the grace period
			// so srv.Shutdown's window is met. Finalize is synchronous CPU
			// work well under the grace on any real session; the timer only
			// caps how long we'd wait for it to start.
			done := make(chan struct{})
			go func() { finish(streamFinalJSON{Final: true, Draining: true}); close(done) }()
			select {
			case <-done:
			case <-time.After(s.drainGrace):
				// Abandon the stream: fail any in-flight response write so
				// the finish goroutine cannot sit on wmu, then mark it
				// abandoned so everything it would still do becomes a no-op.
				// The session is NOT dropped here — Finalize may be mid-run,
				// and finish hands the id back itself once it returns.
				_ = rc.SetWriteDeadline(time.Now())
				wmu.Lock()
				abandoned = true
				wmu.Unlock()
				log.Printf("/stream %s: drain grace %v expired mid-finalize", id, s.drainGrace)
			}
			return
		case <-idleC:
			if wait := s.limits.idle - time.Since(last); wait > 0 {
				idle.Reset(wait)
				continue
			}
			drop(s.sm.evicted)
			writeRec(streamFinalJSON{Final: true, Error: fmt.Sprintf("session closed: no point for %v", s.limits.idle)})
			return
		case ln := <-lines:
			if ln.err == errLineTooLong {
				drop(s.sm.aborted)
				writeRec(streamFinalJSON{Final: true, Error: "point line exceeds size limit"})
				return
			}
			if ln.err != nil {
				if ln.err == io.EOF && len(bytes.TrimSpace(ln.data)) == 0 {
					finish(streamFinalJSON{Final: true})
					return
				}
				if ln.err != io.EOF {
					// Client vanished mid-stream; nothing left to answer.
					drop(s.sm.aborted)
					return
				}
				// Unterminated final line: refuse the possibly-torn point but
				// finalize the accepted prefix.
				finish(streamFinalJSON{Final: true, Error: "dropped unterminated final line"})
				return
			}
			if len(bytes.TrimSpace(ln.data)) == 0 {
				continue
			}
			pt, err := traj.ParsePoint(ln.data)
			if err != nil {
				drop(s.sm.aborted)
				writeRec(streamFinalJSON{Final: true, Error: "bad point: " + err.Error()})
				return
			}
			if max := s.limits.maxPoints; max > 0 && sess.Points() >= max {
				// Point cap: finalize what fit; the client reopens for the
				// rest. The refused point is reported, not silently dropped.
				finish(streamFinalJSON{Final: true, Truncated: true})
				return
			}
			t0 := time.Now()
			upd, err := sess.Push(r.Context(), pt)
			if err != nil {
				// A pair with no routes, or the client gone (cancellation),
				// in which case the record goes nowhere.
				drop(s.sm.aborted)
				writeRec(streamFinalJSON{Final: true, Error: err.Error()})
				return
			}
			s.sm.points.Inc()
			s.sm.step.ObserveSince(t0)
			// Update lag, encoded 1µs per unfirmed pair (see obs.HistSessionLag).
			s.sm.lag.Observe(time.Duration(upd.Pairs-upd.FirmPairs) * time.Microsecond)
			pts = append(pts, pt)
			if !writeRec(streamUpdateJSON{
				Seq:         upd.Seq,
				Pairs:       upd.Pairs,
				FirmPairs:   upd.FirmPairs,
				Provisional: upd.Provisional,
				Score:       upd.Score,
				Degraded:    upd.Degraded,
			}) {
				drop(s.sm.aborted)
				return
			}
			last = time.Now()
		}
	}
}
