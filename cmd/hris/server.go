package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/hist"
	"repro/internal/traj"
)

// maxInferBody bounds one /infer request body. A query is a short
// low-sampling-rate trajectory — tens of points, three JSON numbers each —
// so 1 MiB is generous by orders of magnitude; without the bound one client
// could OOM the server with a giant points array (the /ingest surface got
// the same treatment in PR 5).
const maxInferBody = 1 << 20

// decodeOne decodes exactly one JSON value from r into v and requires only
// whitespace after it: json.Decoder.Decode alone stops at the end of the
// first value and would silently ignore a second one, or any junk.
func decodeOne(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return err
		}
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// errServerShutdown is the cancellation cause installed on in-flight /infer
// contexts when the process is shutting down, so the handler can tell "the
// server is going away" (503, retry elsewhere) apart from "the client went
// away" (408).
var errServerShutdown = errors.New("server shutting down")

// server carries the serving-path state of the debug HTTP endpoint: the
// engine behind its admission gate, the live store, the per-request default
// parameters and the process-lifetime context whose cancellation marks
// shutdown.
type server struct {
	eng    *core.Engine
	gate   *core.Gate
	st     *hist.Store
	params core.Params
	root   context.Context
	// streamIngest feeds each finalized /stream trajectory back into the
	// live archive; drainGrace bounds the per-stream finalize window during
	// shutdown (must stay inside main's Shutdown timeout).
	streamIngest bool
	drainGrace   time.Duration
	limits       streamLimits
	sm           sessionMetrics

	// streamMu guards streams, the vehicle ids of the open /stream
	// sessions; its size is the admission count.
	streamMu sync.Mutex
	streams  map[string]struct{}
}

// mux assembles the debug/serving routes: /metrics (JSON snapshot),
// /debug/vars (expvar), /debug/pprof, POST /infer (gated, context-aware
// inference) and POST /ingest (live trip admission).
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		snap := s.eng.Metrics()
		// session.active is a point-in-time gauge, not a registry counter:
		// fold the open-stream count into the snapshot here.
		if snap.Counters != nil {
			s.streamMu.Lock()
			snap.Counters["session.active"] = uint64(len(s.streams))
			s.streamMu.Unlock()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/infer", s.handleInfer)
	mux.HandleFunc("/stream", s.handleStream)
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		ingestHandler(w, r, s.st)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleInfer serves one inference request through the admission gate.
//
// Request: {"points": [[x, y, t], ...], "deadline_ms": 100} — deadline_ms
// optionally overrides the server's -deadline for this request; the budget
// starts at admission, so queue wait consumes it.
//
// Status mapping:
//
//	200 routes (the "degraded" field marks a best-effort deadline answer)
//	400 malformed body          413 body over 1 MiB
//	405 not a POST              422 inference failed (e.g. no routes)
//	429 admission queue full — back off and retry
//	503 shed (deadline would expire before inference starts) or the
//	    server is shutting down
//	504 the request's own incoming deadline lapsed before serving
//	408 the client went away mid-inference
func (s *server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, `POST a query JSON: {"points": [[x, y, t], ...]}`, http.StatusMethodNotAllowed)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxInferBody)
	var qj queryJSON
	if err := decodeOne(body, &qj); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "bad query: "+err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad query: "+err.Error(), http.StatusBadRequest)
		return
	}
	q := &traj.Trajectory{ID: "http-query"}
	for _, p := range qj.Points {
		q.Points = append(q.Points, traj.GPSPoint{Pt: geo.Pt(p[0], p[1]), T: p[2]})
	}
	p := s.params
	if qj.DeadlineMS > 0 {
		p.Deadline = time.Duration(qj.DeadlineMS) * time.Millisecond
	}
	// The inference context dies with the client (r.Context()) or with the
	// process: a shutdown cancels it with errServerShutdown as the cause, so
	// the error mapping below can answer 503 instead of blaming the client.
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	if s.root != nil {
		stop := context.AfterFunc(s.root, func() { cancel(errServerShutdown) })
		defer stop()
	}
	res, err := s.gate.Do(ctx, q, p)
	if err != nil {
		http.Error(w, err.Error(), inferErrStatus(ctx, err))
		return
	}
	resp := struct {
		Routes   []routeJSON `json:"routes"`
		Degraded bool        `json:"degraded"`
	}{Degraded: res.Degraded}
	for _, gr := range res.Routes {
		resp.Routes = append(resp.Routes, routeJSON{Segments: gr.Route, Score: gr.Score})
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("/infer: encode response: %v", err)
	}
}

// inferErrStatus maps a gate/inference error to its HTTP status. ctx is the
// per-request inference context whose cancellation cause distinguishes a
// vanished client from a shutting-down server — before this mapping every
// context.Canceled was answered 408 "client went away", which blamed the
// client for the server's own shutdown, and a request-scoped deadline fell
// through to a misleading 422.
func inferErrStatus(ctx context.Context, err error) int {
	cause := context.Cause(ctx)
	switch {
	case errors.Is(err, core.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrShedExpired):
		return http.StatusServiceUnavailable
	case errors.Is(err, errServerShutdown), errors.Is(cause, errServerShutdown):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(cause, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout // client went away mid-inference
	default:
		return http.StatusUnprocessableEntity
	}
}

// serveDebug starts the HTTP server on addr. A bind failure is logged and
// nil is returned — the CLI run still proceeds without the server. The
// returned server has bounded read/write timeouts and is shut down
// gracefully by main on SIGINT/SIGTERM.
func serveDebug(addr string, s *server) *http.Server {
	expvar.Publish("hris", expvar.Func(func() any { return s.eng.Metrics() }))
	srv := &http.Server{
		Addr:    addr,
		Handler: s.mux(),
		// /debug/pprof/profile and /trace stream for up to their "seconds"
		// parameter, so the write timeout leaves them headroom.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("debug server: %v; continuing without it", err)
		return nil
	}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("debug server: %v", err)
		}
	}()
	log.Printf("debug server listening on %s", ln.Addr())
	return srv
}
