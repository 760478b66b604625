package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one pipeline-stage occurrence inside a traced query: which stage,
// which query pair (-1 for whole-query stages such as K-GRI), when it
// started relative to the trace start, how long it ran, and how many items
// it handled (references found, candidate points assembled, routes
// produced — whatever the stage counts).
type Span struct {
	Stage string        `json:"stage"`
	Pair  int           `json:"pair"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	N     int           `json:"n"`
}

// Trace is the per-query record an inference call fills when its context
// carries one (WithTrace): one span per pipeline-stage occurrence. Spans are
// appended concurrently by the per-pair workers; Finish freezes the trace
// and sorts spans by start time.
// All methods are nil-safe no-ops on a nil receiver.
type Trace struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
	total time.Duration
}

// StartTrace begins a trace; its spans' Start offsets are relative to now.
func StartTrace() *Trace { return &Trace{t0: time.Now()} }

type traceKey struct{}

// WithTrace returns a context that carries t: any inference run under it
// records its stage spans into t. The caller starts the trace, and calls
// Finish once the inference has returned.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace ctx carries, nil when it carries none.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// Add records one span. t0 is the stage's wall-clock start.
func (t *Trace) Add(stage string, pair int, t0 time.Time, d time.Duration, n int) {
	if t == nil {
		return
	}
	sp := Span{Stage: stage, Pair: pair, Start: t0.Sub(t.t0), Dur: d, N: n}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Finish stamps the total duration and orders spans by start time (ties by
// pair, then stage) for a deterministic, readable timeline.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total = time.Since(t.t0)
	sort.Slice(t.spans, func(i, j int) bool {
		a, b := t.spans[i], t.spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Pair != b.Pair {
			return a.Pair < b.Pair
		}
		return a.Stage < b.Stage
	})
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Total returns the traced query's wall-clock duration (set by Finish).
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// WriteText renders the trace as one line per span plus a total line.
func (t *Trace) WriteText(w io.Writer) {
	if t == nil {
		return
	}
	for _, sp := range t.Spans() {
		pair := fmt.Sprintf("%d", sp.Pair)
		if sp.Pair < 0 {
			pair = "-"
		}
		fmt.Fprintf(w, "%10s  pair %-4s %-20s %10s  n=%d\n",
			fmtDur(sp.Start), pair, sp.Stage, fmtDur(sp.Dur), sp.N)
	}
	fmt.Fprintf(w, "%10s  total\n", fmtDur(t.Total()))
}
