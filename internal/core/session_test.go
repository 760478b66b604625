package core

import (
	"context"
	"errors"
	"testing"
)

// TestSessionLifecycle covers the session state machine edges: too few
// points, use after Finalize, use after Close, retry after outright
// cancellation.
func TestSessionLifecycle(t *testing.T) {
	w := newWorld(t, 40, 17)
	q := w.queries(t, 1)[0]

	s := w.eng.NewSession(w.p, SessionConfig{})
	if _, err := s.Finalize(); !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("empty Finalize: %v, want ErrEmptyQuery", err)
	}
	if _, err := s.Finalize(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("double Finalize: %v, want ErrSessionClosed", err)
	}
	if _, err := s.Push(context.Background(), q.Points[0]); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Push after Finalize: %v, want ErrSessionClosed", err)
	}

	s = w.eng.NewSession(w.p, SessionConfig{})
	s.Close()
	if _, err := s.Push(context.Background(), q.Points[0]); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Push after Close: %v, want ErrSessionClosed", err)
	}

	// A cancelled push does not consume the point; the same point retried on
	// a live context proceeds, and the finalized result still matches offline.
	s = w.eng.NewSession(w.p, SessionConfig{})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i, pt := range q.Points {
		if _, err := s.Push(cancelled, pt); !errors.Is(err, context.Canceled) {
			t.Fatalf("point %d on cancelled ctx: %v, want context.Canceled", i, err)
		}
		if _, err := s.Push(context.Background(), pt); err != nil {
			t.Fatalf("point %d retried: %v", i, err)
		}
	}
	got, err := s.Finalize()
	if err != nil {
		t.Fatalf("Finalize after retries: %v", err)
	}
	want, err := w.eng.InferRoutesCtx(context.Background(), q, w.p)
	if err != nil {
		t.Fatalf("offline: %v", err)
	}
	v := w.eng.src.Current()
	if encodeFull(v, got) != encodeFull(v, want) {
		t.Fatal("result after cancel-retry diverged from offline")
	}
	if s.Epoch() != v.Epoch() {
		t.Fatalf("session epoch %d, archive epoch %d", s.Epoch(), v.Epoch())
	}
}
