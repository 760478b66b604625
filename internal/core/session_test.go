package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/traj"
)

// pushAll drives a whole trajectory through a fresh session and finalizes,
// returning the updates alongside the terminal result.
func pushAll(t testing.TB, s *Session, q *traj.Trajectory) ([]SessionUpdate, *Result, error) {
	t.Helper()
	ctx := context.Background()
	var ups []SessionUpdate
	for _, pt := range q.Points {
		up, err := s.Push(ctx, pt)
		if err != nil {
			return ups, nil, err
		}
		ups = append(ups, up)
	}
	res, err := s.Finalize()
	return ups, res, err
}

// TestSessionMatchesOffline: for fixed seeds and every window size, feeding a
// query point-by-point through a Session and finalizing yields a Result
// byte-identical (routes, exact score bits, stats, locals) to InferRoutesCtx
// on the completed trace. The window must not affect the finalized result.
func TestSessionMatchesOffline(t *testing.T) {
	w, _, queries := poolWorlds(t, 60, 321)
	v := w.eng.src.Current()
	for _, window := range []int{1, 4, 8, 64} {
		for qi, q := range queries {
			want, err1 := w.eng.InferRoutesCtx(context.Background(), q, w.p)
			s := w.eng.NewSession(w.p, SessionConfig{Window: window})
			ups, got, err2 := pushAll(t, s, q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("window=%d query %d: errors diverge: %v vs %v", window, qi, err1, err2)
			}
			if err1 != nil {
				if err1.Error() != err2.Error() {
					t.Fatalf("window=%d query %d: error text diverges: %q vs %q", window, qi, err1, err2)
				}
				continue
			}
			if encodeFull(v, got) != encodeFull(v, want) {
				t.Fatalf("window=%d query %d: session result differs from offline:\n%s\nvs\n%s",
					window, qi, encodeFull(v, got), encodeFull(v, want))
			}
			if len(ups) != q.Len() {
				t.Fatalf("window=%d query %d: %d updates for %d points", window, qi, len(ups), q.Len())
			}
			firm := 0
			for i, up := range ups {
				if up.Seq != i {
					t.Fatalf("update %d: Seq = %d", i, up.Seq)
				}
				if up.Pairs != i {
					t.Fatalf("update %d: Pairs = %d, want %d", i, up.Pairs, i)
				}
				if up.FirmPairs < firm || up.FirmPairs > up.Pairs {
					t.Fatalf("update %d: FirmPairs = %d (prev %d, pairs %d): firm prefix must grow monotonically",
						i, up.FirmPairs, firm, up.Pairs)
				}
				firm = up.FirmPairs
				if i > 0 && len(up.Provisional) == 0 {
					t.Fatalf("update %d: empty provisional tail", i)
				}
			}
		}
	}
}

// TestQuickSessionMatchesOffline drives the session/offline equivalence with
// quick.Check inputs: arbitrary seeds pick fresh queries and window sizes and
// the two paths must agree exactly — on results and on errors.
func TestQuickSessionMatchesOffline(t *testing.T) {
	w := newWorld(t, 50, 77)
	v := w.eng.src.Current()
	f := func(seed int64, wraw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		qc, ok := w.ds.GenQuery(5000, 180, 15, w.cfg, rng)
		if !ok {
			return true
		}
		window := int(wraw%16) + 1
		want, err1 := w.eng.InferRoutesCtx(context.Background(), qc.Query, w.p)
		s := w.eng.NewSession(w.p, SessionConfig{Window: window})
		_, got, err2 := pushAll(t, s, qc.Query)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("seed %d window %d: errors diverge: %v vs %v", seed, window, err1, err2)
			return false
		}
		if err1 != nil {
			return err1.Error() == err2.Error()
		}
		return encodeFull(v, got) == encodeFull(v, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionConcurrentSharedEngine runs many sessions concurrently against
// one engine (shared caches, shared scratch pools) under -race, each checked
// byte-for-byte against the offline result computed up front.
func TestSessionConcurrentSharedEngine(t *testing.T) {
	w, _, queries := poolWorlds(t, 60, 99)
	v := w.eng.src.Current()
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := w.eng.InferRoutesCtx(context.Background(), q, w.p)
		if err != nil {
			t.Fatalf("offline query %d: %v", i, err)
		}
		want[i] = encodeFull(v, res)
	}
	const sessions = 16
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := queries[g%len(queries)]
			s := w.eng.NewSession(w.p, SessionConfig{Window: 1 + g%8})
			_, res, err := pushAll(t, s, q)
			if err != nil {
				errs <- err
				return
			}
			if encodeFull(v, res) != want[g%len(queries)] {
				errs <- errors.New("concurrent session result diverged from offline")
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSessionLifecycle covers the session state machine edges: too few
// points, use after Finalize, use after Close, retry after outright
// cancellation.
func TestSessionLifecycle(t *testing.T) {
	w, _, queries := poolWorlds(t, 40, 17)
	q := queries[0]

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
