package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
)

// TestKNNMatchesBruteForce checks the best-first kNN ordering against a full
// sort for random queries and k values.
func TestKNNMatchesBruteForce(t *testing.T) {
	pts := randomPoints(1500, 21)
	tr := Bulk(pointEntries(pts))
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 50; trial++ {
		q := geo.Pt(rng.Float64()*12000-1000, rng.Float64()*12000-1000)
		k := 1 + rng.Intn(30)
		got := tr.KNN(q, k)
		type pd struct {
			id int
			d  float64
		}
		all := make([]pd, len(pts))
		for i, p := range pts {
			all[i] = pd{i, p.Dist(q)}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
		if len(got) != k {
			t.Fatalf("KNN returned %d, want %d", len(got), k)
		}
		for i, e := range got {
			// Compare distances (ties can reorder ids).
			if d := pts[e.Item].Dist(q); !feq(d, all[i].d) {
				t.Fatalf("kNN rank %d: dist %v, want %v", i, d, all[i].d)
			}
		}
	}
}

func feq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestNearestIterMonotone verifies the stream is nondecreasing in distance
// and exhausts all entries exactly once.
func TestNearestIterMonotone(t *testing.T) {
	pts := randomPoints(800, 23)
	tr := Bulk(pointEntries(pts))
	it := tr.NearestInto(geo.Pt(5000, 5000), &NearestIter[int]{})
	seen := make(map[int]bool)
	last := -1.0
	for {
		e, d, ok := it.Next()
		if !ok {
			break
		}
		if d < last {
			t.Fatalf("distance decreased: %v after %v", d, last)
		}
		last = d
		if seen[e.Item] {
			t.Fatalf("item %d returned twice", e.Item)
		}
		seen[e.Item] = true
	}
	if len(seen) != len(pts) {
		t.Fatalf("iterator returned %d of %d entries", len(seen), len(pts))
	}
}

func TestKNNMoreThanAvailable(t *testing.T) {
	pts := randomPoints(5, 24)
	tr := Bulk(pointEntries(pts))
	if got := tr.KNN(geo.Pt(0, 0), 50); len(got) != 5 {
		t.Errorf("KNN(50) on 5 points returned %d", len(got))
	}
}

func BenchmarkKNN(b *testing.B) {
	pts := randomPoints(50000, 3)
	tr := Bulk(pointEntries(pts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.KNN(geo.Pt(5000, 5000), 10)
	}
}

// TestKNNNonPositiveK guards the k <= 0 edge: a negative k used to panic in
// make([]Entry, 0, k); both 0 and negatives must return nil.
func TestKNNNonPositiveK(t *testing.T) {
	tr := Bulk(pointEntries(randomPoints(50, 29)))
	q := geo.Pt(100, 100)
	for _, k := range []int{0, -1, -100} {
		if got := tr.KNN(q, k); got != nil {
			t.Fatalf("KNN(k=%d) = %d entries, want nil", k, len(got))
		}
	}
}

// TestWithinRadiusNegative: a negative radius matches nothing (and must not
// build an inverted search box).
func TestWithinRadiusNegative(t *testing.T) {
	tr := Bulk(pointEntries(randomPoints(50, 31)))
	if got := tr.WithinRadius(geo.Pt(100, 100), -1); got != nil {
		t.Fatalf("WithinRadius(r=-1) = %d entries, want nil", len(got))
	}
	// r = 0 stays an exact point query, not an error.
	pts := randomPoints(5, 33)
	tr = Bulk(pointEntries(pts))
	if got := tr.WithinRadius(pts[0], 0); len(got) == 0 {
		t.Fatal("WithinRadius(exact point, 0) found nothing")
	}
}
