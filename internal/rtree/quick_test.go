package rtree

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

// clamp maps arbitrary float64s into a sane coordinate range.
func clamp(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e5)
}

// TestQuickRangeQueryEquivalence: for arbitrary point sets and query boxes,
// the R-tree range query equals a linear scan.
func TestQuickRangeQueryEquivalence(t *testing.T) {
	f := func(coords []float64, cx, cy, r float64) bool {
		pts := make([]geo.Point, 0, len(coords)/2)
		for i := 0; i+1 < len(coords); i += 2 {
			pts = append(pts, geo.Pt(clamp(coords[i]), clamp(coords[i+1])))
		}
		tr := Bulk(pointEntries(pts))
		q := geo.BBoxAround(geo.Pt(clamp(cx), clamp(cy)), math.Abs(clamp(r)))
		var want []int
		for i, p := range pts {
			if q.Contains(p) {
				want = append(want, i)
			}
		}
		sort.Ints(want)
		got := sortedItems(search(tr, q))
		return equalInts(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickInsertDeleteInvariant: inserting then deleting arbitrary points
// restores the original cardinality, and the survivors stay queryable.
func TestQuickInsertDeleteInvariant(t *testing.T) {
	f := func(coords []float64) bool {
		tr := New[int]()
		pts := make([]geo.Point, 0, len(coords)/2)
		for i := 0; i+1 < len(coords); i += 2 {
			p := geo.Pt(clamp(coords[i]), clamp(coords[i+1]))
			pts = append(pts, p)
			tr.Insert(geo.BBox{Min: p, Max: p}, len(pts)-1)
		}
		// Delete the even-indexed entries.
		for i := 0; i < len(pts); i += 2 {
			id := i
			if !tr.Delete(geo.BBox{Min: pts[i], Max: pts[i]}, func(x int) bool { return x == id }) {
				return false
			}
		}
		if tr.Len() != len(pts)/2 {
			return false
		}
		// Every odd-indexed entry remains findable.
		for i := 1; i < len(pts); i += 2 {
			found := false
			for _, e := range search(tr, geo.BBox{Min: pts[i], Max: pts[i]}) {
				if e.Item == i {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickNearestOrdering: the nearest-neighbor stream is sorted for
// arbitrary inputs.
func TestQuickNearestOrdering(t *testing.T) {
	f := func(coords []float64, qx, qy float64) bool {
		pts := make([]geo.Point, 0, len(coords)/2)
		for i := 0; i+1 < len(coords); i += 2 {
			pts = append(pts, geo.Pt(clamp(coords[i]), clamp(coords[i+1])))
		}
		tr := Bulk(pointEntries(pts))
		it := tr.NearestInto(geo.Pt(clamp(qx), clamp(qy)), &NearestIter[int]{})
		last := -1.0
		count := 0
		for {
			_, d, ok := it.Next()
			if !ok {
				break
			}
			if d < last-1e-9 {
				return false
			}
			last = d
			count++
		}
		return count == len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
