package rtree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geo"
)

func randomPoints(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*10000, rng.Float64()*10000)
	}
	return pts
}

func pointEntries(pts []geo.Point) []Entry[int] {
	es := make([]Entry[int], len(pts))
	for i, p := range pts {
		es[i] = Entry[int]{Box: geo.BBox{Min: p, Max: p}, Item: i}
	}
	return es
}

func bruteRange(pts []geo.Point, q geo.BBox) []int {
	var ids []int
	for i, p := range pts {
		if q.Contains(p) {
			ids = append(ids, i)
		}
	}
	return ids
}

// search collects every entry Visit reports for q.
func search(tr *Tree[int], q geo.BBox) []Entry[int] {
	var out []Entry[int]
	tr.Visit(q, func(e Entry[int]) bool {
		out = append(out, e)
		return true
	})
	return out
}

// height is the number of levels in the tree (1 for a lone leaf).
func height(tr *Tree[int]) int {
	h, nd := 1, tr.root
	for !nd.leaf {
		h++
		nd = nd.children[0]
	}
	return h
}

func sortedItems(es []Entry[int]) []int {
	ids := make([]int, len(es))
	for i, e := range es {
		ids[i] = e.Item
	}
	sort.Ints(ids)
	return ids
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyTree(t *testing.T) {
	tr := Bulk[int](nil)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := search(tr, geo.BBox{Min: geo.Pt(0, 0), Max: geo.Pt(1, 1)}); len(got) != 0 {
		t.Errorf("Visit on empty tree = %v", got)
	}
}

// TestRangeMatchesBruteForce cross-checks the bulk-loaded tree against a
// linear scan on random boxes.
func TestRangeMatchesBruteForce(t *testing.T) {
	pts := randomPoints(2000, 42)
	tr := Bulk(pointEntries(pts))
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		c := geo.Pt(rng.Float64()*10000, rng.Float64()*10000)
		r := rng.Float64() * 2000
		q := geo.BBoxAround(c, r)
		want := bruteRange(pts, q)
		sort.Ints(want)
		if got := sortedItems(search(tr, q)); !equalInts(got, want) {
			t.Fatalf("Visit mismatch: got %d items, want %d", len(got), len(want))
		}
	}
}

// withinRadius is a radius query the way roadnet makes one: Visit over the
// query's bounding box plus the exact distance test.
func withinRadius(tr *Tree[int], pts []geo.Point, c geo.Point, r float64) []int {
	var ids []int
	tr.Visit(geo.BBoxAround(c, r), func(e Entry[int]) bool {
		if pts[e.Item].Dist(c) <= r {
			ids = append(ids, e.Item)
		}
		return true
	})
	sort.Ints(ids)
	return ids
}

func TestWithinRadiusMatchesBruteForce(t *testing.T) {
	pts := randomPoints(1000, 7)
	tr := Bulk(pointEntries(pts))
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		c := geo.Pt(rng.Float64()*10000, rng.Float64()*10000)
		r := rng.Float64() * 1500
		var want []int
		for i, p := range pts {
			if p.Dist(c) <= r {
				want = append(want, i)
			}
		}
		sort.Ints(want)
		got := withinRadius(tr, pts, c, r)
		if !equalInts(got, want) {
			t.Fatalf("WithinRadius mismatch: got %d want %d", len(got), len(want))
		}
	}
}

func TestVisitEarlyStop(t *testing.T) {
	pts := randomPoints(500, 9)
	tr := Bulk(pointEntries(pts))
	count := 0
	tr.Visit(geo.BBox{Min: geo.Pt(0, 0), Max: geo.Pt(10000, 10000)}, func(Entry[int]) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop visited %d entries", count)
	}
}

func TestTreeInvariants(t *testing.T) {
	pts := randomPoints(3000, 10)
	bulk := Bulk(pointEntries(pts))
	checkNode(t, bulk.root, true)
	if h := height(bulk); h < 2 || h > 6 {
		t.Errorf("suspicious bulk height %d for 3000 points", h)
	}
}

// checkNode verifies bounding-box containment and fanout bounds recursively.
func checkNode(t *testing.T, nd *node[int], isRoot bool) {
	t.Helper()
	if nd.leaf {
		if !isRoot && (len(nd.entries) < 1 || len(nd.entries) > maxEntries) {
			t.Fatalf("leaf fanout %d out of bounds", len(nd.entries))
		}
		for _, e := range nd.entries {
			if !nd.box.ContainsBox(e.Box) {
				t.Fatalf("leaf box does not contain entry box")
			}
		}
		return
	}
	if len(nd.children) < 2 || len(nd.children) > maxEntries {
		t.Fatalf("internal fanout %d out of bounds", len(nd.children))
	}
	for _, c := range nd.children {
		if !nd.box.ContainsBox(c.box) {
			t.Fatalf("parent box does not contain child box")
		}
		checkNode(t, c, false)
	}
}

func TestDuplicatePoints(t *testing.T) {
	p := geo.Pt(5, 5)
	pts := make([]geo.Point, 100)
	for i := range pts {
		pts[i] = p
	}
	tr := Bulk(pointEntries(pts))
	got := search(tr, geo.BBoxAround(p, 1))
	if len(got) != 100 {
		t.Errorf("duplicate search returned %d, want 100", len(got))
	}
}

// TestWithinRadiusNegative: a negative radius is an inverted box, which
// Visit meets with nothing; a zero radius stays an exact point query.
func TestWithinRadiusNegative(t *testing.T) {
	pts := randomPoints(50, 31)
	tr := Bulk(pointEntries(pts))
	if got := search(tr, geo.BBoxAround(pts[0], -1)); len(got) != 0 {
		t.Fatalf("Visit(r=-1) = %d entries, want none", len(got))
	}
	if got := withinRadius(tr, pts, pts[0], 0); !slices.Contains(got, 0) {
		t.Fatal("radius-0 query at an entry's own point missed it")
	}
}

func BenchmarkBulkLoad10k(b *testing.B) {
	pts := randomPoints(10000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bulk(pointEntries(pts))
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	pts := randomPoints(50000, 2)
	tr := Bulk(pointEntries(pts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(tr, geo.BBoxAround(geo.Pt(5000, 5000), 500))
	}
}
