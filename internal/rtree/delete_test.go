package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
)

func TestDeleteSingle(t *testing.T) {
	pts := randomPoints(200, 31)
	tr := Bulk(pointEntries(pts))
	p := pts[77]
	if !tr.Delete(geo.BBox{Min: p, Max: p}, func(id int) bool { return id == 77 }) {
		t.Fatal("Delete failed to find the entry")
	}
	if tr.Len() != 199 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for _, e := range search(tr, geo.BBoxAround(p, 1)) {
		if e.Item == 77 {
			t.Fatal("deleted entry still found")
		}
	}
	// Deleting again fails.
	if tr.Delete(geo.BBox{Min: p, Max: p}, func(id int) bool { return id == 77 }) {
		t.Fatal("double delete succeeded")
	}
}

// TestDeleteMany removes half the entries and cross-checks remaining range
// queries against brute force.
func TestDeleteMany(t *testing.T) {
	pts := randomPoints(1000, 33)
	tr := Bulk(pointEntries(pts))
	deleted := make(map[int]bool)
	rng := rand.New(rand.NewSource(34))
	for len(deleted) < 500 {
		id := rng.Intn(len(pts))
		if deleted[id] {
			continue
		}
		p := pts[id]
		if !tr.Delete(geo.BBox{Min: p, Max: p}, func(x int) bool { return x == id }) {
			t.Fatalf("Delete(%d) failed", id)
		}
		deleted[id] = true
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	checkNode(t, tr.root, true)
	for trial := 0; trial < 30; trial++ {
		q := geo.BBoxAround(geo.Pt(rng.Float64()*10000, rng.Float64()*10000), rng.Float64()*2000)
		var want []int
		for i, p := range pts {
			if !deleted[i] && q.Contains(p) {
				want = append(want, i)
			}
		}
		sort.Ints(want)
		got := sortedItems(search(tr, q))
		if !equalInts(got, want) {
			t.Fatalf("post-delete search mismatch: %d vs %d", len(got), len(want))
		}
	}
}

func TestDeleteAllThenReuse(t *testing.T) {
	pts := randomPoints(100, 35)
	tr := Bulk(pointEntries(pts))
	for i, p := range pts {
		id := i
		if !tr.Delete(geo.BBox{Min: p, Max: p}, func(x int) bool { return x == id }) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	// The tree is reusable.
	tr.Insert(geo.BBox{Min: geo.Pt(1, 1), Max: geo.Pt(1, 1)}, 999)
	got := search(tr, geo.BBoxAround(geo.Pt(1, 1), 1))
	if len(got) != 1 || got[0].Item != 999 {
		t.Fatalf("reuse after full deletion failed: %v", got)
	}
}

// TestDeleteToSingleLeaf shrinks a multi-level tree until fewer entries
// remain than two minimum-fanout leaves could hold; condensation must
// collapse the structure back to a single leaf root while every survivor
// stays findable.
func TestDeleteToSingleLeaf(t *testing.T) {
	pts := randomPoints(600, 51)
	tr := Bulk(pointEntries(pts))
	if height(tr) < 2 {
		t.Fatalf("fixture too small: height %d", height(tr))
	}
	keep := 2*minEntries - 1
	rng := rand.New(rand.NewSource(52))
	order := rng.Perm(len(pts))
	for _, id := range order[:len(pts)-keep] {
		p := pts[id]
		want := id
		if !tr.Delete(geo.BBox{Min: p, Max: p}, func(x int) bool { return x == want }) {
			t.Fatalf("Delete(%d) failed", id)
		}
	}
	if tr.Len() != keep {
		t.Fatalf("Len = %d, want %d", tr.Len(), keep)
	}
	if h := height(tr); h != 1 {
		t.Fatalf("tree height %d after shrinking below one node's fanout, want 1", h)
	}
	checkNode(t, tr.root, true)
	var survivors []int
	for _, id := range order[len(pts)-keep:] {
		survivors = append(survivors, id)
	}
	sort.Ints(survivors)
	got := sortedItems(search(tr, tr.root.box))
	if !equalInts(got, survivors) {
		t.Fatalf("survivors %v, want %v", got, survivors)
	}
}

// TestDeleteThenReinsert mass-deletes most of the tree, reinserts the same
// entries one by one, and cross-checks range queries against brute force —
// the condense/reinsert path must leave a tree that later Inserts keep valid.
func TestDeleteThenReinsert(t *testing.T) {
	pts := randomPoints(800, 53)
	tr := Bulk(pointEntries(pts))
	rng := rand.New(rand.NewSource(54))
	order := rng.Perm(len(pts))
	victims := order[:700]
	for _, id := range victims {
		p := pts[id]
		want := id
		if !tr.Delete(geo.BBox{Min: p, Max: p}, func(x int) bool { return x == want }) {
			t.Fatalf("Delete(%d) failed", id)
		}
	}
	checkNode(t, tr.root, true)
	for _, id := range victims {
		p := pts[id]
		tr.Insert(geo.BBox{Min: p, Max: p}, id)
	}
	if tr.Len() != len(pts) {
		t.Fatalf("Len = %d after reinsertion, want %d", tr.Len(), len(pts))
	}
	checkNode(t, tr.root, true)
	for trial := 0; trial < 30; trial++ {
		q := geo.BBoxAround(geo.Pt(rng.Float64()*10000, rng.Float64()*10000), rng.Float64()*2000)
		var want []int
		for i, p := range pts {
			if q.Contains(p) {
				want = append(want, i)
			}
		}
		sort.Ints(want)
		got := sortedItems(search(tr, q))
		if !equalInts(got, want) {
			t.Fatalf("post-reinsert search mismatch: %d vs %d", len(got), len(want))
		}
	}
}

func TestDeleteKNNConsistency(t *testing.T) {
	pts := randomPoints(300, 37)
	tr := Bulk(pointEntries(pts))
	// Delete the nearest neighbor of the center repeatedly; each kNN query
	// must then return the next one.
	center := geo.Pt(5000, 5000)
	type pd struct {
		id int
		d  float64
	}
	all := make([]pd, len(pts))
	for i, p := range pts {
		all[i] = pd{i, p.Dist(center)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
	for k := 0; k < 10; k++ {
		nn := tr.KNN(center, 1)
		if len(nn) != 1 || nn[0].Item != all[k].id {
			t.Fatalf("round %d: nearest = %v, want %d", k, nn, all[k].id)
		}
		p := pts[all[k].id]
		id := all[k].id
		if !tr.Delete(geo.BBox{Min: p, Max: p}, func(x int) bool { return x == id }) {
			t.Fatalf("delete round %d failed", k)
		}
	}
}
