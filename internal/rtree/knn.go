package rtree

import (
	"repro/internal/geo"
)

// NearestIter streams entries in nondecreasing order of distance from a
// query point using the classic best-first (Hjaltason–Samet) traversal.
// Distances are measured from the query point to the entry's bounding box,
// which is exact for point entries. The zero value is ready: NearestInto is
// the only way to start a traversal, and a caller that streams many queries
// keeps one iterator so its heap's backing array is reused.
type NearestIter[T any] struct {
	from geo.Point
	pq   nnHeap[T]
}

type nnItem[T any] struct {
	dist  float64
	node  *node[T] // non-nil for subtree items
	entry Entry[T] // valid when node is nil
}

// nnHeap is a binary min-heap on dist with hand-rolled sift operations:
// going through container/heap boxed every nnItem into an interface value,
// one allocation per push on NNI's hottest loop. The sift order — parent
// (i-1)/2, strictly-less comparisons, prefer the right child only when
// strictly smaller — mirrors container/heap's up/down exactly, so
// equal-distance items pop in the same order as before and every
// tie-dependent choice downstream is unchanged.
type nnHeap[T any] []nnItem[T]

func (h *nnHeap[T]) push(it nnItem[T]) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(s[i].dist < s[p].dist) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *nnHeap[T]) pop() nnItem[T] {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nnItem[T]{} // drop node/entry refs held past the slice length
	s = s[:n]
	*h = s
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].dist < s[c].dist {
			c = r
		}
		if !(s[c].dist < s[i].dist) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

// NearestInto primes it for a fresh traversal from p, reusing its heap's
// backing array, and returns it.
func (t *Tree[T]) NearestInto(p geo.Point, it *NearestIter[T]) *NearestIter[T] {
	it.from = p
	it.pq = it.pq[:0]
	if t.root != nil && !t.root.box.IsEmpty() {
		// A one-element heap needs no sift, so seed directly.
		it.pq = append(it.pq, nnItem[T]{dist: t.root.box.DistToPoint(p), node: t.root})
	}
	return it
}

// Next returns the next-closest entry and its distance. ok is false when the
// iterator is exhausted.
func (it *NearestIter[T]) Next() (e Entry[T], dist float64, ok bool) {
	for len(it.pq) > 0 {
		top := it.pq.pop()
		if top.node == nil {
			return top.entry, top.dist, true
		}
		nd := top.node
		if nd.leaf {
			for _, e := range nd.entries {
				it.pq.push(nnItem[T]{dist: e.Box.DistToPoint(it.from), entry: e})
			}
		} else {
			for _, c := range nd.children {
				it.pq.push(nnItem[T]{dist: c.box.DistToPoint(it.from), node: c})
			}
		}
	}
	return e, 0, false
}

// KNN returns the k entries closest to p, ordered by distance. k ≤ 0
// returns nil.
func (t *Tree[T]) KNN(p geo.Point, k int) []Entry[T] {
	if k <= 0 {
		return nil
	}
	it := t.NearestInto(p, &NearestIter[T]{})
	out := make([]Entry[T], 0, k)
	for len(out) < k {
		e, _, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
}

// WithinRadius returns all entries whose box lies within dist r of p,
// ordered arbitrarily. For point entries this is an exact radius query.
// r < 0 returns nil (no distance is negative; an inverted search box must
// not reach the tree walk).
func (t *Tree[T]) WithinRadius(p geo.Point, r float64) []Entry[T] {
	if r < 0 {
		return nil
	}
	var out []Entry[T]
	t.Visit(geo.BBoxAround(p, r), func(e Entry[T]) bool {
		if e.Box.DistToPoint(p) <= r {
			out = append(out, e)
		}
		return true
	})
	return out
}
