// Package rtree implements an R-tree spatial index with STR (Sort-Tile-
// Recursive) bulk loading, quadratic-split dynamic insertion, rectangular
// range search, and best-first incremental nearest-neighbor search.
//
// The paper's preprocessing component (§II-B.1 "Indexing") organizes all
// archive GPS points in an R-tree; the reference-trajectory search issues
// radius-φ range queries against it, and the NNI algorithm consumes a
// stream of "next nearest neighbors" (Algorithm 2, line 8), which the
// NearestIter type provides without materializing the full ordering.
package rtree

import (
	"sort"

	"repro/internal/geo"
)

const (
	maxEntries = 16
	minEntries = maxEntries * 2 / 5
)

// Entry is one indexed item: a bounding box and an opaque payload.
type Entry[T any] struct {
	Box  geo.BBox
	Item T
}

type node[T any] struct {
	box      geo.BBox
	leaf     bool
	entries  []Entry[T] // leaf payloads (leaf nodes only)
	children []*node[T] // child nodes (internal nodes only)
}

// Tree is an R-tree over payloads of type T.
type Tree[T any] struct {
	root *node[T]
	size int
}

// New returns an empty tree.
func New[T any]() *Tree[T] {
	return &Tree[T]{root: &node[T]{leaf: true, box: geo.EmptyBBox()}}
}

// Bulk builds a tree from entries using the STR packing algorithm. The input
// slice is reordered in place.
func Bulk[T any](entries []Entry[T]) *Tree[T] {
	t := &Tree[T]{size: len(entries)}
	if len(entries) == 0 {
		t.root = &node[T]{leaf: true, box: geo.EmptyBBox()}
		return t
	}
	leaves := strPack(entries)
	t.root = buildUp(leaves)
	return t
}

// strPack tiles entries into leaf nodes: sort by X, cut into vertical slices
// of ~sqrt(n/M) each, sort each slice by Y, pack runs of maxEntries.
func strPack[T any](entries []Entry[T]) []*node[T] {
	n := len(entries)
	leafCount := (n + maxEntries - 1) / maxEntries
	sliceCount := isqrtCeil(leafCount)
	sliceSize := ((n + sliceCount - 1) / sliceCount)
	// Round slice size up to a multiple of maxEntries so slices pack fully.
	if rem := sliceSize % maxEntries; rem != 0 {
		sliceSize += maxEntries - rem
	}
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Box.Center().X < entries[j].Box.Center().X
	})
	var leaves []*node[T]
	for lo := 0; lo < n; lo += sliceSize {
		hi := lo + sliceSize
		if hi > n {
			hi = n
		}
		slice := entries[lo:hi]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Box.Center().Y < slice[j].Box.Center().Y
		})
		for s := 0; s < len(slice); s += maxEntries {
			e := s + maxEntries
			if e > len(slice) {
				e = len(slice)
			}
			leaf := &node[T]{leaf: true, entries: append([]Entry[T](nil), slice[s:e]...)}
			leaf.recomputeBox()
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// buildUp packs a level of nodes into parents until a single root remains.
func buildUp[T any](level []*node[T]) *node[T] {
	for len(level) > 1 {
		sort.Slice(level, func(i, j int) bool {
			ci, cj := level[i].box.Center(), level[j].box.Center()
			if ci.X != cj.X {
				return ci.X < cj.X
			}
			return ci.Y < cj.Y
		})
		var parents []*node[T]
		for lo := 0; lo < len(level); lo += maxEntries {
			hi := lo + maxEntries
			if hi > len(level) {
				hi = len(level)
			}
			p := &node[T]{children: append([]*node[T](nil), level[lo:hi]...)}
			p.recomputeBox()
			parents = append(parents, p)
		}
		level = parents
	}
	return level[0]
}

func isqrtCeil(n int) int {
	if n <= 1 {
		return 1
	}
	s := 1
	for s*s < n {
		s++
	}
	return s
}

func (nd *node[T]) recomputeBox() {
	b := geo.EmptyBBox()
	if nd.leaf {
		for _, e := range nd.entries {
			b = b.Extend(e.Box)
		}
	} else {
		for _, c := range nd.children {
			b = b.Extend(c.box)
		}
	}
	nd.box = b
}

// Len returns the number of indexed entries.
func (t *Tree[T]) Len() int { return t.size }

// Insert adds an entry to the tree.
func (t *Tree[T]) Insert(box geo.BBox, item T) {
	t.size++
	n1, n2 := t.insert(t.root, Entry[T]{Box: box, Item: item})
	if n2 != nil {
		t.root = &node[T]{children: []*node[T]{n1, n2}}
		t.root.recomputeBox()
	}
}

// insert descends to the best leaf, splitting on overflow. It returns the
// (possibly replaced) node and a second node if nd was split.
func (t *Tree[T]) insert(nd *node[T], e Entry[T]) (*node[T], *node[T]) {
	if nd.leaf {
		nd.entries = append(nd.entries, e)
		nd.box = nd.box.Extend(e.Box)
		if len(nd.entries) > maxEntries {
			return splitLeaf(nd)
		}
		return nd, nil
	}
	best := chooseSubtree(nd.children, e.Box)
	c1, c2 := t.insert(nd.children[best], e)
	nd.children[best] = c1
	if c2 != nil {
		nd.children = append(nd.children, c2)
	}
	nd.box = nd.box.Extend(e.Box)
	if len(nd.children) > maxEntries {
		return splitInternal(nd)
	}
	return nd, nil
}

func chooseSubtree[T any](children []*node[T], box geo.BBox) int {
	best, bestEnl, bestArea := 0, 0.0, 0.0
	for i, c := range children {
		enl := c.box.EnlargementNeeded(box)
		area := c.box.Area()
		if i == 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// splitLeaf performs a quadratic split of an overflowing leaf.
func splitLeaf[T any](nd *node[T]) (*node[T], *node[T]) {
	seedA, seedB := pickSeeds(len(nd.entries), func(i int) geo.BBox { return nd.entries[i].Box })
	a := &node[T]{leaf: true, entries: []Entry[T]{nd.entries[seedA]}}
	b := &node[T]{leaf: true, entries: []Entry[T]{nd.entries[seedB]}}
	a.box, b.box = nd.entries[seedA].Box, nd.entries[seedB].Box
	for i, e := range nd.entries {
		if i == seedA || i == seedB {
			continue
		}
		assignEntry(a, b, e)
	}
	return a, b
}

func assignEntry[T any](a, b *node[T], e Entry[T]) {
	// Honor minimum fill first.
	remainForA := maxEntries + 1 - len(a.entries) - len(b.entries)
	switch {
	case len(a.entries)+remainForA <= minEntries:
		a.entries = append(a.entries, e)
		a.box = a.box.Extend(e.Box)
		return
	case len(b.entries)+remainForA <= minEntries:
		b.entries = append(b.entries, e)
		b.box = b.box.Extend(e.Box)
		return
	}
	da := a.box.EnlargementNeeded(e.Box)
	db := b.box.EnlargementNeeded(e.Box)
	if da < db || (da == db && len(a.entries) <= len(b.entries)) {
		a.entries = append(a.entries, e)
		a.box = a.box.Extend(e.Box)
	} else {
		b.entries = append(b.entries, e)
		b.box = b.box.Extend(e.Box)
	}
}

func splitInternal[T any](nd *node[T]) (*node[T], *node[T]) {
	seedA, seedB := pickSeeds(len(nd.children), func(i int) geo.BBox { return nd.children[i].box })
	a := &node[T]{children: []*node[T]{nd.children[seedA]}, box: nd.children[seedA].box}
	b := &node[T]{children: []*node[T]{nd.children[seedB]}, box: nd.children[seedB].box}
	for i, c := range nd.children {
		if i == seedA || i == seedB {
			continue
		}
		// Honor minimum fill first (as assignEntry does for leaves): a side
		// that could not reach minEntries even with every remaining child
		// takes this one unconditionally.
		remain := maxEntries + 1 - len(a.children) - len(b.children)
		if len(a.children)+remain <= minEntries {
			a.children = append(a.children, c)
			a.box = a.box.Extend(c.box)
			continue
		}
		if len(b.children)+remain <= minEntries {
			b.children = append(b.children, c)
			b.box = b.box.Extend(c.box)
			continue
		}
		da := a.box.EnlargementNeeded(c.box)
		db := b.box.EnlargementNeeded(c.box)
		if da < db || (da == db && len(a.children) <= len(b.children)) {
			a.children = append(a.children, c)
			a.box = a.box.Extend(c.box)
		} else {
			b.children = append(b.children, c)
			b.box = b.box.Extend(c.box)
		}
	}
	return a, b
}

// pickSeeds returns the pair of boxes wasting the most area when joined.
func pickSeeds(n int, boxAt func(int) geo.BBox) (int, int) {
	sa, sb, worst := 0, 1, -1.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			bi, bj := boxAt(i), boxAt(j)
			waste := bi.Extend(bj).Area() - bi.Area() - bj.Area()
			if waste > worst {
				sa, sb, worst = i, j, waste
			}
		}
	}
	return sa, sb
}

// Visit calls fn for every entry whose box intersects query; fn returning
// false stops the traversal early.
func (t *Tree[T]) Visit(query geo.BBox, fn func(Entry[T]) bool) {
	visitNode(t.root, query, fn)
}

func visitNode[T any](nd *node[T], query geo.BBox, fn func(Entry[T]) bool) bool {
	if nd == nil || !nd.box.Intersects(query) {
		return true
	}
	if nd.leaf {
		for _, e := range nd.entries {
			if e.Box.Intersects(query) {
				if !fn(e) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range nd.children {
		if !visitNode(c, query, fn) {
			return false
		}
	}
	return true
}
