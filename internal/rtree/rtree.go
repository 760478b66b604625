// Package rtree implements a static R-tree: STR (Sort-Tile-Recursive) bulk
// loading and rectangular range search. It is the road network's edge index
// (roadnet.Graph.CandidateEdges: every segment whose bounding box meets a
// query box), built once when the graph is and never modified.
//
// The paper's preprocessing (§II-B.1 "Indexing") also puts the archive GPS
// points in an R-tree. Here they are in internal/hist's uniform cell grids:
// the only question asked of them — every point within φ of q, in any
// order — needs no tree (DESIGN.md §6b.10). The edge index stays a tree
// because CandidateEdges orders equal-distance twin edges by the order this
// tree's leaves visit them, and the golden digests record that order.
package rtree

import (
	"sort"

	"repro/internal/geo"
)

// maxEntries is the node fanout.
const maxEntries = 16

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
