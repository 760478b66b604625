package graphalg

import (
	"math"
	"sync"
)

// searchScratch holds the per-search working arrays shared by Dijkstra and
// A* (KShortest keeps its own, version-stamped). The buffers come from a
// sync.Pool so that steady-state searches allocate only their results: the
// O(n) reset cost is the same initialisation loop the searches already paid
// when they allocated fresh arrays each call.
type searchScratch struct {
	dist   []float64
	prev   []int
	closed []bool
	h      pq
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// getScratch returns a scratch whose arrays are sized for an n-vertex
// graph and reset to the empty-search state.
func getScratch(n int) *searchScratch {
	s := scratchPool.Get().(*searchScratch)
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.prev = make([]int, n)
		s.closed = make([]bool, n)
	}
	s.dist = s.dist[:n]
	s.prev = s.prev[:n]
	s.closed = s.closed[:n]
	s.reset()
	return s
}

// reset restores the empty-search state so a scratch can be reused for
// several searches over the same graph (a distance table runs one per row).
func (s *searchScratch) reset() {
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.prev[i] = -1
		s.closed[i] = false
	}
	s.h = s.h[:0]
}

func putScratch(s *searchScratch) { scratchPool.Put(s) }
