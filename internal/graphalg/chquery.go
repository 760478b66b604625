package graphalg

import (
	"context"
	"math"
)

// chWS is the per-query workspace of a CH. All arrays are version-stamped
// so a fresh query costs two counter bumps, not O(n) clears; workspaces
// are pooled per CH and safe to hand out concurrently.
type chWS struct {
	distF, distB []float64
	prevF, prevB []int32 // arc id that settled the vertex, -1 at sources
	verF, verB   []uint32
	setF, setB   []uint32 // settle stamps (label finality, for biSearch)
	ver          uint32
	h, h2        pq // forward / backward frontier of the p2p query
	arcbuf       []int32
}

func (ch *CH) getWS() *chWS {
	if w, ok := ch.ws.Get().(*chWS); ok && w != nil {
		return w
	}
	n := ch.n
	return &chWS{
		distF: make([]float64, n), distB: make([]float64, n),
		prevF: make([]int32, n), prevB: make([]int32, n),
		verF: make([]uint32, n), verB: make([]uint32, n),
		setF: make([]uint32, n), setB: make([]uint32, n),
	}
}

func (ch *CH) putWS(w *chWS) { ch.ws.Put(w) }

// bump advances the version stamp, handling uint32 wraparound.
func (w *chWS) bump() {
	w.ver++
	if w.ver == 0 {
		clear(w.verF)
		clear(w.verB)
		clear(w.setF)
		clear(w.setB)
		w.ver = 1
	}
}

func (ch *CH) Dist(src, dst int) float64 {
	if src < 0 || src >= ch.n || dst < 0 || dst >= ch.n {
		return math.Inf(1)
	}
	w := ch.getWS()
	defer ch.putWS(w)
	meet := ch.biSearch(w, src, dst, nil)
	if meet < 0 {
		return math.Inf(1)
	}
	d, _ := ch.exactPath(w, int32(meet), nil)
	return d
}

func (ch *CH) PathToCtx(ctx context.Context, src, dst int) (Path, bool) {
	// The entry checkpoint makes pre-cancelled queries deterministic: CH
	// search cones are usually smaller than one stride of pops, so the
	// in-loop checkpoints alone might never fire.
	done := ctx.Done()
	if src < 0 || src >= ch.n || dst < 0 || dst >= ch.n || Stopped(done) {
		return Path{}, false
	}
	w := ch.getWS()
	defer ch.putWS(w)
	meet := ch.biSearch(w, src, dst, done)
	if meet < 0 {
		return Path{}, false
	}
	vs := []int{src}
	d, vs := ch.exactPath(w, int32(meet), vs)
	return Path{Vertices: vs, Weight: d}, true
}

// exactPath walks the two search trees through meet, unpacks every
// shortcut into its original arcs, and re-sums the weights left-to-right
// along the path. The query's own label (a sum of shortcut weights in
// meet-outward order) can differ from Dijkstra's in the last float64
// bits; the re-summed value is bit-identical to Dijkstra's label whenever
// both pick the same path — which they do whenever the shortest path is
// unique. When vs is non-nil the unpacked vertex sequence is appended.
func (ch *CH) exactPath(w *chWS, meet int32, vs []int) (float64, []int) {
	// shortcut-level chains: forward tree climbs meet→src (reversed),
	// backward tree walks meet→dst in path order already.
	buf := w.arcbuf[:0]
	for v := meet; w.prevF[v] >= 0; {
		a := w.prevF[v]
		buf = append(buf, a)
		v = ch.arcs[a].from
	}
	nf := len(buf)
	for i, j := 0, nf-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	for v := meet; w.prevB[v] >= 0; {
		a := w.prevB[v]
		buf = append(buf, a)
		v = ch.arcs[a].to
	}
	w.arcbuf = buf
	var d float64
	for _, id := range buf {
		d, vs = ch.unpackArc(id, d, vs)
	}
	return d, vs
}

// unpackArc recursively expands an arc into original arcs, accumulating
// their weights left-to-right onto d and, when vs is non-nil, appending
// the vertex sequence after the arc's from-vertex.
func (ch *CH) unpackArc(id int32, d float64, vs []int) (float64, []int) {
	a := ch.arcs[id]
	if a.a1 < 0 {
		if vs != nil {
			vs = append(vs, int(a.to))
		}
		return d + a.w, vs
	}
	d, vs = ch.unpackArc(a.a1, d, vs)
	return ch.unpackArc(a.a2, d, vs)
}

// biSearch runs the two upward searches, alternating between frontiers,
// and returns the meeting vertex of the best up-down path (-1 when
// unreachable or cancelled). Equal-label meetings resolve to the smallest
// vertex id, keeping the returned path deterministic.
//
// A direction stops once the smallest key left in its queue exceeds the
// best meeting found so far: Dijkstra settles in nondecreasing label
// order, so everything still queued can only produce strictly worse
// meetings. Every vertex of an equal-or-better meeting has both labels
// ≤ best and therefore settles in both directions before either cutoff,
// so the candidate set — and with it the (weight, vertex-id) argmin and
// its equal-weight tie-breaks — is exactly that of the exhaustive search.
// Meetings are only counted between settled (final) labels; a candidate
// seen while the opposite label is still tentative is re-examined, with
// the final label, when the opposite side settles it.
func (ch *CH) biSearch(w *chWS, src, dst int, done <-chan struct{}) int {
	w.bump()
	w.distF[src], w.verF[src], w.prevF[src] = 0, w.ver, -1
	w.distB[dst], w.verB[dst], w.prevB[dst] = 0, w.ver, -1
	w.h = w.h[:0]
	w.h2 = w.h2[:0]
	w.h.push(pqItem{v: src, dist: 0})
	w.h2.push(pqItem{v: dst, dist: 0})
	best, meet := math.Inf(1), -1
	activeF, activeB := true, true
	fwd := true
	pops := 0
	for activeF || activeB {
		f := fwd
		if f && !activeF {
			f = false
		} else if !f && !activeB {
			f = true
		}
		fwd = !f

		h, dist, ver, set, prev := &w.h, w.distF, w.verF, w.setF, w.prevF
		oDist, oSet := w.distB, w.setB
		off, to, wt, arc := ch.upOff, ch.upTo, ch.upW, ch.upArc
		soff, sto, swt := ch.dnOff, ch.dnTo, ch.dnW
		if !f {
			h, dist, ver, set, prev = &w.h2, w.distB, w.verB, w.setB, w.prevB
			oDist, oSet = w.distF, w.setF
			off, to, wt, arc = ch.dnOff, ch.dnTo, ch.dnW, ch.dnArc
			soff, sto, swt = ch.upOff, ch.upTo, ch.upW
		}
		if len(*h) == 0 || (*h)[0].dist > best {
			if f {
				activeF = false
			} else {
				activeB = false
			}
			continue
		}
		if pops++; pops&(stride-1) == 0 && Stopped(done) {
			break
		}
		it := h.pop()
		v := int32(it.v)
		if it.dist > dist[v] {
			continue
		}
		set[v] = w.ver
		if oSet[v] == w.ver {
			if d := it.dist + oDist[v]; d < best || (d == best && int(v) < meet) {
				best, meet = d, int(v)
			}
		}
		// stall-on-demand: scan the opposite-direction arcs into v; a
		// shorter label through a higher-ranked neighbour means v is not
		// on any shortest up-down path, so don't expand it. (It stays a
		// valid, merely suboptimal, meeting candidate.)
		stalled := false
		for i := soff[v]; i < soff[v+1]; i++ {
			u := sto[i]
			if ver[u] == w.ver && dist[u]+swt[i] < it.dist {
				stalled = true
				break
			}
		}
		if stalled {
			continue
		}
		for i := off[v]; i < off[v+1]; i++ {
			u := to[i]
			nd := it.dist + wt[i]
			if ver[u] != w.ver || nd < dist[u] {
				dist[u] = nd
				ver[u] = w.ver
				prev[u] = arc[i]
				h.push(pqItem{v: int(u), dist: nd})
			}
		}
	}
	return meet
}
