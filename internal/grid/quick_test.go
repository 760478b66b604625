package grid

import (
	"math"
	"slices"
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
// the grid's range query equals a linear scan.
func TestQuickRangeQueryEquivalence(t *testing.T) {
	f := func(coords []float64, cx, cy, r float64) bool {
		pts := make([]geo.Point, 0, len(coords)/2)
		for i := 0; i+1 < len(coords); i += 2 {
			pts = append(pts, geo.Pt(clamp(coords[i]), clamp(coords[i+1])))
		}
		g := build(pointBoxes(pts))
		q := geo.BBoxAround(geo.Pt(clamp(cx), clamp(cy)), math.Abs(clamp(r)))
		return slices.Equal(search(t, g, pointBoxes(pts), q), bruteRange(pts, q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
