package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointArithmetic(t *testing.T) {
	p := Pt(3, 4)
	q := Pt(1, 2)
	if got := p.Add(q); got != Pt(4, 6) {
		t.Errorf("Add = %v, want (4,6)", got)
	}
	if got := p.Sub(q); got != Pt(2, 2) {
		t.Errorf("Sub = %v, want (2,2)", got)
	}
	if got := p.Scale(2); got != Pt(6, 8) {
		t.Errorf("Scale = %v, want (6,8)", got)
	}
	if got := p.Dot(q); got != 11 {
		t.Errorf("Dot = %v, want 11", got)
	}
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(clampCoord(ax), clampCoord(ay)), Pt(clampCoord(bx), clampCoord(by)), Pt(clampCoord(cx), clampCoord(cy))
		if !almostEq(a.Dist(b), b.Dist(a), 1e-9) {
			return false
		}
		// Triangle inequality with generous epsilon for float noise.
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clampCoord(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(clampCoord(ax), clampCoord(ay)), Pt(clampCoord(bx), clampCoord(by))
		d2, dd := a.Dist2(b), a.Dist(b)*a.Dist(b)
		return almostEq(d2, dd, 1e-9*(1+dd)) // relative tolerance
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v, want %v", got, a)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v, want %v", got, b)
	}
	if got := a.Lerp(b, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp(0.5) = %v, want (5,10)", got)
	}
}

func TestHeading(t *testing.T) {
	cases := []struct {
		from, to Point
		want     float64
	}{
		{Pt(0, 0), Pt(1, 0), 0},
		{Pt(0, 0), Pt(0, 1), math.Pi / 2},
		{Pt(0, 0), Pt(-1, 0), math.Pi},
		{Pt(0, 0), Pt(0, -1), -math.Pi / 2},
	}
	for _, c := range cases {
		if got := c.from.Heading(c.to); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Heading(%v,%v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestAngleDiff(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{0, math.Pi, math.Pi},
		{-math.Pi / 2, math.Pi / 2, math.Pi},
		{0.1, 2*math.Pi + 0.1, 0},
		{3, -3, 2*math.Pi - 6},
	}
	for _, c := range cases {
		if got := AngleDiff(c.a, c.b); !almostEq(got, c.want, 1e-9) {
			t.Errorf("AngleDiff(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAngleDiffRange(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = clampCoord(a), clampCoord(b)
		d := AngleDiff(a, b)
		return d >= 0 && d <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestProjectionRoundTrip: ToLatLon maps fixed planar points to their
// WGS84 coordinates (the origin to itself, 1 km north or east to the
// equirectangular degree offsets), and the planar point is recovered from
// its image by the inverse equirectangular formula.
func TestProjectionRoundTrip(t *testing.T) {
	origin := LatLon{Lat: 39.9, Lon: 116.4} // Beijing
	pr := NewProjection(origin)
	degPerM := 180 / (math.Pi * earthRadius)
	cosLat := math.Cos(origin.Lat * math.Pi / 180)
	for _, c := range []struct {
		p    Point
		want LatLon
	}{
		{Pt(0, 0), origin},
		{Pt(0, 1000), LatLon{Lat: origin.Lat + 1000*degPerM, Lon: origin.Lon}},
		{Pt(1000, 0), LatLon{Lat: origin.Lat, Lon: origin.Lon + 1000*degPerM/cosLat}},
	} {
		if got := pr.ToLatLon(c.p); math.Abs(got.Lat-c.want.Lat) > 1e-12 || math.Abs(got.Lon-c.want.Lon) > 1e-12 {
			t.Fatalf("ToLatLon(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := Pt(rng.Float64()*40000-20000, rng.Float64()*40000-20000)
		ll := pr.ToLatLon(p)
		q := Pt((ll.Lon-origin.Lon)/degPerM*cosLat, (ll.Lat-origin.Lat)/degPerM)
		if !p.Equal(q, 1e-6) {
			t.Fatalf("round trip %v -> %v", p, q)
		}
	}
}

// haversine is the great-circle distance between two WGS84 coordinates in
// meters, the reference the planar approximation is held to.
func haversine(a, b LatLon) float64 {
	la1 := a.Lat * math.Pi / 180
	la2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadius * math.Asin(math.Min(1, math.Sqrt(s)))
}

func TestProjectionAgreesWithHaversine(t *testing.T) {
	pr := NewProjection(LatLon{Lat: 39.9, Lon: 116.4})
	a := pr.ToLatLon(Pt(0, 0))
	b := pr.ToLatLon(Pt(3000, 4000))
	planar := 5000.0
	hav := haversine(a, b)
	if math.Abs(planar-hav) > 10 { // within 10 m over 5 km
		t.Errorf("planar %v vs haversine %v", planar, hav)
	}
}
