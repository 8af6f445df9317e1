package geo

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDistSymmetricAndPositive(t *testing.T) {
	f := func(ax, ay, bx, by int16) bool {
		p := Point{float64(ax), float64(ay)}
		q := Point{float64(bx), float64(by)}
		d1, d2 := p.Dist(q), q.Dist(p)
		return d1 == d2 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int8) bool {
		a := Point{float64(ax), float64(ay)}
		b := Point{float64(bx), float64(by)}
		c := Point{float64(cx), float64(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistKnownValues(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, 0}, Point{1, 0}, 2},
	}
	for _, tt := range tests {
		if got := tt.p.Dist(tt.q); !almostEqual(got, tt.want) {
			t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
		}
	}
}

func TestCentroid(t *testing.T) {
	pts := []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	if got := Centroid(pts); !almostEqual(got.X, 1) || !almostEqual(got.Y, 1) {
		t.Fatalf("Centroid = %v, want (1,1)", got)
	}
	if got := Centroid(nil); got != (Point{}) {
		t.Fatalf("Centroid(nil) = %v, want zero", got)
	}
	single := []Point{{7, -3}}
	if got := Centroid(single); got != single[0] {
		t.Fatalf("Centroid of single = %v, want %v", got, single[0])
	}
}

func TestCentroidTranslationInvariance(t *testing.T) {
	f := func(coords []int8, dx, dy int8) bool {
		if len(coords) < 2 {
			return true
		}
		var pts, shifted []Point
		off := Point{float64(dx), float64(dy)}
		for i := 0; i+1 < len(coords); i += 2 {
			p := Point{float64(coords[i]), float64(coords[i+1])}
			pts = append(pts, p)
			shifted = append(shifted, p.Add(off))
		}
		c1 := Centroid(pts).Add(off)
		c2 := Centroid(shifted)
		return math.Abs(c1.X-c2.X) < 1e-9 && math.Abs(c1.Y-c2.Y) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRectContains(t *testing.T) {
	r := Square(100)
	tests := []struct {
		p    Point
		want bool
	}{
		{Point{50, 50}, true},
		{Point{0, 0}, true},
		{Point{100, 100}, true},
		{Point{-0.1, 50}, false},
		{Point{50, 100.1}, false},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestRectClampInsideRegion(t *testing.T) {
	r := Rect{10, 20, 110, 220}
	f := func(x, y int16) bool {
		c := r.Clamp(Point{float64(x), float64(y)})
		return r.Contains(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Clamp is identity for interior points.
	in := Point{50, 100}
	if got := r.Clamp(in); got != in {
		t.Fatalf("Clamp(%v) = %v, want identity", in, got)
	}
}

func TestRectDims(t *testing.T) {
	r := Rect{1, 2, 5, 10}
	if r.Width() != 4 || r.Height() != 8 {
		t.Fatalf("Width/Height = %v/%v, want 4/8", r.Width(), r.Height())
	}
	if c := r.Center(); !almostEqual(c.X, 3) || !almostEqual(c.Y, 6) {
		t.Fatalf("Center = %v, want (3,6)", c)
	}
}

func TestVectorOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := (Point{3, 4}).Norm(); !almostEqual(got, 5) {
		t.Fatalf("Norm = %v", got)
	}
}

// FuzzHypot: the in-repo hypot is a transcription of math/hypot_amd64.s,
// so on amd64 it must return math.Hypot's bits for every pair of inputs,
// zeros, subnormals, infinities and NaNs included. Elsewhere math.Hypot
// runs a fallback the compiler may fuse, so there is nothing to compare.
func FuzzHypot(f *testing.F) {
	if runtime.GOARCH != "amd64" {
		f.Skip("math.Hypot is hypot_amd64.s only on amd64")
	}
	for _, s := range [][2]float64{
		{0, 0}, {3, 4}, {-3, 4}, {math.Copysign(0, -1), 0}, {1e-320, 3e-321},
		{math.MaxFloat64, math.MaxFloat64}, {math.SmallestNonzeroFloat64, 1},
		{math.Inf(1), math.NaN()}, {math.NaN(), math.Inf(-1)}, {math.NaN(), 1},
		{0.1, 0.7}, {1e300, 1e-300}, {12.5, 12.5},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, p, q float64) {
		if got, want := hypot(p, q), math.Hypot(p, q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("hypot(%v, %v) = %v (%#x), math.Hypot = %v (%#x)", p, q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
