package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v, want (4,-2)", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v, want (-2,6)", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v, want (2,4)", got)
	}
}

func TestDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-1, -1), Pt(2, 3), 5},
	}
	for _, tt := range tests {
		if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want)
		}
		if got := tt.p.Dist2(tt.q); math.Abs(got-tt.want*tt.want) > 1e-12 {
			t.Errorf("Dist2(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want*tt.want)
		}
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Constrain to the paper's data extent so distances stay finite.
		a := Pt(math.Mod(ax, 1e4), math.Mod(ay, 1e4))
		b := Pt(math.Mod(bx, 1e4), math.Mod(by, 1e4))
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := Pt(r.Float64()*1e4, r.Float64()*1e4)
		b := Pt(r.Float64()*1e4, r.Float64()*1e4)
		c := Pt(r.Float64()*1e4, r.Float64()*1e4)
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-9 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v, want %v", got, p)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v, want %v", got, q)
	}
	if got := p.Lerp(q, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp(0.5) = %v, want (5,10)", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !Pt(1, 2).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	for _, p := range []Point{
		{math.NaN(), 0}, {0, math.NaN()},
		{math.Inf(1), 0}, {0, math.Inf(-1)},
	} {
		if p.IsFinite() {
			t.Errorf("%v reported finite", p)
		}
	}
}

func TestRectFromPoints(t *testing.T) {
	pts := []Point{Pt(3, 1), Pt(-2, 5), Pt(0, 0)}
	r := RectFromPoints(pts)
	want := Rect{Min: Pt(-2, 0), Max: Pt(3, 5)}
	if r != want {
		t.Errorf("RectFromPoints = %v, want %v", r, want)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("MBR %v does not contain member %v", r, p)
		}
	}
}

func TestRectFromPointsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty slice")
		}
	}()
	RectFromPoints(nil)
}

func TestRectContainsBoundary(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(10, 10)}
	for _, p := range []Point{Pt(0, 0), Pt(10, 10), Pt(0, 5), Pt(10, 5), Pt(5, 0), Pt(5, 10)} {
		if !r.Contains(p) {
			t.Errorf("boundary point %v not contained", p)
		}
	}
	for _, p := range []Point{Pt(-0.001, 5), Pt(10.001, 5), Pt(5, -0.001), Pt(5, 10.001)} {
		if r.Contains(p) {
			t.Errorf("outside point %v contained", p)
		}
	}
}

func TestRectUnionContainsBothProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		r := RectFromPoints([]Point{Pt(ax, ay), Pt(bx, by)})
		s := RectFromPoints([]Point{Pt(cx, cy), Pt(dx, dy)})
		u := r.Union(s)
		return u.Contains(r.Min) && u.Contains(r.Max) && u.Contains(s.Min) && u.Contains(s.Max) && u.IsValid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{Min: Pt(0, 0), Max: Pt(10, 10)}
	tests := []struct {
		b    Rect
		want bool
	}{
		{Rect{Pt(5, 5), Pt(15, 15)}, true},
		{Rect{Pt(10, 10), Pt(20, 20)}, true}, // corner touch
		{Rect{Pt(11, 11), Pt(20, 20)}, false},
		{Rect{Pt(-5, -5), Pt(-1, -1)}, false},
		{Rect{Pt(2, 2), Pt(3, 3)}, true}, // contained
	}
	for _, tt := range tests {
		if got := a.Intersects(tt.b); got != tt.want {
			t.Errorf("Intersects(%v) = %v, want %v", tt.b, got, tt.want)
		}
		if got := tt.b.Intersects(a); got != tt.want {
			t.Errorf("Intersects not symmetric for %v", tt.b)
		}
	}
}

func TestRectGeometry(t *testing.T) {
	r := Rect{Min: Pt(2, 3), Max: Pt(6, 11)}
	if got := r.Width(); got != 4 {
		t.Errorf("Width = %v, want 4", got)
	}
	if got := r.Height(); got != 8 {
		t.Errorf("Height = %v, want 8", got)
	}
	if got := r.Area(); got != 32 {
		t.Errorf("Area = %v, want 32", got)
	}
}

func TestRectInflate(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(10, 10)}
	g := r.Inflate(2)
	want := Rect{Min: Pt(-2, -2), Max: Pt(12, 12)}
	if g != want {
		t.Errorf("Inflate = %v, want %v", g, want)
	}
	if !r.Inflate(-6).IsValid() == false {
		// shrinking past the center must be detectable
		t.Log("over-shrunk rect correctly invalid")
	}
}

func TestRectClamp(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(10, 10)}
	tests := []struct {
		in, want Point
	}{
		{Pt(5, 5), Pt(5, 5)},
		{Pt(-3, 5), Pt(0, 5)},
		{Pt(5, 20), Pt(5, 10)},
		{Pt(-1, -1), Pt(0, 0)},
	}
	for _, tt := range tests {
		if got := r.Clamp(tt.in); got != tt.want {
			t.Errorf("Clamp(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestRectDistToPoint(t *testing.T) {
	r := Rect{Min: Pt(0, 0), Max: Pt(10, 10)}
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 5), 0},
		{Pt(13, 5), 3},
		{Pt(5, -4), 4},
		{Pt(13, 14), 5},
	}
	for _, tt := range tests {
		if got := r.DistToPoint(tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("DistToPoint(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestCentroid(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}
	if got := Centroid(pts); got != Pt(5, 5) {
		t.Errorf("Centroid = %v, want (5,5)", got)
	}
}

func TestCentroidInsideMBRProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		n := 1 + r.Intn(20)
		pts := make([]Point, n)
		for j := range pts {
			pts[j] = Pt(r.Float64()*100-50, r.Float64()*100-50)
		}
		c := Centroid(pts)
		if !RectFromPoints(pts).Contains(c) {
			t.Fatalf("centroid %v outside MBR of its points", c)
		}
	}
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return r.ExpandPoint(s.Min).ExpandPoint(s.Max)
}

// Intersects reports whether r and s share any point (boundary inclusive).
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// DistToPoint returns the minimum distance from p to r; zero when p is
// inside r.
func (r Rect) DistToPoint(p Point) float64 {
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}
