// Package geom provides the two-dimensional geometric primitives used
// throughout the hybrid prediction model: points, axis-aligned rectangles,
// and the distance computations needed by the clustering and accuracy
// measurements.
//
// The paper normalizes every dataset to the extent [0,10000] x [0,10000];
// nothing in this package depends on that extent, but helpers such as
// Rect.Clamp make it convenient to enforce.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q. Prediction error in
// the paper's experiments is exactly this distance between the predicted and
// the actual location.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. DBSCAN's
// neighborhood tests use squared distances to avoid the square root.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates between p (t=0) and q (t=1).
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// IsFinite reports whether both coordinates are finite numbers. Motion
// functions iterated far into the future can diverge; callers use IsFinite
// to detect and clamp runaway predictions.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right; a Rect is well formed when Min.X <= Max.X and
// Min.Y <= Max.Y. The zero Rect is the degenerate rectangle at the origin.
type Rect struct {
	Min, Max Point
}

// RectFromPoints returns the minimum bounding rectangle of pts. It panics
// if pts is empty, since an MBR of nothing is undefined.
func RectFromPoints(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: RectFromPoints of empty slice")
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r = r.ExpandPoint(p)
	}
	return r
}

// ExpandPoint returns the smallest rectangle containing both r and p.
func (r Rect) ExpandPoint(p Point) Rect {
	if p.X < r.Min.X {
		r.Min.X = p.X
	}
	if p.Y < r.Min.Y {
		r.Min.Y = p.Y
	}
	if p.X > r.Max.X {
		r.Max.X = p.X
	}
	if p.Y > r.Max.Y {
		r.Max.Y = p.Y
	}
	return r
}

// Inflate returns r grown by d on every side. Negative d shrinks; the
// result may become malformed if d is too negative, which IsValid detects.
func (r Rect) Inflate(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// IsValid reports whether r is well formed (Min <= Max on both axes).
func (r Rect) IsValid() bool {
	return r.Min.X <= r.Max.X && r.Min.Y <= r.Max.Y
}

// Clamp returns p constrained to lie inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}

// Centroid returns the arithmetic mean of pts. It panics on an empty slice.
// Frequent-region centers reported to users are centroids of the cluster's
// member locations.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geom: Centroid of empty slice")
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	n := float64(len(pts))
	return Point{c.X / n, c.Y / n}
}
