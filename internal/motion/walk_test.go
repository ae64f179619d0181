package motion

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"hpm/internal/geom"
)

// refPredict is RMF.Predict as it stood before the walk: the recurrence
// iterated from the fitted window's end to tq, for this one tq. PredictEach
// is held to it bit for bit.
func refPredict(r *RMF, tq int) (geom.Point, bool) {
	if !r.fitted || tq < r.lastT {
		return geom.Point{}, false
	}
	if tq == r.lastT {
		return r.lastP, true
	}
	hist := append([]geom.Point(nil), r.hist...)
	var p geom.Point
	for t := r.lastT + 1; t <= tq; t++ {
		p = r.step(hist)
		if !p.IsFinite() {
			return clampTo(p, r.cfg.Bounds, r.lastP), true
		}
		copy(hist, hist[1:])
		hist[len(hist)-1] = p
	}
	return clampTo(p, r.cfg.Bounds, r.lastP), true
}

func sameBits(a, b geom.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// walkSeed encodes a fuzz input: a config byte, the tqs as offsets from the
// window's end, and the window as float64 coordinate pairs.
func walkSeed(cfg byte, offs []byte, pts []geom.Point) []byte {
	b := append([]byte{cfg, byte(len(offs))}, offs...)
	for _, p := range pts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Y))
	}
	return b
}

// FuzzRMFWalk reads a window and a list of query times out of the input,
// fits an RMF on the window and checks one walk over all the times — in the
// order given, unsorted and repeating as the bytes have them — against the
// recurrence iterated for each time on its own. Windows that send the
// recurrence to ±Inf or NaN, and answers clamped to Bounds, count like any
// other. The seeds below run under plain go test.
func FuzzRMFWalk(f *testing.F) {
	horizons := []byte{5, 10, 20, 50, 100, 200} // the fleet index's six
	f.Add(walkSeed(0, horizons, circlePath(30, geom.Pt(500, 500), 200, 0.2)))
	f.Add(walkSeed(1, []byte{120, 1, 60, 1, 0, 255, 7, 7}, circlePath(30, geom.Pt(500, 500), 200, 0.2)))
	f.Add(walkSeed(1, []byte{3, 200, 50}, linearPath(12, geom.Pt(9990, 9990), geom.Pt(40, 25)))) // leaves Bounds
	f.Add(walkSeed(2, []byte{2, 1}, linearPath(2, geom.Pt(1, 2), geom.Pt(3, 4))))                // two points
	f.Add(walkSeed(0, horizons, linearPath(30, geom.Pt(5, 5), geom.Pt(0, 0))))                   // stationary
	grow := make([]geom.Point, 12)                                                               // diverges past the float range
	for i := range grow {
		grow[i] = geom.Pt(math.Pow(1e30, float64(i)/3), -math.Pow(1e25, float64(i)/2))
	}
	f.Add(walkSeed(0, []byte{255, 1, 40, 250, 2}, grow))
	f.Add(walkSeed(1, []byte{255, 1, 40, 250, 2}, grow))
	r := rand.New(rand.NewSource(5))
	noisy := make([]geom.Point, 40)
	for i := range noisy {
		noisy[i] = geom.Pt(1e4*r.Float64(), 1e4*r.Float64())
	}
	f.Add(walkSeed(3, []byte{90, 14, 14, 200, 33, 1}, noisy))

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		cfg := RMFConfig{Retrospect: 1 + int(in[0]>>2)%7}
		if in[0]&1 != 0 {
			cfg.Bounds = &geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10000, 10000)}
		}
		cfg.AutoRetrospect = in[0]&2 != 0
		n := min(int(in[1]), len(in)-2)
		offs, rest := in[2:2+n], in[2+n:]
		var pts []geom.Point
		for ; len(rest) >= 16 && len(pts) < 64; rest = rest[16:] {
			p := geom.Pt(math.Float64frombits(binary.LittleEndian.Uint64(rest)),
				math.Float64frombits(binary.LittleEndian.Uint64(rest[8:])))
			if !p.IsFinite() {
				return // the store refuses such a point before any fit sees it
			}
			pts = append(pts, p)
		}
		const t0 = 1000
		rmf := NewRMF(cfg)
		if err := rmf.Fit(timed(pts, t0)); err != nil {
			return
		}
		tqs := make([]int, len(offs))
		for i, o := range offs {
			tqs[i] = rmf.lastT + int(o)
		}
		out := make([]geom.Point, len(tqs))
		if err := rmf.PredictEach(tqs, out); err != nil {
			t.Fatalf("PredictEach(%v): %v", tqs, err)
		}
		for i, tq := range tqs {
			want, _ := refPredict(rmf, tq)
			if !sameBits(out[i], want) {
				t.Fatalf("walk over %v: time %d (entry %d) = %v, on its own %v", tqs, tq, i, out[i], want)
			}
			if one, err := rmf.Predict(tq); err != nil || !sameBits(one, want) {
				t.Fatalf("Predict(%d) = %v, %v; reference %v", tq, one, err, want)
			}
		}
	})
}

// TestPredictEachRefusesThePast: one time before the fitted window's end
// fails the walk, wherever it stands in the list, as it fails Predict; the
// closed-form models answer every time through the same method.
func TestPredictEachRefusesThePast(t *testing.T) {
	rmf := NewRMF(RMFConfig{})
	out := make([]geom.Point, 3)
	if err := rmf.PredictEach([]int{1, 2, 3}, out); err != ErrNotFitted {
		t.Errorf("unfitted PredictEach: %v", err)
	}
	if err := rmf.Fit(timed(circlePath(30, geom.Pt(0, 0), 100, 0.1), 0)); err != nil {
		t.Fatal(err)
	}
	if err := rmf.PredictEach([]int{40, 28, 35}, out); err == nil {
		t.Error("a time before the window's end was answered")
	}
	for _, fn := range []Function{NewLinear(nil), NewPolynomial(nil)} {
		if err := fn.PredictEach([]int{30}, out); err != ErrNotFitted {
			t.Errorf("%s: unfitted PredictEach: %v", fn.Name(), err)
		}
		if err := fn.Fit(timed(circlePath(30, geom.Pt(0, 0), 100, 0.1), 0)); err != nil {
			t.Fatal(err)
		}
		tqs := []int{90, 31, 31}
		if err := fn.PredictEach(tqs, out); err != nil {
			t.Fatal(err)
		}
		for i, tq := range tqs {
			if want, _ := fn.Predict(tq); out[i] != want {
				t.Errorf("%s: PredictEach[%d] = %v, Predict(%d) = %v", fn.Name(), i, out[i], tq, want)
			}
		}
	}
}

// BenchmarkRMFWalk is what the motion path of one fleet-index refresh costs
// past its fit: the six refresh horizons answered one Predict each (385
// steps of the recurrence) against one walk to the furthest (200).
func BenchmarkRMFWalk(b *testing.B) {
	rmf := NewRMF(RMFConfig{})
	if err := rmf.Fit(timed(circlePath(30, geom.Pt(500, 500), 200, 0.2), 0)); err != nil {
		b.Fatal(err)
	}
	tqs := []int{34, 39, 49, 79, 129, 229} // tc = 29
	out := make([]geom.Point, len(tqs))
	b.Run("per-tq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, tq := range tqs {
				out[j], _ = rmf.Predict(tq)
			}
		}
	})
	b.Run("one-walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rmf.PredictEach(tqs, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
