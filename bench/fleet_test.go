package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"testing"
)

// These tests cover the generators only: they never build or start the
// server, so they run in tier-1 in well under five seconds.

func testScale() scale {
	sc := defaultScale().scaled(defaultSeconds)
	sc.Conns = 2 // the ordering property is about more than one connection
	return sc
}

func digest(l opList) [sha256.Size]byte {
	h := sha256.New()
	for _, conn := range l {
		for _, block := range conn {
			for i := range block {
				h.Write(block[i].req)
			}
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func TestSameSeedSameBytes(t *testing.T) {
	sc := testScale()
	f := newFleet(sc)
	for name, gen := range generators {
		a, b, c := gen(f, 1, sc), gen(newFleet(sc), 1, sc), gen(f, 2, sc)
		a.encode(f)
		b.encode(f)
		c.encode(f)
		if digest(a) != digest(b) {
			t.Errorf("%s: seed 1 generated twice gives different request bytes", name)
		}
		if digest(a) == digest(c) {
			t.Errorf("%s: seeds 1 and 2 give the same request bytes", name)
		}
	}
}

func TestPerObjectOrderAcrossConnections(t *testing.T) {
	sc := testScale()
	f := newFleet(sc)
	for name, gen := range generators {
		if name == "point_predict" {
			continue // sends no points
		}
		l := gen(f, 1, sc)
		owner := make([]int, len(f.trained))
		next := make([]int, len(f.trained))
		for i := range owner {
			owner[i], next[i] = -1, f.trained[i].cut
		}
		for c, conn := range l {
			for _, block := range conn {
				for i := range block {
					for _, ob := range block[i].obs {
						o := &f.trained[ob.obj]
						if owner[ob.obj] == -1 {
							owner[ob.obj] = c
						}
						if owner[ob.obj] != c {
							t.Fatalf("%s: %s is written by connections %d and %d", name, o.id, owner[ob.obj], c)
						}
						for _, p := range ob.points {
							if p != o.track[next[ob.obj]] {
								t.Fatalf("%s: %s receives its point %d out of order", name, o.id, next[ob.obj])
							}
							next[ob.obj]++
						}
					}
				}
			}
		}
		ticks := l.ticksApplied(f)
		for i := range next {
			if next[i] != f.trained[i].cut+ticks {
				t.Fatalf("%s: %s received %d points, want %d", name, f.trained[i].id, next[i]-f.trained[i].cut, ticks)
			}
		}
	}
}

func TestEveryProbeHasATrueFuture(t *testing.T) {
	sc := testScale()
	f := newFleet(sc)
	for name, gen := range generators {
		ticks := gen(f, 1, sc).ticksApplied(f)
		for _, o := range f.trained {
			if now := o.cut + ticks - 1; now+probeReach >= len(o.track) {
				t.Fatalf("%s: %s has %d points past its last, want at least %d", name, o.id, len(o.track)-1-now, probeReach)
			}
		}
		if got, want := len(probes(f, ticks)), len(f.trained)*len(probeHorizons); got != want {
			t.Fatalf("%s: %d probes, want %d", name, got, want)
		}
	}
}

// TestBenchmarkJSONNamesTheWorkloads keeps BENCHMARK.json and the harness
// from drifting apart; the metric names are checked at the end of every
// run, where they are measured.
func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(sp.Workloads), len(workloadNames))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, w.Name, workloadNames[i])
		}
	}
}
