package core

import (
	"bytes"
	"math/rand"
	"testing"

	"hpm/internal/datagen"
	"hpm/internal/trajectory"
)

// TestParallelTrainingEquivalence is the determinism guarantee behind
// Params.Parallelism: for every dataset, a model trained with 8 workers
// must be indistinguishable from one trained serially — identical regions,
// patterns, bounds and index (checked byte-for-byte through Save), and
// identical predictions on a query workload.
func TestParallelTrainingEquivalence(t *testing.T) {
	for _, kind := range datagen.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			spec := datagen.DefaultSpec(kind, 7)
			spec.Period = 120
			spec.SubTrajectories = 40
			tr := datagen.Generate(spec)
			subs, err := tr.Decompose(spec.Period)
			if err != nil {
				t.Fatal(err)
			}

			train := func(workers int) *Model {
				m, err := TrainSubTrajectories(subs[:30], Params{
					Period:      spec.Period,
					Parallelism: workers,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return m
			}
			serial := train(1)
			parallel := train(8)

			if serial.NumRegions() == 0 || serial.NumPatterns() == 0 {
				t.Fatalf("degenerate model: %d regions, %d patterns",
					serial.NumRegions(), serial.NumPatterns())
			}

			// Byte-level identity of everything persistent: params (sans
			// the excluded Parallelism knob), bounds, region table with
			// visitor bitmaps, and the full pattern list.
			var bs, bp bytes.Buffer
			if err := serial.Save(&bs); err != nil {
				t.Fatal(err)
			}
			if err := parallel.Save(&bp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
				t.Fatalf("serialized models differ: %d vs %d bytes",
					bs.Len(), bp.Len())
			}

			// The index is rebuilt rather than serialized; compare its
			// physical shape and the answers it produces directly.
			if st1, st8 := serial.TreeStats(), parallel.TreeStats(); st1 != st8 {
				t.Fatalf("tree stats differ:\nserial:   %+v\nparallel: %+v", st1, st8)
			}
			rng := rand.New(rand.NewSource(99))
			queryDays := subs[30:]
			for q := 0; q < 40; q++ {
				day := queryDays[rng.Intn(len(queryDays))]
				tcOff := 10 + rng.Intn(spec.Period-40)
				base := day.Index * spec.Period
				var recent []trajectory.TimedPoint
				for off := tcOff - 9; off <= tcOff; off++ {
					recent = append(recent, trajectory.TimedPoint{T: base + off, Loc: day.Points[off]})
				}
				tq := base + tcOff + 1 + rng.Intn(80)
				p1, err1 := serial.Predict(recent, tq, 3)
				p8, err8 := parallel.Predict(recent, tq, 3)
				if (err1 == nil) != (err8 == nil) {
					t.Fatalf("query %d: errors differ: %v vs %v", q, err1, err8)
				}
				if len(p1) != len(p8) {
					t.Fatalf("query %d: %d vs %d predictions", q, len(p1), len(p8))
				}
				for i := range p1 {
					if p1[i] != p8[i] {
						t.Fatalf("query %d prediction %d differs:\nserial:   %+v\nparallel: %+v",
							q, i, p1[i], p8[i])
					}
				}
			}
		})
	}
}

// TestParallelismDefault checks the hardware default resolves and odd
// values are tolerated.
func TestParallelismDefault(t *testing.T) {
	p := Params{Period: 10}.withDefaults()
	if p.Parallelism < 1 {
		t.Fatalf("default parallelism %d", p.Parallelism)
	}
	if p.Mining.Parallelism != p.Parallelism {
		t.Fatalf("knob not plumbed: params=%d mining=%d", p.Parallelism, p.Mining.Parallelism)
	}
	n := Params{Period: 10, Parallelism: -5}.withDefaults()
	if n.Parallelism < 1 {
		t.Fatalf("negative parallelism resolved to %d", n.Parallelism)
	}
}
