package pattern

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"hpm/internal/geom"
	"hpm/internal/trajectory"
)

// allocatedBy returns how many bytes fn allocated, by the runtime's own
// count. Meaningful only while nothing else in the process allocates, which
// holds for tests that do not run in parallel.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeBudget is what a decoder may allocate for an input of n bytes: a
// small multiple of the input (a decoded pattern or region is larger than
// its varint encoding) over the fixed cost of a reader and the first,
// capped, preallocation.
func decodeBudget(n int) uint64 { return 512<<10 + 64*uint64(n) }

// TestReadPatternsHostileCount: nine bytes — the magic and a count of
// 1<<28 — used to make ReadPatterns allocate (and zero) 12 GB before it
// noticed the stream had ended. core.Load runs it on every segment at
// store.Open, so one corrupt count was an out-of-memory at start-up.
func TestReadPatternsHostileCount(t *testing.T) {
	stream := binary.AppendUvarint([]byte(patternsMagic), 1<<28)
	if len(stream) != 9 {
		t.Fatalf("hostile stream is %d bytes, want 9", len(stream))
	}
	rt := janeTable(t)
	var err error
	grew := allocatedBy(func() { _, err = ReadPatterns(bytes.NewReader(stream), rt) })
	if err == nil {
		t.Fatal("a count with no patterns behind it was accepted")
	}
	if grew > 1<<20 {
		t.Fatalf("decoding 9 bytes allocated %d bytes", grew)
	}
}

// TestReadPatternsPremisesDoNotAlias: premises share an arena, so each must
// be capped at its own length or an append to one would overwrite the next.
func TestReadPatternsPremisesDoNotAlias(t *testing.T) {
	rt := janeTable(t)
	patterns := Mine(rt, Config{MinSupport: 2, MinConfidence: 0.2})
	var buf bytes.Buffer
	if err := WritePatterns(&buf, patterns); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPatterns(&buf, rt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range back {
		back[i].Premise = append(back[i].Premise, 4)
	}
	for i, p := range patterns {
		if got := back[i].Premise[:len(p.Premise)]; !slices.Equal(got, p.Premise) {
			t.Fatalf("pattern %d premise %v became %v after appending to its neighbours", i, p.Premise, got)
		}
	}
}

func FuzzReadPatterns(f *testing.F) {
	rt := DiscoverRegions(janeGroups(), 30, 4)
	var buf bytes.Buffer
	if err := WritePatterns(&buf, Mine(rt, Config{MinSupport: 2, MinConfidence: 0.2})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add(binary.AppendUvarint([]byte(patternsMagic), 1<<28))
	f.Add(binary.AppendUvarint(binary.AppendUvarint([]byte(patternsMagic), 1), 1<<40)) // premise length
	f.Add([]byte(patternsMagic + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))          // count 2^64-1
	f.Fuzz(func(t *testing.T, data []byte) {
		var ps []Pattern
		var err error
		grew := allocatedBy(func() { ps, err = ReadPatterns(bytes.NewReader(data), rt) })
		if grew > decodeBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		for _, p := range ps { // what decodes names only regions of rt
			for _, id := range append(p.Premise[:len(p.Premise):len(p.Premise)], p.Consequence) {
				rt.Region(id)
			}
		}
	})
}

func FuzzReadRegionTable(f *testing.F) {
	var buf bytes.Buffer
	if err := DiscoverRegions(janeGroups(), 30, 4).WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])
	head := append([]byte(regionTableMagic), full[4:12]...)                        // magic, eps
	f.Add(binary.AppendUvarint(binary.AppendUvarint(head, 1<<40), 3))              // numSubs
	f.Add(binary.AppendUvarint(binary.AppendUvarint(head[:12:12], 20), 1<<25))     // region count
	f.Add(append(full[:len(full)-8:len(full)-8], 0xff, 0xff, 0xff, 0xff, 0x7f))    // a visitor key's length
	f.Add(append(full[:len(full)-8:len(full)-8], 0xff, 0xff, 0xff, 0xff, 0xff, 1)) // and past what fits an int32
	f.Fuzz(func(t *testing.T, data []byte) {
		var rt *RegionTable
		var err error
		grew := allocatedBy(func() { rt, err = ReadRegionTable(bytes.NewReader(data)) })
		if grew > decodeBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		for _, fr := range rt.Regions() { // what decodes can be queried
			rt.Locate(fr.Offset, fr.Center)
		}
	})
}

// The universe FuzzMinerOps plays in: minerP offsets with three anchors
// each, a dozen founding days spread over them.
const (
	minerP       = 5
	minerAnchors = 3
	minerDays    = 12
)

func minerAnchor(t, c int) geom.Point {
	return geom.Pt(1000*float64(c+1), 1000*float64(t+1))
}

// FuzzMinerOps drives a miner with an op stream decoded from the input —
// absorb a day, retire the oldest, mint a region at the last offset — and
// after every op holds it to the batch miner's answer over the same table
// and to its own layout invariants.
func FuzzMinerOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 5, 0, 0, 17, 0})
	f.Add([]byte{1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 9, 0, 0, 100, 0, 0, 200, 0})                                  // drain, then regrow: slots freed and reused
	f.Add([]byte{2, 0, 40, 16, 0, 40, 16, 0, 121, 16, 0, 202, 16, 3, 255, 0, 40, 0, 2, 2, 3, 255})              // days ending off the map, minted into a region
	f.Add([]byte{3, 0, 0, 16, 0, 0, 16, 0, 0, 16, 0, 0, 16, 3, 15, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 255}) // mint, then retire its visitors
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := []Config{
			{MinSupport: 2, MinConfidence: 0.3},
			{MinSupport: 3, MinConfidence: 0.1, PremiseSpan: 2},
			{MinSupport: 2, MinConfidence: 0.3, MaxLength: 4, ConsequenceReach: 2},
			{MinSupport: 2, MinConfidence: 0.2, MaxLength: 5, PremiseSpan: -1, ConsequenceReach: -1},
		}[data[0]%4]
		groups := make([]trajectory.Group, minerP)
		for off := range groups {
			groups[off] = trajectory.Group{Offset: off, Points: make([]geom.Point, minerDays)}
			for j := range groups[off].Points {
				groups[off].Points[j] = minerAnchor(off, (j+off*(j/minerAnchors))%minerAnchors)
			}
		}
		rt := DiscoverRegions(groups, 30, 3)
		m, d := seedMiner(rt, cfg)
		book := newRuleBook()
		applyDelta(t, m, book, d)
		checkEquivalent(t, rt, cfg, m, book)

		oldest, strays := 0, 0
		next := func() byte { // the op stream, zero-extended
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for data = data[1:]; len(data) > 0; {
			switch op := next(); op % 4 {
			case 0, 1: // absorb a day: an anchor per offset, or off the map where the mask says
				where, astray := int(next()), next()
				day := make([]trajectory.Group, minerP)
				for off := range day {
					p := minerAnchor(off, where%minerAnchors)
					where /= minerAnchors
					if astray&(1<<off) != 0 {
						strays++
						p = geom.Pt(50000+100*float64(strays), 50000)
					}
					day[off] = trajectory.Group{Offset: off, Points: []geom.Point{p}}
				}
				res, err := rt.AbsorbDetailed(day)
				if err != nil {
					t.Fatal(err)
				}
				applyDelta(t, m, book, m.Update(res.Chains, nil))
			case 2: // retire the oldest live day
				if oldest == rt.NumSubTrajectories() {
					continue
				}
				var gone [][]RegionID
				if ch := rt.ChainOf(oldest); len(ch) > 0 {
					gone = append(gone, ch)
				}
				rt.ClearSub(oldest)
				oldest++
				applyDelta(t, m, book, m.Update(nil, gone))
			case 3: // mint a region at the last offset — so ids stay in offset order, which the batch miner assumes — from live days that visit none there
				pick := next()
				var subs []int
				var pts []geom.Point
				var chains [][]RegionID
				for j, free := oldest, 0; j < rt.NumSubTrajectories() && free < 8; j++ {
					if ch := rt.ChainOf(j); len(ch) > 0 && rt.Region(ch[len(ch)-1]).Offset == minerP-1 {
						continue
					}
					if free++; pick&(1<<(free-1)) == 0 {
						continue
					}
					subs = append(subs, j)
					pts = append(pts, geom.Pt(90000+float64(rt.Len()), 90000+float64(j)))
				}
				if len(subs) == 0 {
					continue
				}
				fr := rt.AppendRegion(minerP-1, pts, subs)
				for _, j := range subs {
					chains = append(chains, rt.ChainOf(j))
				}
				md := m.AbsorbMinted(fr.ID, chains)
				if len(md.Removed) != 0 || len(md.Updated) != 0 {
					t.Fatalf("minted replay must only add rules, got %d removed %d updated", len(md.Removed), len(md.Updated))
				}
				applyDelta(t, m, book, md)
			}
			checkEquivalent(t, rt, cfg, m, book)
		}
	})
}
