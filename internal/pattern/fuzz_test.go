package pattern

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
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
// its varint encoding) over a small fixed cost.
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
	grew := allocatedBy(func() { _, err = readPatterns(stream, rt) })
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
	if err := writePatterns(&buf, patterns); err != nil {
		t.Fatal(err)
	}
	back, err := readPatterns(buf.Bytes(), rt)
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

// overcounted returns a rule list whose count promises one record more
// than its bytes hold.
func overcounted(tb testing.TB, stream []byte) []byte {
	n, k := binary.Uvarint(stream[len(patternsMagic):])
	if k != 1 || n+1 >= 0x80 {
		tb.Fatalf("the stream's count %d is not one byte", n)
	}
	out := bytes.Clone(stream)
	out[len(patternsMagic)]++
	return out
}

// TestReadPatternsCountPastBytes: a count that promises more records than
// the bytes behind it can hold is refused before the columns are sized.
func TestReadPatternsCountPastBytes(t *testing.T) {
	rt := janeTable(t)
	var buf bytes.Buffer
	if err := writePatterns(&buf, Mine(rt, Config{MinSupport: 2, MinConfidence: 0.2})); err != nil {
		t.Fatal(err)
	}
	if _, err := readPatterns(overcounted(t, buf.Bytes()), rt); err == nil {
		t.Fatal("a count one past the records was accepted")
	}
}

// farOffsetTable returns Jane's region table with its first region moved
// to offset 2³⁰: a table indexed by offset must never be sized by it.
func farOffsetTable(tb testing.TB) []byte {
	rt := DiscoverRegions(janeGroups(), 30, 4)
	rt.regions[0].Offset = 1 << 30
	var buf bytes.Buffer
	if err := rt.WriteBinary(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadRegionTableFarOffset: a region offset outside the period is
// refused, and the refusal allocates nothing its size would call for.
func TestReadRegionTableFarOffset(t *testing.T) {
	data := farOffsetTable(t)
	var err error
	grew := allocatedBy(func() { _, err = readRegionTable(data) })
	if err == nil {
		t.Fatal("a region at offset 2^30 was accepted in a period of 3")
	}
	if grew > decodeBudget(len(data)) {
		t.Fatalf("refusing %d bytes allocated %d", len(data), grew)
	}
}

// readPatternsSeeds is FuzzReadPatterns' corpus over rt, Jane's table: a
// mined rule list, cut, with hostile counts and premise lengths, with a
// count past its rules, with one rule's varints padded to three bytes (which
// binary.Uvarint reads as it reads one), and with one rule's premise in
// descending time offset.
func readPatternsSeeds(tb testing.TB, rt *RegionTable) [][]byte {
	mined := Mine(rt, Config{MinSupport: 2, MinConfidence: 0.2})
	var buf bytes.Buffer
	if err := writePatterns(&buf, mined); err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{
		buf.Bytes(),
		buf.Bytes()[:buf.Len()/2],
		binary.AppendUvarint([]byte(patternsMagic), 1<<28),
		binary.AppendUvarint(binary.AppendUvarint([]byte(patternsMagic), 1), 1<<40), // premise length
		[]byte(patternsMagic + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"),          // count 2^64-1
		overcounted(tb, buf.Bytes()),
	}
	three := slices.IndexFunc(mined, func(p Pattern) bool { return len(p.Premise) == 2 })
	if three < 0 {
		tb.Fatal("Jane's table mines no rule of three regions")
	}
	p := mined[three]
	padded := append([]byte(patternsMagic), 0x81, 0x80, 0x00, 0x82, 0x80, 0x00) // a count of 1, a premise of 2
	for _, id := range append(p.Premise[:2:2], p.Consequence) {
		padded = append(padded, byte(id<<1)|0x80, 0x80, 0x00)
	}
	padded = binary.LittleEndian.AppendUint64(padded, math.Float64bits(p.Confidence))
	padded = append(padded, byte(p.Support)|0x80, 0x80, 0x00)
	p.Premise = []RegionID{p.Premise[1], p.Premise[0]}
	var reversed bytes.Buffer
	if err := writePatterns(&reversed, []Pattern{p}); err != nil {
		tb.Fatal(err)
	}
	return append(seeds, padded, reversed.Bytes())
}

func FuzzReadPatterns(f *testing.F) {
	rt := DiscoverRegions(janeGroups(), 30, 4)
	for _, seed := range readPatternsSeeds(f, rt) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ps []Pattern
		var err error
		grew := allocatedBy(func() { ps, err = readPatterns(data, rt) })
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

// refReadRules is ReadRules as it read a rule list before it held each
// rule to the rows WriteRules is given: region ids checked, a premise of at
// most 64 regions, in any order.
func refReadRules(c *Cursor, rt *RegionTable) (*Table, error) {
	c.magic(patternsMagic)
	count := c.count()
	if c.err == nil && count > c.Remaining()/minRuleBytes {
		c.Fail(fmt.Errorf("pattern: %d patterns cannot fit in %d bytes", count, c.Remaining()))
	}
	if c.err != nil {
		return nil, c.err
	}
	regions := int64(rt.Len())
	id := func() int32 {
		v := c.varint()
		if c.err == nil && (v < 0 || v >= regions) {
			c.Fail(fmt.Errorf("pattern: region id %d out of %d", v, regions))
		}
		return int32(v)
	}
	t := &Table{
		premises: make([]RegionID, 0, min(2*count, c.Remaining())),
		starts:   make([]int32, count+1),
		conseqs:  make([]int32, count),
		confs:    make([]float64, count),
		supports: make([]int32, count),
	}
	for i := 0; i < count; i++ {
		premLen := c.count()
		if premLen > 64 {
			c.Fail(fmt.Errorf("pattern: implausible premise length %d", premLen))
			return nil, c.err
		}
		for j := 0; j < premLen; j++ {
			t.premises = append(t.premises, RegionID(id()))
		}
		t.starts[i+1] = int32(len(t.premises))
		t.conseqs[i] = id()
		t.confs[i] = c.Float()
		t.supports[i] = int32(c.count())
		if c.err != nil {
			return nil, c.err
		}
	}
	return t, nil
}

// canonicalRows reports whether every row of t is one WriteRules is given:
// at most maxLen regions, offsets strictly ascending to the consequence.
func canonicalRows(t *Table, rt *RegionTable, maxLen int) bool {
	for i := 0; i < t.Len(); i++ {
		ids := append(t.Premise(i), t.Consequence(i))
		if len(ids) > maxLen {
			return false
		}
		for j := 1; j < len(ids); j++ {
			if rt.Region(ids[j]).Offset <= rt.Region(ids[j-1]).Offset {
				return false
			}
		}
	}
	return true
}

// TestReadRulesMatchesReference: over FuzzReadPatterns' corpus ReadRules
// accepts what refReadRules accepts, into an equal table, and refuses the
// same inputs but the ones that hold a row WriteRules is never given —
// refused for that row.
func TestReadRulesMatchesReference(t *testing.T) {
	rt := DiscoverRegions(janeGroups(), 30, 4)
	accepted, canonicalRefusals := 0, 0
	for n, seed := range readPatternsSeeds(t, rt) {
		got, c := NewCursor(seed), NewCursor(seed)
		table, err := ReadRules(&got, rt, Config{})
		want, wantErr := refReadRules(&c, rt)
		switch {
		case wantErr != nil && err == nil:
			t.Errorf("seed %d: accepted what the reference refuses (%v)", n, wantErr)
		case wantErr == nil && err != nil:
			if canonicalRows(want, rt, DefaultMaxLength) || !strings.Contains(err.Error(), "ascend") && !strings.Contains(err.Error(), "MaxLength") {
				t.Errorf("seed %d: refused (%v) what the reference reads to rows WriteRules is given", n, err)
			}
			canonicalRefusals++
		case err == nil:
			if !reflect.DeepEqual(table.Patterns(), want.Patterns()) || got.Offset() != c.Offset() {
				t.Errorf("seed %d: decoded %v to %d bytes, the reference %v to %d", n, table.Patterns(), got.Offset(), want.Patterns(), c.Offset())
			}
			accepted++
		}
	}
	if accepted < 2 || canonicalRefusals == 0 {
		t.Errorf("%d seeds accepted, %d refused for their rows; the corpus shows nothing", accepted, canonicalRefusals)
	}
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
	f.Add(farOffsetTable(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rt *RegionTable
		var err error
		grew := allocatedBy(func() { rt, err = readRegionTable(data) })
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

// The universe FuzzMinerOps and FuzzMine play in: minerP offsets with three
// anchors each, a dozen founding days spread over them.
const (
	minerP       = 5
	minerAnchors = 3
	minerDays    = 12
)

func minerAnchor(t, c int) geom.Point {
	return geom.Pt(1000*float64(c+1), 1000*float64(t+1))
}

// minerConfigs are the mining bounds the fuzzers pick from by their first
// input byte.
var minerConfigs = []Config{
	{MinSupport: 2, MinConfidence: 0.3},
	{MinSupport: 3, MinConfidence: 0.1, PremiseSpan: 2},
	{MinSupport: 2, MinConfidence: 0.3, MaxLength: 4, ConsequenceReach: 2},
	{MinSupport: 2, MinConfidence: 0.2, MaxLength: 5, PremiseSpan: -1, ConsequenceReach: -1},
}

// minerTable discovers the fuzzers' founding table.
func minerTable() *RegionTable {
	groups := make([]trajectory.Group, minerP)
	for off := range groups {
		groups[off] = trajectory.Group{Offset: off, Points: make([]geom.Point, minerDays)}
		for j := range groups[off].Points {
			groups[off].Points[j] = minerAnchor(off, (j+off*(j/minerAnchors))%minerAnchors)
		}
	}
	return DiscoverRegions(groups, 30, 3)
}

// tableOp is what one op of playOps did to the table: the chains it
// absorbed and retired, or the region it minted and the chains of that
// region's visitors.
type tableOp struct {
	added, retired [][]RegionID
	minted         RegionID // -1 unless the op minted
}

// playOps decodes an op stream from data — absorb a day, retire the oldest,
// mint a region — applies it to rt, and hands step what each op that
// changed the table did. A region minted anywhere but at the last offset
// takes an id out of offset order, as Extend's minting does.
func playOps(t *testing.T, rt *RegionTable, data []byte, step func(op tableOp)) {
	oldest, strays := 0, 0
	next := func() byte { // the op stream, zero-extended
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for len(data) > 0 {
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
			step(tableOp{added: res.Chains, minted: -1})
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
			step(tableOp{retired: gone, minted: -1})
		case 3: // mint a region, at the offset the stream picks counting back from the last, from live days that visit none there
			pick, at := next(), minerP-1-int(next())%minerP
			var subs []int
			var pts []geom.Point
			var chains [][]RegionID
			for j, free := oldest, 0; j < rt.NumSubTrajectories() && free < 8; j++ {
				if slices.ContainsFunc(rt.ChainOf(j), func(id RegionID) bool { return rt.Region(id).Offset == at }) {
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
			fr := rt.AppendRegion(at, pts, subs)
			for _, j := range subs {
				chains = append(chains, rt.ChainOf(j))
			}
			step(tableOp{added: chains, minted: fr.ID})
		}
	}
}

// FuzzMinerOps drives a miner with an op stream decoded from the input
// (playOps) and after every op holds it to the batch miner's answer over
// the same table and to its own layout invariants, and a miner seeded
// afresh over the table to the chain replay (seedMiner).
func FuzzMinerOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 5, 0, 0, 17, 0})
	f.Add([]byte{1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 9, 0, 0, 100, 0, 0, 200, 0})                                     // drain, then regrow: slots freed and reused
	f.Add([]byte{2, 0, 40, 16, 0, 40, 16, 0, 121, 16, 0, 202, 16, 3, 255, 0, 0, 40, 0, 2, 2, 3, 255})              // days ending off the map, minted into a region
	f.Add([]byte{3, 0, 0, 16, 0, 0, 16, 0, 0, 16, 0, 0, 16, 3, 15, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 255}) // mint, then retire its visitors
	f.Add([]byte{0, 0, 0, 4, 0, 0, 4, 0, 9, 4, 3, 7, 2, 0, 13, 0, 3, 255, 4, 2, 2, 0, 0, 0})                       // days astray mid-period, minted there: ids out of offset order
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := minerConfigs[int(data[0])%len(minerConfigs)]
		rt := minerTable()
		m, d := seedMiner(t, rt, cfg)
		book := newRuleBook()
		applyDelta(t, m, book, d)
		checkEquivalent(t, rt, cfg, m, book)
		playOps(t, rt, data[1:], func(op tableOp) {
			if op.minted < 0 {
				applyDelta(t, m, book, m.Update(op.added, op.retired))
			} else {
				md := m.AbsorbMinted(op.minted, op.added)
				if len(md.Removed) != 0 || len(md.Updated) != 0 {
					t.Fatalf("minted replay must only add rules, got %d removed %d updated", len(md.Removed), len(md.Updated))
				}
				applyDelta(t, m, book, md)
			}
			checkEquivalent(t, rt, cfg, m, book)
			seedMiner(t, rt, cfg)
		})
	})
}

// varint undoes binary.PutVarint's zigzag over uvarint.
func (c *Cursor) varint() int64 {
	ux := c.Uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}
