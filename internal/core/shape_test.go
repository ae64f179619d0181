package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hpm/internal/bitkey"
	"hpm/internal/datagen"
	"hpm/internal/geom"
	"hpm/internal/hpa"
	"hpm/internal/pattern"
	"hpm/internal/tpt"
	"hpm/internal/trajectory"
)

// livedInModel trains a model under a sliding history window and carries it
// through single-day Extends that visit a haunt no trained region covers:
// regions are minted, patterns promoted through them — their consequence
// offsets appended to the table out of order — and older patterns retired
// as their days leave the window, so the engine's refs have holes and its
// tree was rearranged by Insert, Delete and GrowKeys. The Markov
// path is off: a loaded model's chain starts empty, the live one's does not.
func livedInModel(t testing.TB) (*Model, []trajectory.SubTrajectory, int) {
	t.Helper()
	const period, trained = 60, 12
	subs, err := datagen.Generate(datagen.Spec{Kind: datagen.Bike, Period: period, SubTrajectories: 30, Seed: 23}).Decompose(period)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets 20 to 29 are scattered on the trained days, so no rule
	// predicts them, and spent at one haunt on the days that follow;
	// offsets 40 to 49 scatter once training is over, so the rules through
	// them lose their support as the window slides.
	for i := range subs {
		for off := 20; off < 30; off++ {
			nowhere := geom.Pt(-5000*float64(i+1), 7000*float64(off))
			if i < trained {
				subs[i].Points[off] = nowhere
			} else {
				subs[i].Points[off] = geom.Pt(90000+float64(i), 90000+float64(off))
				subs[i].Points[off+20] = nowhere
			}
		}
	}
	m, err := TrainSubTrajectories(subs[:trained], Params{Period: period, HistoryWindow: 14, MarkovOrder: -1})
	if err != nil {
		t.Fatal(err)
	}
	minted, retired := 0, 0
	for _, day := range subs[trained:] {
		res, err := m.Extend([]trajectory.SubTrajectory{day})
		if err != nil {
			t.Fatal(err)
		}
		minted += res.NewRegions
		retired += res.RetiredPatterns
	}
	if offsets := m.encoder.ConsequenceTable().Offsets(); minted == 0 || retired == 0 || slices.IsSorted(offsets) {
		t.Fatalf("the model did not live: %d regions minted, %d patterns retired (%d refs, %d live), consequence offsets %v",
			minted, retired, m.engine.Refs(), m.engine.LivePatterns(), offsets)
	}
	return m, subs, period
}

// livePatterns is what Save writes of m's rules: the live ones in ref
// order, and each ref's place among them.
func (m *Model) livePatterns() (live []pattern.Pattern, rank []int32) {
	for ref := 0; ref < m.engine.Refs(); ref++ {
		if m.engine.IsLive(ref) {
			live = append(live, m.engine.Pattern(ref))
		}
	}
	return live, m.liveRank()
}

// savedShape is the shape Save writes for m: the tree's, with refs
// renumbered to live rank.
func savedShape(m *Model) tpt.Shape {
	_, rank := m.livePatterns()
	sh := m.engine.Tree().Shape()
	for i, ref := range sh.Refs {
		sh.Refs[i] = rank[ref]
	}
	return sh
}

// checkLeaves visits every leaf entry of m's tree, through a consequence
// search over every time id, and fails unless each names a live pattern
// whose key it holds: the time id and the premise key the pattern encodes
// to under m's tables. It returns how many entries it visited.
func checkLeaves(t *testing.T, m *Model) int {
	t.Helper()
	q := bitkey.NewPatternKey(m.encoder.ConsequenceTable().Len(), m.encoder.RegionTable().Len())
	for b := 1; b <= q.CK.Len(); b++ {
		q.CK.Set(b)
	}
	leaves := 0
	m.engine.Tree().SearchConsequence(q, func(ref, tid int, rk bitkey.Key) bool {
		leaves++
		k := m.encoder.Encode(m.engine.Pattern(ref))
		if !m.engine.IsLive(ref) || !slices.Equal(k.CK.Ones(), []int{tid + 1}) || !k.RK.Equal(rk) {
			t.Fatalf("leaf of ref %d: time id %d premise %v, its pattern encodes to %v", ref, tid, rk.Ones(), k)
		}
		return true
	})
	return leaves
}

// sortedTwin is the model Load would build from the same stream had it no
// shape to read: the loaded parts assembled again with a nil shape, which
// sorts the patterns into a tree as Train does.
func sortedTwin(t testing.TB, loaded *Model) *Model {
	t.Helper()
	live, _ := loaded.livePatterns()
	twin, err := assemble(loaded.params, loaded.regions, pattern.TableOf(live), loaded.bounds, nil)
	if err != nil {
		t.Fatalf("assembling the loaded parts without a shape: %v", err)
	}
	return twin
}

// TestLoadReadsSavedShape: a model that lived through Extends comes back
// with the tree it was saved with — same arrangement, refs at live rank,
// every leaf key the encoding of its pattern under the loaded tables — and
// answers exactly like the model that was never saved and like the same
// parts assembled without the shape, through the sort.
func TestLoadReadsSavedShape(t *testing.T) {
	m, subs, period := livedInModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	read, err := Load(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	sorted := sortedTwin(t, read)
	want := savedShape(m)
	if got := read.engine.Tree().Shape(); !reflect.DeepEqual(got, want) {
		t.Fatal("the loaded tree does not have the saved tree's shape")
	}
	if reflect.DeepEqual(sorted.engine.Tree().Shape(), want) {
		t.Fatal("the lived-in tree is packed like a fresh bulk load: the test shows nothing")
	}
	for _, back := range []*Model{read, sorted} {
		if back.NumPatterns() != m.NumPatterns() || back.engine.Refs() != m.NumPatterns() {
			t.Fatalf("%d live patterns under %d refs, saved %d", back.NumPatterns(), back.engine.Refs(), m.NumPatterns())
		}
		if leaves := checkLeaves(t, back); leaves != m.NumPatterns() {
			t.Fatalf("%d leaf entries for %d patterns", leaves, m.NumPatterns())
		}
	}

	// The unsaved model names patterns by refs with holes, the loaded ones
	// by rank: renumber before comparing, the order-preserving way Save does.
	_, rank := m.livePatterns()
	atRank := func(ps []hpa.Prediction) []hpa.Prediction {
		out := append([]hpa.Prediction(nil), ps...)
		for i := range out {
			if out[i].PatternRef >= 0 {
				out[i].PatternRef = int(rank[out[i].PatternRef])
			}
		}
		return out
	}
	queries, byPattern := 0, 0
	for day := len(subs) - 6; day < len(subs); day++ {
		for _, at := range []int{9, 24, 41} {
			var recent []trajectory.TimedPoint
			for off := at - 9; off <= at; off++ {
				recent = append(recent, trajectory.TimedPoint{T: day*period + off, Loc: subs[day].Points[off]})
			}
			var tqs []int
			for _, h := range []int{1, 3, 8, 20, 59, 75, 130} {
				tqs = append(tqs, day*period+at+h)
			}
			batchWant, err := m.PredictBatch(recent, tqs, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, back := range []*Model{read, sorted} {
				batch, err := back.PredictBatch(recent, tqs, 3)
				if err != nil {
					t.Fatal(err)
				}
				for i, tq := range tqs {
					want, err := m.Predict(recent, tq, 3)
					if err != nil {
						t.Fatal(err)
					}
					got, err := back.Predict(recent, tq, 3)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, atRank(want)) || !reflect.DeepEqual(batch[i], atRank(batchWant[i])) {
						t.Fatalf("day %d offset %d tq %d (sorted=%v):\n got %+v\nwant %+v", day, at, tq, back == sorted, got, atRank(want))
					}
					queries++
					if len(want) > 0 && want[0].Source == hpa.SourcePattern {
						byPattern++
					}
				}
			}
		}
	}
	if byPattern < queries/4 {
		t.Fatalf("only %d of %d queries were answered by a pattern", byPattern, queries)
	}
}

// fixtureModel cuts the trained object's model stream out of the store's
// committed golden directory: bytes the parent commit wrote.
func fixtureModel(t testing.TB) []byte {
	t.Helper()
	seg, err := os.ReadFile(filepath.Join("..", "..", "store", "testdata", "fleet", "seg-00024-0000000001.hpms"))
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(seg, []byte(modelMagic+string(rune(modelVersion))))
	if start < 0 {
		t.Fatal("no current-version model stream in the fixture")
	}
	for end := start; ; {
		i := bytes.Index(seg[end:], []byte(modelTrailer))
		if i < 0 {
			t.Fatal("no prefix of the fixture's model stream loads")
		}
		end += i + len(modelTrailer)
		if _, err := Load(bytes.NewReader(seg[start:end])); err == nil {
			return seg[start:end]
		}
	}
}

// TestLoadRefusesRetiredVersion: a stream whose version byte is not
// modelVersion is refused by number, older or newer.
func TestLoadRefusesRetiredVersion(t *testing.T) {
	for _, v := range []byte{0, 1, modelVersion + 1} {
		stream := bytes.Clone(fixtureModel(t))
		stream[len(modelMagic)] = v
		_, err := Load(bytes.NewReader(stream))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d,", v)) || !strings.Contains(err.Error(), "DESIGN.md") {
			t.Errorf("version %d: %v, want a refusal that names the version and DESIGN.md's upgrade note", v, err)
		}
	}
}

// resetUvarint returns a copy of b with the uvarint at at replaced by f of
// it.
func resetUvarint(b []byte, at int, f func(uint64) uint64) []byte {
	v, k := binary.Uvarint(b[at:])
	out := binary.AppendUvarint(bytes.Clone(b[:at]), f(v))
	return append(out, b[at+k:]...)
}

// farOffsetStream returns stream with its first region moved to offset 2³⁰.
func farOffsetStream(stream []byte) []byte {
	at := bytes.Index(stream, []byte("HPMR")) + 4 + 8 // the table's magic, eps
	for range 2 {                                     // sub-trajectories, regions
		_, k := binary.Uvarint(stream[at:])
		at += k
	}
	return resetUvarint(stream, at, func(uint64) uint64 { return 1 << 30 })
}

// overcountedStream returns stream with a rule count its bytes cannot hold:
// one rule a byte.
func overcountedStream(stream []byte) []byte {
	return resetUvarint(stream, bytes.Index(stream, []byte("HPMP"))+4, func(uint64) uint64 { return uint64(len(stream)) })
}

// rowStream returns a fleet-shaped Bike model's stream with one more rule
// of confidence conf: pick chooses its regions from one region per offset,
// ascending, and the rule's premise is what it returns but the last, in
// that order, its consequence the last.
func rowStream(tb testing.TB, conf float64, pick func(byOffset []pattern.RegionID) []pattern.RegionID) []byte {
	tb.Helper()
	m, err := TrainSubTrajectories(fleetSubs(tb, datagen.Bike, fleetPeriod, fleetTrainPeriods), Params{Period: fleetPeriod})
	if err != nil {
		tb.Fatal(err)
	}
	var byOffset []pattern.RegionID // one region per offset, ascending
	for off := range fleetPeriod {
		if at := regionsAt(m.regions, off); len(at) > 0 {
			byOffset = append(byOffset, at[0].ID)
		}
	}
	ids := pick(byOffset)
	m.engine.Apply(nil, 0, nil, pattern.TableOf([]pattern.Pattern{{Premise: ids[:len(ids)-1], Consequence: ids[len(ids)-1], Confidence: conf, Support: 2}}))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// longRuleStream holds a rule of ten regions, past the three MaxLength
// allows by default and the eight an itemset's identity holds: the decoder
// once accepted it, and the model's first Extend panicked.
func longRuleStream(tb testing.TB) []byte {
	return rowStream(tb, 0.5, func(ids []pattern.RegionID) []pattern.RegionID { return ids[:10] })
}

// unorderedRuleStream holds a rule of three regions whose premise descends
// in time offset.
func unorderedRuleStream(tb testing.TB) []byte {
	return rowStream(tb, 0.5, func(ids []pattern.RegionID) []pattern.RegionID {
		return []pattern.RegionID{ids[1], ids[0], ids[2]}
	})
}

// confidenceStream holds a rule of two regions with confidence conf. The
// decoder once accepted any float there, though BQP stops reading ranked
// lists on the bound that a confidence is at most 1.
func confidenceStream(tb testing.TB, conf float64) []byte {
	return rowStream(tb, conf, func(ids []pattern.RegionID) []pattern.RegionID { return ids[:2] })
}

// zeroSupportStream returns a fleet-shaped Bike model's stream with its
// first region's support set to 0, which the region's visitor bitmap
// contradicts. The decoder once accepted it, and the model's first Extend
// left 59 of its 6 730 live rules with a confidence above 1 or not finite.
func zeroSupportStream(tb testing.TB) []byte {
	tb.Helper()
	m, err := TrainSubTrajectories(fleetSubs(tb, datagen.Bike, fleetPeriod, fleetTrainPeriods), Params{Period: fleetPeriod})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	stream := buf.Bytes()
	at := bytes.Index(stream, []byte("HPMR")) + 4 + 8 // the table's magic, eps
	for range 4 {                                     // sub-trajectories, regions; region 0's offset, index
		_, k := binary.Uvarint(stream[at:])
		at += k
	}
	at += 6 * 8 // its centre and MBR
	return resetUvarint(stream, at, func(uint64) uint64 { return 0 })
}

// TestLoadRefusesRowsSaveNeverWrites: a rule longer than the model's
// MaxLength, one whose premise does not ascend in time offset before its
// consequence, one whose confidence is above 1, and a region whose support
// is not its visitor bitmap's count are refused where the stream is read.
// Save writes none of them. The first Extend binds every loaded rule to the
// miner by its row, which holds only for the rules Save writes, computes
// confidences from a region's support and its bitmap as if they agreed,
// and BQP's stop rule holds only for confidences of at most 1.
func TestLoadRefusesRowsSaveNeverWrites(t *testing.T) {
	for _, tc := range []struct {
		name, refusal string
		stream        []byte
	}{
		{"ten regions", "past MaxLength 3", longRuleStream(t)},
		{"premise out of order", "do not ascend in time offset", unorderedRuleStream(t)},
		{"support off its bitmap", "region 0 has support 0 and", zeroSupportStream(t)},
		{"confidence above 1", "confidence 1.5, outside [0, 1]", confidenceStream(t, 1.5)},
	} {
		if _, _, err := Decode(tc.stream, fleetPeriod); err == nil || !strings.Contains(err.Error(), tc.refusal) {
			t.Errorf("%s: %v, want a refusal saying %q", tc.name, err, tc.refusal)
		}
	}
}

// TestLoadRefusesHostileClaims: a region at offset 2³⁰ — past any period,
// and what a table indexed by offset would be sized by — and a rule count
// the bytes behind it cannot hold are refused for what they claim, neither
// allocating what the claim calls for.
func TestLoadRefusesHostileClaims(t *testing.T) {
	stream := fixtureModel(t)
	for _, tc := range []struct {
		name, refusal string
		bad           []byte
	}{
		{"far offset", "outside a period", farOffsetStream(stream)},
		{"count past the bytes", "cannot fit", overcountedStream(stream)},
	} {
		name, bad := tc.name, tc.bad
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := Decode(bad, 0)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.refusal) {
			t.Errorf("%s: %v, want a refusal saying %q", name, err, tc.refusal)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(bad)) {
			t.Errorf("%s: refusing %d bytes allocated %d", name, len(bad), grew)
		}
	}
}

// loadModelSeeds is FuzzLoadModel's corpus.
func loadModelSeeds(tb testing.TB) [][]byte {
	subs, err := datagen.Generate(datagen.Spec{Kind: datagen.Cow, Period: 30, SubTrajectories: 8, Seed: 7}).Decompose(30)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := TrainSubTrajectories(subs, Params{Period: 30})
	if err != nil {
		tb.Fatal(err)
	}
	var fresh bytes.Buffer
	if err := m.Save(&fresh); err != nil {
		tb.Fatal(err)
	}
	var seeds [][]byte
	streams := [][]byte{fixtureModel(tb), fresh.Bytes()}
	for _, stream := range streams {
		seeds = append(seeds, stream)
		for _, cut := range []int{5, len(stream) / 3, len(stream) - 40, len(stream) - 5, len(stream) - 1} {
			seeds = append(seeds, stream[:cut])
		}
		for at := 0; at < 12; at++ {
			flipped := bytes.Clone(stream)
			flipped[len(flipped)-1-at*len(flipped)/12] ^= 1 << (at % 8)
			seeds = append(seeds, flipped)
		}
	}
	for _, stream := range streams {
		seeds = append(seeds, farOffsetStream(stream), overcountedStream(stream))
	}
	return append(seeds, longRuleStream(tb), unorderedRuleStream(tb), zeroSupportStream(tb), confidenceStream(tb, math.NaN()))
}

// refReadRules is pattern.ReadRules as it read a rule list before it held
// each rule to the rows Save writes, through the cursor's exported reads:
// region ids checked, a premise of at most 64 regions, in any order.
func refReadRules(c *pattern.Cursor, rt *pattern.RegionTable) (*pattern.Table, error) {
	count := func() int {
		v := c.Uvarint()
		if v > math.MaxInt32 {
			c.Fail(fmt.Errorf("implausible count %d", v))
			return 0
		}
		return int(v)
	}
	id := func() pattern.RegionID {
		u := c.Uvarint()
		v := int64(u>>1) ^ -int64(u&1)
		if c.Err() == nil && (v < 0 || v >= int64(rt.Len())) {
			c.Fail(fmt.Errorf("region id %d out of %d", v, rt.Len()))
		}
		return pattern.RegionID(v)
	}
	if magic := c.Bytes(4); c.Err() == nil && string(magic) != "HPMP" {
		c.Fail(fmt.Errorf("bad magic %q", magic))
	}
	n := count()
	if c.Err() == nil && n > c.Remaining()/11 {
		c.Fail(fmt.Errorf("%d patterns cannot fit in %d bytes", n, c.Remaining()))
	}
	if c.Err() != nil {
		return nil, c.Err()
	}
	t := pattern.NewTable(n, 0)
	for range n {
		premLen := count()
		if premLen > 64 {
			c.Fail(fmt.Errorf("implausible premise length %d", premLen))
			return nil, c.Err()
		}
		p := pattern.Pattern{Premise: make([]pattern.RegionID, premLen)}
		for j := range p.Premise {
			p.Premise[j] = id()
		}
		p.Consequence, p.Confidence, p.Support = id(), c.Float(), count()
		if c.Err() != nil {
			return nil, c.Err()
		}
		t.Append(p)
	}
	return t, nil
}

// rulesAt walks a model stream to its rule list as decode does and returns
// the cursor there, the region table and the stream's mining bounds; ok is
// false when the stream fails before its rules.
func rulesAt(stream []byte) (c pattern.Cursor, rt *pattern.RegionTable, cfg pattern.Config, ok bool) {
	c = pattern.NewCursor(stream)
	c.Bytes(len(modelMagic) + 1)
	var params Params
	if pj := c.Blob(1 << 20); c.Err() != nil || json.Unmarshal(pj, &params) != nil || params.Period <= 0 {
		return c, nil, cfg, false
	}
	for range 4 { // bounds
		c.Float()
	}
	rt, err := pattern.ReadRegionTable(&c, params.Period)
	return c, rt, params.Mining, err == nil
}

// TestReadRulesMatchesReferenceOnModels: over FuzzLoadModel's corpus and a
// fleet-shaped model of each kind, trained and after Extends that mint
// regions, ReadRules accepts what refReadRules accepts, into an equal table,
// and refuses the same rule lists but the ones holding a row Save never
// writes — refused for that row.
func TestReadRulesMatchesReferenceOnModels(t *testing.T) {
	corpus := loadModelSeeds(t)
	for _, kind := range datagen.Kinds {
		subs := fleetSubs(t, kind, fleetPeriod, fleetTrainPeriods+8)
		m, err := TrainSubTrajectories(subs[:fleetTrainPeriods], Params{Period: fleetPeriod})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= 8; i += 8 {
			if _, err := m.Extend(subs[fleetTrainPeriods : fleetTrainPeriods+i]); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, buf.Bytes())
		}
	}
	accepted, rowRefusals := 0, 0
	for n, stream := range corpus {
		c, rt, cfg, ok := rulesAt(stream)
		if !ok {
			continue
		}
		ref := c
		table, err := pattern.ReadRules(&c, rt, cfg)
		want, wantErr := refReadRules(&ref, rt)
		switch {
		case wantErr != nil && err == nil:
			t.Errorf("stream %d: accepted what the reference refuses (%v)", n, wantErr)
		case wantErr == nil && err != nil:
			if savedRows(want, rt, cfg) || !strings.Contains(err.Error(), "ascend") && !strings.Contains(err.Error(), "MaxLength") && !strings.Contains(err.Error(), "outside [0, 1]") {
				t.Errorf("stream %d: refused (%v) what the reference reads to rows Save writes", n, err)
			}
			rowRefusals++
		case err == nil:
			if !reflect.DeepEqual(table.Patterns(), want.Patterns()) || c.Offset() != ref.Offset() {
				t.Errorf("stream %d: decoded %d rules to byte %d, the reference %d to byte %d", n, table.Len(), c.Offset(), want.Len(), ref.Offset())
			}
			accepted++
		}
	}
	if accepted < 10 || rowRefusals < 2 {
		t.Errorf("%d rule lists accepted, %d refused for their rows; the corpus shows too little", accepted, rowRefusals)
	}
}

// savedRows reports whether every row of t is one Save writes: at most
// cfg's MaxLength regions, offsets strictly ascending to the consequence, a
// confidence in [0, 1].
func savedRows(t *pattern.Table, rt *pattern.RegionTable, cfg pattern.Config) bool {
	maxLen := cfg.MaxLength
	if maxLen <= 0 {
		maxLen = pattern.DefaultMaxLength
	}
	maxLen = min(maxLen, pattern.MaxIdentityLen)
	for i := 0; i < t.Len(); i++ {
		ids := append(t.Premise(i), t.Consequence(i))
		if conf := t.Confidence(i); len(ids) > maxLen || !(conf >= 0 && conf <= 1) {
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

// FuzzLoadModel: Load never panics, and a stream it accepts yields a model
// whose index holds exactly its patterns under their own keys, which
// answers, saves, loads again, and — its period at most 1 000 — absorbs one
// more period through Extend. The seeds — the golden directory's stream, a
// freshly trained one, cuts and bit flips of both, each with a region at
// offset 2³⁰ and with a rule count its bytes cannot hold, the two rows Save
// never writes, and a region whose support its bitmap contradicts — run
// under plain go test.
func FuzzLoadModel(f *testing.F) {
	for _, seed := range loadModelSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if leaves := checkLeaves(t, m); leaves != m.NumPatterns() {
			t.Fatalf("%d leaf entries for %d patterns", leaves, m.NumPatterns())
		}
		for ref, rules := 0, m.engine.Rules(); ref < rules.Len(); ref++ {
			if conf := rules.Confidence(ref); !(conf >= 0 && conf <= 1) {
				t.Fatalf("rule %d loaded with confidence %g", ref, conf)
			}
		}
		period := m.Params().Period
		recent := []trajectory.TimedPoint{{T: period, Loc: geom.Pt(1, 2)}, {T: period + 1, Loc: geom.Pt(2, 3)}, {T: period + 2, Loc: geom.Pt(3, 5)}}
		for _, h := range []int{1, period / 2, 3 * period} {
			m.Predict(recent, period+2+h, 2) // an error is an answer; a panic is not
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("a loaded model does not save: %v", err)
		}
		if back, err := Load(&buf); err != nil || back.NumPatterns() != m.NumPatterns() {
			t.Fatalf("a loaded model's own stream: %v", err)
		}
		if period > 1000 {
			return
		}
		// One more period, through each offset's first region where it has
		// one: an error is an answer; a panic is not.
		day := trajectory.SubTrajectory{Index: m.regions.NumSubTrajectories(), Points: make([]geom.Point, period)}
		for off := range day.Points {
			if at := regionsAt(m.regions, off); len(at) > 0 {
				day.Points[off] = at[0].Center
			}
		}
		m.Extend([]trajectory.SubTrajectory{day})
	})
}
