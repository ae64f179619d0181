package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"hpm/internal/geom"
	"hpm/internal/hpa"
	"hpm/internal/pattern"
	"hpm/internal/tpt"
)

// Model persistence: a trained model round-trips through a versioned
// binary stream so deployments can mine once and serve from a saved file:
// the training parameters (JSON), the world bounds, the region table with
// visitor bitmaps (so incremental Extend keeps working after a reload), the
// live patterns in ref order — refs break ranking ties; the list stays the
// source of truth — and the length-prefixed shape of the pattern tree
// (tpt.Shape, refs renumbered to rank in the list). The tree's keys are
// never stored: Load encodes each leaf key from its pattern and ORs the
// levels above, which is every check a stored key would need, at ≈2 bytes
// per pattern where the slabs take 36. Load reads modelVersion and nothing
// else (DESIGN.md, "Upgrading an older directory"). A loaded tree keeps the
// packing it was saved with; the periodic Train repacks.
// The incremental miner is not stored — a just-trained model has none, a
// fleet's miners are three times its snapshot — and the first Extend after
// a load re-seeds it (DESIGN.md, "What one recovery costs").

const (
	modelMagic   = "HPMM"
	modelVersion = 2
	modelTrailer = "HPME"
)

// Save serializes the model.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(modelMagic) // bw latches an error for Flush
	bw.WriteByte(modelVersion)
	// Parameters as JSON: forward-compatible and human-inspectable.
	pj, err := json.Marshal(m.params)
	if err != nil {
		return fmt.Errorf("core: encode params: %w", err)
	}
	bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), uint64(len(pj))))
	bw.Write(pj)
	for _, v := range []float64{m.bounds.Min.X, m.bounds.Min.Y, m.bounds.Max.X, m.bounds.Max.Y} {
		bw.Write(binary.LittleEndian.AppendUint64(bw.AvailableBuffer(), math.Float64bits(v)))
	}
	if err := m.regions.WriteBinary(bw); err != nil {
		return err
	}
	// Live rules only: rows incremental training retired must not
	// resurrect on Load. Refs renumber to live rank; the miner reseeds lazily.
	if err := pattern.WriteRules(bw, m.engine.Rules(), m.engine.IsLive); err != nil {
		return err
	}
	rank := m.liveRank()
	shape := m.engine.Tree().Shape()
	for i, ref := range shape.Refs {
		shape.Refs[i] = rank[ref]
	}
	sb := shape.AppendBinary(nil)
	bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), uint64(len(sb))))
	bw.Write(sb)
	bw.WriteString(modelTrailer)
	return bw.Flush()
}

// Load deserializes a model written by Save and rebuilds its index and
// query engine. It reads r to its end: the stream is the whole input.
func Load(r io.Reader) (*Model, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read model: %w", err)
	}
	m, _, err := Decode(b, 0)
	return m, err
}

// Decode decodes the model stream at the head of b — the bytes behind it
// are not looked at — and reports how many bytes the stream took. It walks
// the bytes in place: parameters, bounds, region table, rule table, tree
// shape, trailer, each step one cursor's. A positive period is the one the
// stream must state: a store passes its own, so a stream's claim never
// sizes a per-offset table.
func Decode(b []byte, period int) (*Model, int, error) {
	c := pattern.NewCursor(b)
	m, err := decode(&c, period)
	return m, c.Offset(), err
}

func decode(c *pattern.Cursor, period int) (*Model, error) {
	head := c.Bytes(len(modelMagic) + 1)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("core: read header: %w", err)
	}
	if string(head[:len(modelMagic)]) != modelMagic {
		return nil, fmt.Errorf("core: not a model stream (magic %q)", head[:len(modelMagic)])
	}
	if v := head[len(modelMagic)]; v != modelVersion {
		return nil, fmt.Errorf("core: model stream version %d, this build reads %d only (DESIGN.md, \"Upgrading an older directory\")", v, modelVersion)
	}
	pj := c.Blob(1 << 20)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("core: read params: %w", err)
	}
	var params Params
	if err := json.Unmarshal(pj, &params); err != nil {
		return nil, fmt.Errorf("core: decode params: %w", err)
	}
	// The period bounds every region offset the table may hold.
	if params.Period <= 0 {
		return nil, fmt.Errorf("core: model stream states period %d, want a positive one", params.Period)
	}
	if period > 0 && params.Period != period {
		return nil, fmt.Errorf("core: model stream states period %d, want %d", params.Period, period)
	}
	bounds := geom.Rect{Min: geom.Pt(c.Float(), c.Float()), Max: geom.Pt(c.Float(), c.Float())}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("core: read bounds: %w", err)
	}
	regions, err := pattern.ReadRegionTable(c, params.Period)
	if err != nil {
		return nil, fmt.Errorf("core: read regions: %w", err)
	}
	rules, err := pattern.ReadRules(c, regions, params.Mining)
	if err != nil {
		return nil, fmt.Errorf("core: read patterns: %w", err)
	}
	sb := c.Blob(1 << 30)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("core: read tree shape: %w", err)
	}
	shape, err := tpt.DecodeShape(sb)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	trailer := c.Bytes(len(modelTrailer))
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("core: read trailer: %w", err)
	}
	if string(trailer) != modelTrailer {
		return nil, fmt.Errorf("core: corrupt stream trailer %q", trailer)
	}
	return assemble(params, regions, rules, bounds, &shape)
}

// liveRank returns each ref's place among the live refs, which is the ref
// it saves under.
func (m *Model) liveRank() []int32 {
	rank := make([]int32, m.engine.Refs())
	live := int32(0)
	for ref := range rank {
		if m.engine.IsLive(ref) {
			rank[ref] = live
			live++
		}
	}
	return rank
}

// assemble builds a query-ready model from its persistent parts; shared by
// Load and (logically) the tail of TrainSubTrajectories. A nil shape sorts.
func assemble(params Params, regions *pattern.RegionTable, rules *pattern.Table, bounds geom.Rect, shape *tpt.Shape) (*Model, error) {
	// Idempotent on params a Train saved; fills the zeros of any other
	// stream so later extends never see an unset Eps or MinPts.
	params = params.withDefaults()
	m := &Model{
		params:  params,
		regions: regions,
		bounds:  bounds,
	}
	// The chain starts empty on load: its state lives outside the model
	// stream, so the owner either restores it (LoadMarkov) or re-folds the
	// retained track (RebuildMarkov).
	m.initMarkov()
	var err error
	if m.engine, err = hpa.NewEngine(regions, rules, m.engineConfig(&bounds), params.Tree, shape); err != nil {
		return nil, err
	}
	m.encoder = m.engine.Encoder()
	return m, nil
}
