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
	if _, err := bw.WriteString(modelMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(modelVersion); err != nil {
		return err
	}
	// Parameters as JSON: forward-compatible and human-inspectable.
	pj, err := json.Marshal(m.params)
	if err != nil {
		return fmt.Errorf("core: encode params: %w", err)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	if _, err := bw.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(pj)))]); err != nil {
		return err
	}
	if _, err := bw.Write(pj); err != nil {
		return err
	}
	for _, v := range []float64{m.bounds.Min.X, m.bounds.Min.Y, m.bounds.Max.X, m.bounds.Max.Y} {
		var fb [8]byte
		binary.LittleEndian.PutUint64(fb[:], math.Float64bits(v))
		if _, err := bw.Write(fb[:]); err != nil {
			return err
		}
	}
	if err := m.regions.WriteBinary(bw); err != nil {
		return err
	}
	// Live patterns only: entries incremental training retired must not
	// resurrect on Load. Refs renumber to live rank; the miner reseeds lazily.
	live, rank := m.livePatterns()
	if err := pattern.WritePatterns(bw, live); err != nil {
		return err
	}
	shape := m.engine.Tree().Shape()
	for i, ref := range shape.Refs {
		shape.Refs[i] = rank[ref]
	}
	sb := shape.AppendBinary(nil)
	bw.Write(binary.AppendUvarint(lenBuf[:0], uint64(len(sb)))) // bw latches an error for Flush
	bw.Write(sb)
	if _, err := bw.WriteString(modelTrailer); err != nil {
		return err
	}
	return bw.Flush()
}

// Load deserializes a model written by Save and rebuilds its index and
// query engine.
func Load(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(modelMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("core: read header: %w", err)
	}
	if string(head[:len(modelMagic)]) != modelMagic {
		return nil, fmt.Errorf("core: not a model stream (magic %q)", head[:len(modelMagic)])
	}
	if v := head[len(modelMagic)]; v != modelVersion {
		return nil, fmt.Errorf("core: model stream version %d, this build reads %d only (DESIGN.md, \"Upgrading an older directory\")", v, modelVersion)
	}
	pj, err := pattern.ReadBlob(br, 1<<20)
	if err != nil {
		return nil, fmt.Errorf("core: read params: %w", err)
	}
	var params Params
	if err := json.Unmarshal(pj, &params); err != nil {
		return nil, fmt.Errorf("core: decode params: %w", err)
	}
	var bf [32]byte
	if _, err := io.ReadFull(br, bf[:]); err != nil {
		return nil, fmt.Errorf("core: read bounds: %w", err)
	}
	bounds := geom.Rect{
		Min: geom.Pt(math.Float64frombits(binary.LittleEndian.Uint64(bf[0:])),
			math.Float64frombits(binary.LittleEndian.Uint64(bf[8:]))),
		Max: geom.Pt(math.Float64frombits(binary.LittleEndian.Uint64(bf[16:])),
			math.Float64frombits(binary.LittleEndian.Uint64(bf[24:]))),
	}
	regions, err := pattern.ReadRegionTable(br)
	if err != nil {
		return nil, fmt.Errorf("core: read regions: %w", err)
	}
	patterns, err := pattern.ReadPatterns(br, regions)
	if err != nil {
		return nil, fmt.Errorf("core: read patterns: %w", err)
	}
	sb, err := pattern.ReadBlob(br, 1<<30)
	if err != nil {
		return nil, fmt.Errorf("core: read tree shape: %w", err)
	}
	shape, err := tpt.DecodeShape(sb)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	trailer := make([]byte, len(modelTrailer))
	if _, err := io.ReadFull(br, trailer); err != nil {
		return nil, fmt.Errorf("core: read trailer: %w", err)
	}
	if string(trailer) != modelTrailer {
		return nil, fmt.Errorf("core: corrupt stream trailer %q", trailer)
	}
	return assemble(params, regions, patterns, bounds, &shape)
}

// livePatterns filters tombstoned entries out of the ref-indexed slice;
// rank is each live ref's place among the survivors.
func (m *Model) livePatterns() (live []pattern.Pattern, rank []int32) {
	live = make([]pattern.Pattern, 0, m.engine.LivePatterns())
	rank = make([]int32, m.engine.Refs())
	for ref := range rank {
		if m.engine.IsLive(ref) {
			rank[ref] = int32(len(live))
			live = append(live, m.engine.Pattern(ref))
		}
	}
	return live, rank
}

// assemble builds a query-ready model from its persistent parts; shared by
// Load and (logically) the tail of TrainSubTrajectories. A nil shape sorts.
func assemble(params Params, regions *pattern.RegionTable, patterns []pattern.Pattern, bounds geom.Rect, shape *tpt.Shape) (*Model, error) {
	// Idempotent on params a Train saved; fills the zeros of any other
	// stream so later extends never see an unset Eps or MinPts.
	params = params.withDefaults()
	ct := pattern.NewConsequenceTable(regions, patterns)
	enc := pattern.NewEncoder(regions, ct)
	m := &Model{
		params:  params,
		regions: regions,
		encoder: enc,
		bounds:  bounds,
	}
	// The chain starts empty on load: its state lives outside the model
	// stream, so the owner either restores it (LoadMarkov) or re-folds the
	// retained track (RebuildMarkov).
	m.initMarkov()
	var err error
	if m.engine, err = hpa.NewEngine(enc, patterns, m.engineConfig(&bounds), params.Tree, shape); err != nil {
		return nil, err
	}
	return m, nil
}
