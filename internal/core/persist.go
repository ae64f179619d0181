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
)

// Model persistence: a trained model round-trips through a versioned
// binary stream so deployments can mine once and serve from a saved file.
// The stream holds the training parameters (JSON), the world bounds, the
// region table with visitor bitmaps (so incremental Extend keeps working
// after a reload), and the pattern list. The TPT is not stored: Load
// rebuilds it by bulk load, measured at 0.27 ms per 1 000 patterns
// (tpt.BenchmarkBulkLoad) and about half of the 1.5 ms of CPU an average
// model of the benchmark fleet takes to load; decoding the patterns is
// most of the rest (DESIGN.md, "What one recovery costs"). The
// incremental miner is not stored either: the first Extend after a load
// re-seeds it, 6–9 ms for a ten-period Bike model and 2–3 ms for a Cow
// (BenchmarkSeedMiner), a quarter of a crash recovery's CPU where loading
// is 45 % (DESIGN.md, "What one miner costs").

const (
	modelMagic   = "HPMM"
	modelVersion = 1
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
	// resurrect on Load. Refs renumber on reload; the miner reseeds lazily.
	if err := pattern.WritePatterns(bw, m.livePatterns()); err != nil {
		return err
	}
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
	if head[len(modelMagic)] != modelVersion {
		return nil, fmt.Errorf("core: unsupported model version %d", head[len(modelMagic)])
	}
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("core: read params length: %w", err)
	}
	if plen > 1<<20 {
		return nil, fmt.Errorf("core: implausible params length %d", plen)
	}
	pj := make([]byte, plen)
	if _, err := io.ReadFull(br, pj); err != nil {
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
	trailer := make([]byte, len(modelTrailer))
	if _, err := io.ReadFull(br, trailer); err != nil {
		return nil, fmt.Errorf("core: read trailer: %w", err)
	}
	if string(trailer) != modelTrailer {
		return nil, fmt.Errorf("core: corrupt stream trailer %q", trailer)
	}
	return assemble(params, regions, patterns, bounds)
}

// livePatterns filters tombstoned entries out of the ref-indexed slice.
func (m *Model) livePatterns() []pattern.Pattern {
	out := make([]pattern.Pattern, 0, m.engine.LivePatterns())
	for ref := 0; ref < m.engine.Refs(); ref++ {
		if m.engine.IsLive(ref) {
			out = append(out, m.engine.Pattern(ref))
		}
	}
	return out
}

// assemble builds a query-ready model from its persistent parts; shared by
// Load and (logically) the tail of TrainSubTrajectories.
func assemble(params Params, regions *pattern.RegionTable, patterns []pattern.Pattern, bounds geom.Rect) (*Model, error) {
	// Parallelism is runtime-only and deliberately not serialized;
	// re-defaulting lets later retrains use this machine's cores.
	// withDefaults is idempotent on the rest.
	params = params.withDefaults()
	ct := pattern.NewConsequenceTable(regions, patterns)
	enc := pattern.NewEncoder(regions, ct)
	engine, err := hpa.NewEngine(enc, patterns, hpa.Config{
		Period:           params.Period,
		DistantThreshold: params.DistantThreshold,
		TimeRelaxation:   params.TimeRelaxation,
		Weight:           params.Weight,
		PenalizePremise:  !params.DisablePremisePenalty,
		NewMotion:        motionFactory(params, &bounds),
	}, params.Tree)
	if err != nil {
		return nil, err
	}
	m := &Model{
		params:  params,
		regions: regions,
		encoder: enc,
		engine:  engine,
		bounds:  bounds,
		stats:   pattern.Stats{Rules: len(patterns)},
	}
	// The chain starts empty on load: its state lives outside the model
	// stream, so the owner either restores it (LoadMarkov) or re-folds the
	// retained track (RebuildMarkov).
	m.initMarkov()
	return m, nil
}
