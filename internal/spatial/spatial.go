// Package spatial maintains a concurrent uniform-grid index over the fleet's
// *predicted* positions, answering the inverse of the per-object query
// surface: "which objects are predicted inside rect R at horizon h?" and
// "which k objects are predicted nearest P at horizon h?".
//
// The index is maintained incrementally, never on the query path. On every
// acknowledged observation (and on every predictor swap) the owner recomputes
// the object's predictions at a small set of fixed horizon buckets — the same
// buckets the online evaluator scores against — and re-bins the entries into
// grid cells. Queries therefore touch only cached positions: no model is
// fitted and no trajectory-pattern tree is walked while answering a fleet
// query, which is what makes range/kNN sub-linear in fleet size.
//
// The index is exact and has no clock: a query reports each object's cached
// position as written by its last Update, so answers are bit-identical to
// recomputing every prediction from scratch, a property the store's tests
// pin.
package spatial

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"hpm/internal/geom"
)

// DefaultHorizons mirrors evalq.DefaultBuckets so indexed horizons line up
// with the online evaluator's accuracy matrix: a query at horizon h is
// answered from the first bucket >= h.
var DefaultHorizons = []int{5, 10, 20, 50, 100, 200}

const (
	numStripes = 64 // power of two
	numShards  = 16 // power of two
)

// Config shapes one Index. The zero value is unusable; CellSize must be
// positive.
type Config struct {
	// CellSize is the grid pitch in world units. Smaller cells mean fewer
	// false candidates per query but more re-bins as objects move.
	CellSize float64

	// Horizons are the prediction offsets (ticks ahead of each object's
	// latest observation) cached per object, ascending. Empty means
	// DefaultHorizons. A query horizon is quantized to the first bucket
	// >= h; beyond the last it clamps to the last.
	Horizons []int
}

// Entry is one cached prediction handed to Update: the object's predicted
// position Horizon ticks after its latest observation and the answering-path
// tag ("forward", "backward", "fallback", or "extrapolation" for untrained
// objects).
type Entry struct {
	Horizon int
	Pos     geom.Point
	Path    string
}

// Result is one query answer: the cached predicted position of an object at
// the quantized horizon. Dist is filled by Nearest.
type Result struct {
	ID      string
	Pos     geom.Point
	Path    string
	Horizon int
	Dist    float64
}

// Stats is a point-in-time snapshot of index shape and traffic.
type Stats struct {
	Objects      int64 `json:"objects"`
	Entries      int64 `json:"entries"`
	Updates      int64 `json:"updates"`
	Rebins       int64 `json:"rebins"`
	RangeQueries int64 `json:"range_queries"`
	KNNQueries   int64 `json:"knn_queries"`
}

type cellKey struct {
	cx, cy int32
	b      uint8 // horizon bucket index
}

// gridEntry is the cell-resident payload; the owning map key carries the id.
type gridEntry struct {
	pos  geom.Point
	path string
}

type stripe struct {
	mu    sync.RWMutex
	cells map[cellKey]map[string]gridEntry
}

type slot struct {
	ok  bool
	key cellKey
	ge  gridEntry // last value written, for unchanged-entry elision
}

// objState serializes updates for one object; its slots remember which cell
// each horizon bucket currently occupies so unchanged entries re-bin with a
// single in-place write.
type objState struct {
	mu    sync.Mutex
	slots []slot
}

type objShard struct {
	mu sync.Mutex
	m  map[string]*objState
}

type cellBounds struct {
	ok                     bool
	minX, minY, maxX, maxY int64
}

// Index is the concurrent grid. All methods are safe for arbitrary
// interleaving; per-object update order is the caller's responsibility
// (the store calls Update under the object's write lock).
type Index struct {
	cfg     Config
	stripes [numStripes]stripe
	shards  [numShards]objShard

	// bbox bounds the occupied cells (never shrinks); it caps cell
	// iteration for huge rects and terminates kNN ring expansion.
	bboxMu sync.Mutex
	bbox   cellBounds

	objects      atomic.Int64
	entries      atomic.Int64
	updates      atomic.Int64
	rebins       atomic.Int64
	rangeQueries atomic.Int64
	knnQueries   atomic.Int64
}

// New builds an empty index. It panics if CellSize is not positive — the
// store validates user input before constructing one.
func New(cfg Config) *Index {
	if len(cfg.Horizons) == 0 {
		cfg.Horizons = DefaultHorizons
	}
	if cfg.CellSize <= 0 {
		panic("spatial: CellSize must be positive")
	}
	ix := &Index{cfg: cfg}
	for i := range ix.stripes {
		ix.stripes[i].cells = make(map[cellKey]map[string]gridEntry)
	}
	for i := range ix.shards {
		ix.shards[i].m = make(map[string]*objState)
	}
	return ix
}

// Horizons returns the configured horizon buckets (not a copy; treat as
// read-only).
func (ix *Index) Horizons() []int { return ix.cfg.Horizons }

// BucketHorizon quantizes a query horizon to the bucket it is answered from:
// the first configured horizon >= h, clamping to the last beyond it.
func (ix *Index) BucketHorizon(h int) int {
	return ix.cfg.Horizons[ix.bucket(h)]
}

func (ix *Index) bucket(h int) uint8 {
	for i, bh := range ix.cfg.Horizons {
		if h <= bh {
			return uint8(i)
		}
	}
	return uint8(len(ix.cfg.Horizons) - 1)
}

// coord maps a world coordinate to its grid column (or row), saturating at
// the int32 range instead of wrapping: a converted float out of range is
// implementation-defined in Go. The two edge cells therefore hold everything
// beyond them, ±Inf included, which keeps every coordinate inside its cell's
// extent — the property Nearest's stopping rule relies on.
func (ix *Index) coord(v float64) int64 {
	c := math.Floor(v / ix.cfg.CellSize)
	switch {
	case c >= math.MaxInt32:
		return math.MaxInt32
	case c > math.MinInt32:
		return int64(c)
	}
	return math.MinInt32 // at or below the range, or NaN
}

func (ix *Index) cellOf(p geom.Point, b uint8) cellKey {
	return cellKey{cx: int32(ix.coord(p.X)), cy: int32(ix.coord(p.Y)), b: b}
}

func (ix *Index) stripeFor(k cellKey) *stripe {
	h := uint32(k.cx)*0x9E3779B1 ^ uint32(k.cy)*0x85EBCA77 ^ uint32(k.b)*0xC2B2AE3D
	h ^= h >> 15
	return &ix.stripes[h&(numStripes-1)]
}

func (ix *Index) shardFor(id string) *objShard {
	var h uint32 = 2166136261
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return &ix.shards[h&(numShards-1)]
}

func (ix *Index) expandBBox(k cellKey) {
	cx, cy := int64(k.cx), int64(k.cy)
	ix.bboxMu.Lock()
	if !ix.bbox.ok {
		ix.bbox = cellBounds{ok: true, minX: cx, minY: cy, maxX: cx, maxY: cy}
	} else {
		ix.bbox.minX = min(ix.bbox.minX, cx)
		ix.bbox.minY = min(ix.bbox.minY, cy)
		ix.bbox.maxX = max(ix.bbox.maxX, cx)
		ix.bbox.maxY = max(ix.bbox.maxY, cy)
	}
	ix.bboxMu.Unlock()
}

func (ix *Index) loadBBox() cellBounds {
	ix.bboxMu.Lock()
	b := ix.bbox
	ix.bboxMu.Unlock()
	return b
}

// bucketExact maps an entry's Horizon to its bucket index; a linear scan of
// the small horizon table beats a map lookup on the update hot path.
func (ix *Index) bucketExact(h int) (uint8, bool) {
	for i, bh := range ix.cfg.Horizons {
		if bh == h {
			return uint8(i), true
		}
	}
	return 0, false
}

// Update replaces the object's cached entries. Entries whose Horizon is not
// a configured bucket are ignored. Entries occupying the same cell as before
// are overwritten in place; movers are removed from the old cell and inserted
// into the new one (a "re-bin").
func (ix *Index) Update(id string, entries []Entry) {
	sh := ix.shardFor(id)
	sh.mu.Lock()
	st := sh.m[id]
	if st == nil {
		st = &objState{slots: make([]slot, len(ix.cfg.Horizons))}
		sh.m[id] = st
		ix.objects.Add(1)
	}
	sh.mu.Unlock()
	ix.updates.Add(1)

	st.mu.Lock()
	seen := 0 // bitmask of bucket indices present in entries
	for _, e := range entries {
		b, ok := ix.bucketExact(e.Horizon)
		if !ok {
			continue
		}
		seen |= 1 << b
		ge := gridEntry{pos: e.Pos, path: e.Path}
		sl := &st.slots[b]
		// Stationary case: the cached value is already exact (equal position
		// implies equal cell) — skip the cell math and the map write.
		if sl.ok && ge == sl.ge {
			continue
		}
		key := ix.cellOf(e.Pos, b)
		if sl.ok && sl.key == key {
			sl.ge = ge
			s := ix.stripeFor(key)
			s.mu.Lock()
			s.cells[key][id] = ge
			s.mu.Unlock()
			continue
		}
		if sl.ok {
			ix.removeFromCell(sl.key, id)
			ix.rebins.Add(1)
		} else {
			ix.entries.Add(1)
		}
		ix.insertIntoCell(key, id, ge)
		sl.ok, sl.key, sl.ge = true, key, ge
	}
	// Buckets absent from this update (e.g. a predictor that stopped
	// answering a horizon) are dropped so queries never see ghosts.
	for b := range st.slots {
		if seen&(1<<b) == 0 && st.slots[b].ok {
			ix.removeFromCell(st.slots[b].key, id)
			st.slots[b].ok = false
			ix.entries.Add(-1)
		}
	}
	st.mu.Unlock()
}

func (ix *Index) insertIntoCell(k cellKey, id string, ge gridEntry) {
	s := ix.stripeFor(k)
	s.mu.Lock()
	c := s.cells[k]
	if c == nil {
		c = make(map[string]gridEntry)
		s.cells[k] = c
	}
	c[id] = ge
	s.mu.Unlock()
	ix.expandBBox(k)
}

func (ix *Index) removeFromCell(k cellKey, id string) {
	s := ix.stripeFor(k)
	s.mu.Lock()
	if c := s.cells[k]; c != nil {
		delete(c, id)
		if len(c) == 0 {
			delete(s.cells, k)
		}
	}
	s.mu.Unlock()
}

// Remove drops every entry for id. Idempotent.
func (ix *Index) Remove(id string) {
	sh := ix.shardFor(id)
	sh.mu.Lock()
	st := sh.m[id]
	if st != nil {
		delete(sh.m, id)
		ix.objects.Add(-1)
	}
	sh.mu.Unlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	for b := range st.slots {
		if st.slots[b].ok {
			ix.removeFromCell(st.slots[b].key, id)
			st.slots[b].ok = false
			ix.entries.Add(-1)
		}
	}
	st.mu.Unlock()
}

// Range returns every object whose cached prediction at the bucket for
// `horizon` lies inside r, sorted by id.
func (ix *Index) Range(r geom.Rect, horizon int) []Result {
	ix.rangeQueries.Add(1)
	bb := ix.loadBBox()
	if !bb.ok || !r.IsValid() {
		return nil
	}
	b := ix.bucket(horizon)
	bh := ix.cfg.Horizons[b]

	cx0, cx1 := max(ix.coord(r.Min.X), bb.minX), min(ix.coord(r.Max.X), bb.maxX)
	cy0, cy1 := max(ix.coord(r.Min.Y), bb.minY), min(ix.coord(r.Max.Y), bb.maxY)

	var out []Result
	var scratch []idEntry
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			scratch = ix.readCell(cellKey{cx: int32(cx), cy: int32(cy), b: b}, scratch[:0])
			for _, ie := range scratch {
				if r.Contains(ie.ge.pos) {
					out = append(out, Result{ID: ie.id, Pos: ie.ge.pos, Path: ie.ge.path, Horizon: bh})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

type idEntry struct {
	id string
	ge gridEntry
}

// readCell copies one cell's entries out under the stripe read lock.
func (ix *Index) readCell(k cellKey, buf []idEntry) []idEntry {
	s := ix.stripeFor(k)
	s.mu.RLock()
	for id, ge := range s.cells[k] {
		buf = append(buf, idEntry{id: id, ge: ge})
	}
	s.mu.RUnlock()
	return buf
}

// Nearest returns the k objects whose cached predictions at the bucket for
// `horizon` are closest to p, ascending by (distance, id). It walks square
// rings of cells around p's cell, clipped to the occupied bounding box:
// from the first ring that touches the box, until the kth-best distance is
// below rho·CellSize — p lies inside its own cell, so every cell of ring
// rho+1 is at least that far — or the rings have covered the box. The work
// is therefore bounded by the occupied region however far p lies from it.
func (ix *Index) Nearest(p geom.Point, k, horizon int) []Result {
	ix.knnQueries.Add(1)
	bb := ix.loadBBox()
	if !bb.ok || k <= 0 {
		return nil
	}
	b := ix.bucket(horizon)
	bh := ix.cfg.Horizons[b]
	ccx, ccy := ix.coord(p.X), ix.coord(p.Y)

	var best []Result
	var scratch []idEntry
	visit := func(cx, cy int64) {
		scratch = ix.readCell(cellKey{cx: int32(cx), cy: int32(cy), b: b}, scratch[:0])
		for _, ie := range scratch {
			best = append(best, Result{ID: ie.id, Pos: ie.ge.pos, Path: ie.ge.path, Horizon: bh, Dist: ie.ge.pos.Dist(p)})
		}
	}
	// row visits row cy of a ring between columns x0 and x1, clipped to the
	// box; col visits column cx between rows y0 and y1 likewise.
	row := func(cy, x0, x1 int64) {
		if cy >= bb.minY && cy <= bb.maxY {
			for cx := max(x0, bb.minX); cx <= min(x1, bb.maxX); cx++ {
				visit(cx, cy)
			}
		}
	}
	col := func(cx, y0, y1 int64) {
		if cx >= bb.minX && cx <= bb.maxX {
			for cy := max(y0, bb.minY); cy <= min(y1, bb.maxY); cy++ {
				visit(cx, cy)
			}
		}
	}

	// Chebyshev distances, in cells, from p's cell to the box's nearest
	// and farthest cells: the first and last rings that hold an entry.
	first := max(0, bb.minX-ccx, ccx-bb.maxX, bb.minY-ccy, ccy-bb.maxY)
	last := max(ccx-bb.minX, bb.maxX-ccx, ccy-bb.minY, bb.maxY-ccy)
	for rho := first; rho <= last; rho++ {
		row(ccy-rho, ccx-rho, ccx+rho)
		if rho > 0 {
			row(ccy+rho, ccx-rho, ccx+rho)
			col(ccx-rho, ccy-rho+1, ccy+rho-1)
			col(ccx+rho, ccy-rho+1, ccy+rho-1)
		}
		sort.Slice(best, func(i, j int) bool {
			if best[i].Dist != best[j].Dist {
				return best[i].Dist < best[j].Dist
			}
			return best[i].ID < best[j].ID
		})
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k && best[k-1].Dist < float64(rho)*ix.cfg.CellSize {
			break
		}
	}
	return best
}

// Stats snapshots the index counters.
func (ix *Index) Stats() Stats {
	return Stats{
		Objects:      ix.objects.Load(),
		Entries:      ix.entries.Load(),
		Updates:      ix.updates.Load(),
		Rebins:       ix.rebins.Load(),
		RangeQueries: ix.rangeQueries.Load(),
		KNNQueries:   ix.knnQueries.Load(),
	}
}
