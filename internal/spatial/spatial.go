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
// Between observations an entry can optionally age: its position is
// extrapolated by the object's clamped per-tick velocity for up to MaxAgeTicks
// ticks (wall clock × TickHz), and entries unrefreshed for longer than
// Staleness stop being reported — the velocity-decay/staleness idiom of
// fixed-rate prediction publishers. With TickHz = 0 (the default) aging is
// off and query answers are bit-identical to recomputing every prediction
// from scratch, a property the store's tests pin.
package spatial

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hpm/internal/geom"
)

// DefaultHorizons mirrors evalq.DefaultBuckets so indexed horizons line up
// with the online evaluator's accuracy matrix: a query at horizon h is
// answered from the first bucket >= h.
var DefaultHorizons = []int{5, 10, 20, 50, 100, 200}

const (
	defaultMaxAgeTicks = 30
	numStripes         = 64 // power of two
	numShards          = 16 // power of two
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

	// MaxSpeed clamps the per-tick velocity stored with each entry (and
	// thereby the aging drift). Zero disables aging movement entirely.
	MaxSpeed float64

	// Staleness hides entries not refreshed within this window; zero keeps
	// entries visible until the object is removed.
	Staleness time.Duration

	// TickHz converts wall-clock seconds into logical ticks for aging.
	// Zero (default) disables aging: queries return exactly the cached
	// positions, which keeps indexed answers identical to a fresh scan.
	TickHz float64

	// MaxAgeTicks caps how far an entry extrapolates past its observation
	// (default 30 ticks), bounding both drift and the query inflation that
	// must account for it.
	MaxAgeTicks int

	// Now injects a clock for staleness/aging tests. Nil means time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if len(c.Horizons) == 0 {
		c.Horizons = DefaultHorizons
	}
	if c.MaxAgeTicks <= 0 {
		c.MaxAgeTicks = defaultMaxAgeTicks
	}
	if c.TickHz > 0 && c.MaxSpeed <= 0 {
		// Aging without a clamp would make query inflation unbounded;
		// default to half a cell per tick.
		c.MaxSpeed = c.CellSize / 2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Entry is one cached prediction handed to Update: the object's predicted
// position Horizon ticks after its latest observation, the per-tick velocity
// used for aging, and the answering-path tag ("forward", "backward",
// "fallback", or "extrapolation" for untrained objects).
type Entry struct {
	Horizon int
	Pos     geom.Point
	Vel     geom.Point
	Path    string
}

// Result is one query answer: the (possibly aged) predicted position of an
// object at the quantized horizon. Dist is filled by Nearest.
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
	vel  geom.Point
	path string
	obs  int64 // unixnano of the update that produced this entry
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
	minX, minY, maxX, maxY int32
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
	cfg = cfg.withDefaults()
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

// Timed reports whether entry timestamps affect query answers (staleness
// expiry or aging configured). An untimed index lets callers skip refreshes
// whose entries would be byte-identical to what is already stored.
func (ix *Index) Timed() bool { return ix.cfg.Staleness > 0 || ix.cfg.TickHz > 0 }

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

func (ix *Index) cellOf(p geom.Point, b uint8) cellKey {
	return cellKey{
		cx: int32(math.Floor(p.X / ix.cfg.CellSize)),
		cy: int32(math.Floor(p.Y / ix.cfg.CellSize)),
		b:  b,
	}
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
	ix.bboxMu.Lock()
	if !ix.bbox.ok {
		ix.bbox = cellBounds{ok: true, minX: k.cx, minY: k.cy, maxX: k.cx, maxY: k.cy}
	} else {
		if k.cx < ix.bbox.minX {
			ix.bbox.minX = k.cx
		}
		if k.cy < ix.bbox.minY {
			ix.bbox.minY = k.cy
		}
		if k.cx > ix.bbox.maxX {
			ix.bbox.maxX = k.cx
		}
		if k.cy > ix.bbox.maxY {
			ix.bbox.maxY = k.cy
		}
	}
	ix.bboxMu.Unlock()
}

func (ix *Index) loadBBox() cellBounds {
	ix.bboxMu.Lock()
	b := ix.bbox
	ix.bboxMu.Unlock()
	return b
}

// clampVel limits v to MaxSpeed per tick (the snippet-1 _clamp_speed idiom).
func (ix *Index) clampVel(v geom.Point) geom.Point {
	if ix.cfg.MaxSpeed <= 0 {
		return geom.Point{}
	}
	if n2 := v.X*v.X + v.Y*v.Y; n2 > ix.cfg.MaxSpeed*ix.cfg.MaxSpeed {
		return v.Scale(ix.cfg.MaxSpeed / math.Sqrt(n2))
	}
	return v
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

	// The timestamp only matters when queries apply staleness or aging;
	// skipping the clock (and the unchanged-entry elision below) keeps the
	// per-observe maintenance cost near the floor in the default config.
	timed := ix.Timed()
	var now int64
	if timed {
		now = ix.cfg.Now().UnixNano()
	}
	ix.updates.Add(1)

	st.mu.Lock()
	seen := 0 // bitmask of bucket indices present in entries
	for _, e := range entries {
		b, ok := ix.bucketExact(e.Horizon)
		if !ok {
			continue
		}
		seen |= 1 << b
		ge := gridEntry{pos: e.Pos, vel: ix.clampVel(e.Vel), path: e.Path, obs: now}
		sl := &st.slots[b]
		// Stationary case: the cached value is already exact (equal position
		// implies equal cell), and with aging off the timestamp is never
		// read — skip the cell math and the map write entirely.
		if sl.ok && !timed && ge == sl.ge {
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

// age applies staleness expiry and velocity extrapolation to one entry,
// returning its effective position at `now`.
func (ix *Index) age(ge gridEntry, now time.Time) (geom.Point, bool) {
	elapsed := now.Sub(time.Unix(0, ge.obs))
	if ix.cfg.Staleness > 0 && elapsed > ix.cfg.Staleness {
		return geom.Point{}, false
	}
	if ix.cfg.TickHz <= 0 {
		return ge.pos, true
	}
	dt := elapsed.Seconds() * ix.cfg.TickHz
	if dt < 0 {
		dt = 0
	}
	if m := float64(ix.cfg.MaxAgeTicks); dt > m {
		dt = m
	}
	return ge.pos.Add(ge.vel.Scale(dt)), true
}

// slack is how far an aged position can sit from its recorded cell; query
// candidate collection inflates by it so aging never loses answers.
func (ix *Index) slack() float64 {
	if ix.cfg.TickHz <= 0 {
		return 0
	}
	return ix.cfg.MaxSpeed * float64(ix.cfg.MaxAgeTicks)
}

// Range returns every object whose cached prediction at the bucket for
// `horizon` lies inside r (after aging), sorted by id.
func (ix *Index) Range(r geom.Rect, horizon int) []Result {
	ix.rangeQueries.Add(1)
	bb := ix.loadBBox()
	if !bb.ok || !r.IsValid() {
		return nil
	}
	b := ix.bucket(horizon)
	bh := ix.cfg.Horizons[b]
	now := ix.cfg.Now()

	search := r.Inflate(ix.slack())
	cx0 := maxI32(int32(math.Floor(search.Min.X/ix.cfg.CellSize)), bb.minX)
	cx1 := minI32(int32(math.Floor(search.Max.X/ix.cfg.CellSize)), bb.maxX)
	cy0 := maxI32(int32(math.Floor(search.Min.Y/ix.cfg.CellSize)), bb.minY)
	cy1 := minI32(int32(math.Floor(search.Max.Y/ix.cfg.CellSize)), bb.maxY)

	var out []Result
	var scratch []idEntry
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			scratch = ix.readCell(cellKey{cx: cx, cy: cy, b: b}, scratch[:0])
			for _, ie := range scratch {
				pos, live := ix.age(ie.ge, now)
				if live && r.Contains(pos) {
					out = append(out, Result{ID: ie.id, Pos: pos, Path: ie.ge.path, Horizon: bh})
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
// `horizon` are closest to p, ascending by (distance, id). It expands rings
// of cells outward from p and stops once the kth best distance provably
// cannot improve: every entry recorded in ring rho+1 is at least
// rho*CellSize - slack away.
func (ix *Index) Nearest(p geom.Point, k, horizon int) []Result {
	ix.knnQueries.Add(1)
	bb := ix.loadBBox()
	if !bb.ok || k <= 0 {
		return nil
	}
	b := ix.bucket(horizon)
	bh := ix.cfg.Horizons[b]
	now := ix.cfg.Now()
	slack := ix.slack()

	ccx := int32(math.Floor(p.X / ix.cfg.CellSize))
	ccy := int32(math.Floor(p.Y / ix.cfg.CellSize))

	var best []Result
	var scratch []idEntry
	visit := func(cx, cy int32) {
		if cx < bb.minX || cx > bb.maxX || cy < bb.minY || cy > bb.maxY {
			return
		}
		scratch = ix.readCell(cellKey{cx: cx, cy: cy, b: b}, scratch[:0])
		for _, ie := range scratch {
			pos, live := ix.age(ie.ge, now)
			if !live {
				continue
			}
			best = append(best, Result{ID: ie.id, Pos: pos, Path: ie.ge.path, Horizon: bh, Dist: pos.Dist(p)})
		}
	}

	for rho := int32(0); ; rho++ {
		if rho == 0 {
			visit(ccx, ccy)
		} else {
			for cx := ccx - rho; cx <= ccx+rho; cx++ {
				visit(cx, ccy-rho)
				visit(cx, ccy+rho)
			}
			for cy := ccy - rho + 1; cy <= ccy+rho-1; cy++ {
				visit(ccx-rho, cy)
				visit(ccx+rho, cy)
			}
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
		// Ring rho+1 entries are recorded >= rho*CellSize from anywhere
		// in the center cell; aging can pull them slack closer.
		if len(best) == k && best[k-1].Dist <= float64(rho)*ix.cfg.CellSize-slack {
			break
		}
		// The next ring would lie entirely outside the occupied bbox.
		if ccx-rho <= bb.minX && ccx+rho >= bb.maxX && ccy-rho <= bb.minY && ccy+rho >= bb.maxY {
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

func minI32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
