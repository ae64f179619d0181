// Package spatial maintains a concurrent uniform-grid index over the fleet's
// *predicted* positions, answering the inverse of the per-object query
// surface: "which objects are predicted inside rect R at horizon h?" and
// "which k objects are predicted nearest P at horizon h?".
//
// The index is maintained incrementally by its owner. On every acknowledged
// observation (and on every predictor install) the owner recomputes the
// object's predictions at the horizon buckets it keeps live — of a small
// fixed set, the same buckets the online evaluator scores against — and
// re-bins the entries into grid cells. The store keeps a bucket live from
// the first query that reads it, and that first query pays for filling it;
// every other query touches only cached positions: no model is fitted and
// no trajectory-pattern tree is walked while answering it, which is what
// makes range/kNN sub-linear in fleet size.
//
// Writes go straight to their slot. An object is interned once, by Add, into
// an int32 Slot its owner keeps; Set addresses it by that handle and hashes
// no string. A cell is a dense slice of (slot, position, path) entries with
// swap-remove, and each slot remembers, per horizon bucket, its cell and its
// position in it: an update that stays in its cell is one write, a re-bin
// one swap-remove and one append. Queries read an entry's id from the slot
// table. A slot belongs to one object for the index's life: it is never
// handed out twice.
//
// The index is exact and has no clock: a query reports each object's cached
// position as written by its last Set, so answers are bit-identical to
// recomputing every prediction from scratch, a property the store's tests
// pin.
package spatial

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"hpm/internal/evalq"
	"hpm/internal/geom"
)

// DefaultHorizons mirrors evalq.DefaultBuckets so indexed horizons line up
// with the online evaluator's accuracy matrix: a query at horizon h is
// answered from the first bucket >= h.
var DefaultHorizons = []int{5, 10, 20, 50, 100, 200}

// MaxHorizons is how many horizon buckets one index can hold: Set tracks
// the buckets an update names in one 64-bit mask.
const MaxHorizons = 64

const (
	numStripes   = 64 // power of two
	slotPageBits = 8  // slots per page of the slot table, as a power of two
)

// Config shapes one Index. The zero value is unusable; CellSize must be
// positive.
type Config struct {
	// CellSize is the grid pitch in world units. Smaller cells mean fewer
	// false candidates per query but more re-bins as objects move.
	CellSize float64

	// Horizons are the prediction offsets (ticks ahead of each object's
	// latest observation) cached per object: positive, strictly ascending,
	// at most MaxHorizons of them. Empty means DefaultHorizons. A query
	// horizon is quantized to the first bucket >= h; beyond the last it
	// clamps to the last.
	Horizons []int
}

// CheckHorizons reports whether hs can bucket an index: every horizon
// positive, strictly ascending, at most MaxHorizons of them.
func CheckHorizons(hs []int) error {
	if len(hs) > MaxHorizons {
		return fmt.Errorf("%d horizons, at most %d", len(hs), MaxHorizons)
	}
	return evalq.CheckBuckets(hs)
}

// Entry is one cached prediction handed to Set: the object's predicted
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
	// LiveBuckets, Builds and BuildSeconds are the owner's to fill: how
	// many horizon buckets it maintains, how many it has built because a
	// query read them first, and the wall-clock seconds those builds took.
	// Index.Stats leaves them zero.
	LiveBuckets  int64   `json:"live_buckets"`
	Builds       int64   `json:"bucket_builds"`
	BuildSeconds float64 `json:"bucket_build_seconds"`
}

// Slot is an object's handle in the index, handed out by Add. The zero Slot
// names no object.
type Slot int32

type cellKey struct {
	cx, cy int32
	b      uint8 // horizon bucket index
}

// gridEntry is one cached prediction as a cell holds it.
type gridEntry struct {
	pos  geom.Point
	path string
}

// cellEntry is one slot's entry in a cell.
type cellEntry struct {
	slot Slot
	gridEntry
}

// cell is one grid cell of one horizon bucket: its entries, densely packed.
// Guarded by its stripe's lock. A cell lives in its stripe's map while it
// holds an entry; emptied, it leaves the map and is garbage.
type cell struct {
	key cellKey
	es  []cellEntry
}

type stripe struct {
	mu    sync.RWMutex
	cells map[cellKey]*cell
}

// placement is where one horizon bucket of a slot sits: its cell (nil when
// the bucket has no entry) and its position in that cell. c and ge are its
// owner's — only Set on this slot touches them — while i is moved by
// any swap-remove in the cell, so it is read and written under the cell's
// stripe lock.
type placement struct {
	c  *cell
	i  int32
	ge gridEntry // last value written, for unchanged-entry elision
}

// slotState is one slot of the slot table: its owner's id and where each
// horizon bucket's entry sits.
type slotState struct {
	id string
	at []placement
}

type slotPage [1 << slotPageBits]slotState

type cellBounds struct {
	ok                     bool
	minX, minY, maxX, maxY int64
}

// Index is the concurrent grid. All methods are safe for arbitrary
// interleaving, except that Sets on one slot must not overlap: per-object
// update order is the caller's responsibility (the store calls Set under
// the object's write lock).
type Index struct {
	cfg     Config
	stripes [numStripes]stripe

	// pages is the slot table, grown a page at a time so a slot's state
	// never moves; readers load the page list without a lock. allocMu
	// guards growth and next.
	pages   atomic.Pointer[[]*slotPage]
	allocMu sync.Mutex
	next    Slot

	// named interns ids for Update, the call of a caller that keeps no
	// handle.
	namedMu sync.Mutex
	named   map[string]Slot

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

// New builds an empty index. It panics if CellSize is not positive or the
// horizons fail CheckHorizons — the store validates user input before
// constructing one.
func New(cfg Config) *Index {
	if len(cfg.Horizons) == 0 {
		cfg.Horizons = DefaultHorizons
	}
	if cfg.CellSize <= 0 {
		panic("spatial: CellSize must be positive")
	}
	if err := CheckHorizons(cfg.Horizons); err != nil {
		panic("spatial: " + err.Error())
	}
	ix := &Index{cfg: cfg, next: 1, named: make(map[string]Slot)}
	for i := range ix.stripes {
		ix.stripes[i].cells = make(map[cellKey]*cell)
	}
	ix.pages.Store(new([]*slotPage))
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

// state returns a slot's state, which stays where it is for the index's
// lifetime.
func (ix *Index) state(s Slot) *slotState {
	return &(*ix.pages.Load())[s>>slotPageBits][s&(1<<slotPageBits-1)]
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

// Add interns a new object under id and returns its slot, which holds no
// entries until Set.
func (ix *Index) Add(id string) Slot {
	ix.allocMu.Lock()
	s := ix.next
	ix.next++
	if pages := *ix.pages.Load(); int(s>>slotPageBits) == len(pages) {
		grown := append(pages[:len(pages):len(pages)], new(slotPage))
		ix.pages.Store(&grown)
	}
	st := ix.state(s)
	st.id = id
	st.at = make([]placement, len(ix.cfg.Horizons))
	ix.allocMu.Unlock()
	ix.objects.Add(1)
	return s
}

// Set replaces the cached entries of the object at slot s. Entries whose
// Horizon is not a configured bucket are ignored. Entries occupying the same
// cell as before are overwritten in place; movers are removed from the old
// cell and appended to the new one (a "re-bin").
func (ix *Index) Set(s Slot, entries []Entry) {
	st := ix.state(s)
	ix.updates.Add(1)
	var seen uint64 // bitmask of bucket indices present in entries
	for _, e := range entries {
		b, ok := ix.bucketExact(e.Horizon)
		if !ok {
			continue
		}
		seen |= 1 << b
		ge := gridEntry{pos: e.Pos, path: e.Path}
		at := &st.at[b]
		// Stationary case: the cached value is already exact (equal position
		// implies equal cell) — skip the cell math and the lock.
		if at.c != nil && ge == at.ge {
			continue
		}
		key := ix.cellOf(e.Pos, b)
		if at.c != nil && at.c.key == key {
			at.ge = ge
			sp := ix.stripeFor(key)
			sp.mu.Lock()
			at.c.es[at.i].gridEntry = ge
			sp.mu.Unlock()
			continue
		}
		if at.c != nil {
			ix.unlink(at)
			ix.rebins.Add(1)
		} else {
			ix.entries.Add(1)
		}
		ix.link(s, at, key, ge)
	}
	// Buckets absent from this update (e.g. a predictor that stopped
	// answering a horizon) are dropped so queries never see ghosts.
	for b := range st.at {
		if seen&(1<<b) == 0 && st.at[b].c != nil {
			ix.unlink(&st.at[b])
			ix.entries.Add(-1)
		}
	}
}

// link appends slot s's entry to the cell at key, creating the cell if it
// is empty, and records where the entry sits.
func (ix *Index) link(s Slot, at *placement, key cellKey, ge gridEntry) {
	sp := ix.stripeFor(key)
	sp.mu.Lock()
	c := sp.cells[key]
	if c == nil {
		c = &cell{key: key}
		sp.cells[key] = c
	}
	at.c, at.i, at.ge = c, int32(len(c.es)), ge
	c.es = append(c.es, cellEntry{slot: s, gridEntry: ge})
	sp.mu.Unlock()
	ix.expandBBox(key)
}

// unlink swap-removes the entry at from its cell: the cell's last entry
// takes its place and that entry's slot learns its new position. An emptied
// cell leaves its stripe's map.
func (ix *Index) unlink(at *placement) {
	c := at.c
	sp := ix.stripeFor(c.key)
	sp.mu.Lock()
	last := int32(len(c.es) - 1)
	if at.i != last {
		moved := c.es[last]
		c.es[at.i] = moved
		ix.state(moved.slot).at[c.key.b].i = at.i
	}
	c.es[last] = cellEntry{} // release the path string
	c.es = c.es[:last]
	if last == 0 {
		delete(sp.cells, c.key)
	}
	sp.mu.Unlock()
	at.c = nil
}

// Update is Set for a caller that keeps no slot — a benchmark replaying a
// fixed fleet: the object is found by id and interned on its first update.
func (ix *Index) Update(id string, entries []Entry) {
	ix.namedMu.Lock()
	s, ok := ix.named[id]
	if !ok {
		s = ix.Add(id)
		ix.named[id] = s
	}
	ix.namedMu.Unlock()
	ix.Set(s, entries)
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

// readCell copies one cell's entries out under the stripe read lock, each
// with its slot's id. Add wrote the id before any Set linked the slot's
// entry under this lock, so the read sees it.
func (ix *Index) readCell(k cellKey, buf []idEntry) []idEntry {
	s := ix.stripeFor(k)
	s.mu.RLock()
	if c := s.cells[k]; c != nil {
		for _, ce := range c.es {
			buf = append(buf, idEntry{id: ix.state(ce.slot).id, ge: ce.gridEntry})
		}
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
