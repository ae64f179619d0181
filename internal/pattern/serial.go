package pattern

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hpm/internal/bitkey"
	"hpm/internal/geom"
)

// Binary serialization for the mined model state: the region table and the
// pattern list. The format is little-endian with uvarint integers and a
// per-section magic, so a truncated or mixed-up stream fails loudly instead
// of producing a silently wrong model.

const (
	regionTableMagic = "HPMR"
	patternsMagic    = "HPMP"
)

// sink wraps a writer with latched errors so serialization code can stay
// linear. Every number is appended into the writer's own free space, so
// encoding one allocates nothing.
type sink struct {
	w   *bufio.Writer
	err error
}

// room returns the writer's free space, empty and at least n bytes long,
// flushing first when less is left.
func (s *sink) room(n int) []byte {
	if s.w.Available() < n && s.err == nil {
		s.err = s.w.Flush()
	}
	return s.w.AvailableBuffer()
}

func (s *sink) bytes(b []byte) {
	if s.err == nil {
		_, s.err = s.w.Write(b)
	}
}

func (s *sink) uvarint(v uint64) {
	s.bytes(binary.AppendUvarint(s.room(binary.MaxVarintLen64), v))
}

func (s *sink) varint(v int64) {
	s.bytes(binary.AppendVarint(s.room(binary.MaxVarintLen64), v))
}

func (s *sink) float(v float64) {
	s.bytes(binary.LittleEndian.AppendUint64(s.room(8), math.Float64bits(v)))
}

func (s *sink) key(k bitkey.Key) {
	b, err := k.MarshalBinary()
	if s.err == nil {
		s.err = err
	}
	s.uvarint(uint64(len(b)))
	s.bytes(b)
}

func (s *sink) flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// Cursor decodes the model's wire format — uvarint integers, little-endian
// floats, length-prefixed blobs — from bytes already in memory, with a
// latched error: after the first failure every read returns zero and Err
// reports it. Nothing it reads is trusted: a length or a count is checked
// against the bytes that remain before it sizes anything, and a blob is a
// view of the input, never a copy. One cursor walks a whole segment —
// record, model stream, region table, rule table, tree shape, chain —
// and Offset reports how far each step took it.
type Cursor struct {
	b   []byte
	off int
	err error
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Err returns the first decoding error, nil while there is none.
func (c *Cursor) Err() error { return c.err }

// Offset returns how many bytes the cursor has consumed.
func (c *Cursor) Offset() int { return c.off }

// Remaining returns how many bytes are left after the cursor; none once
// it has failed.
func (c *Cursor) Remaining() int { return len(c.b) - c.off }

// Rest returns the bytes after the cursor, for a decoder that takes bytes;
// Skip then moves past what it consumed.
func (c *Cursor) Rest() []byte { return c.b[c.off:] }

// Fail latches err, unless an earlier error is latched already, and ends
// the input: every later read fails. A decoder reading through the cursor
// calls it to refuse a value it has read.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.b = c.b[:c.off]
}

// truncated latches the error of an input that ends inside a value.
func (c *Cursor) truncated() {
	c.Fail(fmt.Errorf("pattern: truncated input: %w", io.ErrUnexpectedEOF))
}

// Skip moves the cursor n bytes on.
func (c *Cursor) Skip(n int) {
	if n < 0 || n > c.Remaining() {
		c.truncated()
		return
	}
	c.off += n
}

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if v, ok := c.short(); ok {
		return v
	}
	v, k := binary.Uvarint(c.b[c.off:])
	if k <= 0 {
		c.Fail(fmt.Errorf("pattern: truncated or overlong varint: %w", io.ErrUnexpectedEOF))
		return 0
	}
	c.off += k
	return v
}

// short reads a one-byte uvarint, small enough to inline where a decoder
// reads many; ok is false, and nothing is read, when the next byte does not
// hold a whole varint.
func (c *Cursor) short() (uint64, bool) {
	if c.off < len(c.b) && c.b[c.off] < 0x80 {
		c.off++
		return uint64(c.b[c.off-1]), true
	}
	return 0, false
}

// count reads a uvarint that must fit a non-negative int32.
func (c *Cursor) count() int {
	v := c.Uvarint()
	if v > math.MaxInt32 {
		c.Fail(fmt.Errorf("pattern: implausible count %d", v))
		return 0
	}
	return int(v)
}

// Bytes returns the next n bytes as a view of the input, nil past the end.
func (c *Cursor) Bytes(n int) []byte {
	if n < 0 || n > c.Remaining() {
		c.truncated()
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off : c.off]
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.off < len(c.b) {
		c.off++
		return c.b[c.off-1]
	}
	c.truncated()
	return 0
}

// Float reads a little-endian float64.
func (c *Cursor) Float() float64 {
	if i := c.off; i+8 <= len(c.b) {
		c.off = i + 8
		return math.Float64frombits(binary.LittleEndian.Uint64(c.b[i:]))
	}
	c.truncated()
	return 0
}

// Blob reads a uvarint length, at most max, and that many bytes, as a view.
func (c *Cursor) Blob(max uint64) []byte {
	n := c.Uvarint()
	if n > max {
		c.Fail(fmt.Errorf("pattern: length %d exceeds limit %d", n, max))
		return nil
	}
	return c.Bytes(int(n))
}

// magic reads a section magic and latches an error unless it is want.
func (c *Cursor) magic(want string) {
	if b := c.Bytes(len(want)); b != nil && string(b) != want {
		c.Fail(fmt.Errorf("pattern: bad section magic %q, want %q", b, want))
	}
}

func (c *Cursor) key() bitkey.Key {
	b := c.Blob(uint64(c.Remaining()))
	if c.err != nil {
		return bitkey.Key{}
	}
	var k bitkey.Key
	if err := k.UnmarshalBinary(b); err != nil {
		c.Fail(err)
	}
	return k
}

// WriteBinary serializes the region table, including the visitor bitmaps
// the miner needs for incremental updates after a reload.
func (rt *RegionTable) WriteBinary(w io.Writer) error {
	s := &sink{w: bufio.NewWriter(w)}
	s.bytes([]byte(regionTableMagic))
	s.float(rt.eps)
	s.uvarint(uint64(rt.numSubs))
	s.uvarint(uint64(len(rt.regions)))
	for _, fr := range rt.regions {
		s.uvarint(uint64(fr.Offset))
		s.uvarint(uint64(fr.Index))
		s.float(fr.Center.X)
		s.float(fr.Center.Y)
		s.float(fr.MBR.Min.X)
		s.float(fr.MBR.Min.Y)
		s.float(fr.MBR.Max.X)
		s.float(fr.MBR.Max.Y)
		s.uvarint(uint64(fr.Support))
		s.key(fr.visitors)
	}
	return s.flush()
}

// The fewest bytes one encoded region and one encoded rule can take: six
// floats and four one-byte varints, the last a visitor key's length before
// its own one-byte length; a premise length, a consequence, a confidence
// and a support. A count is held to what the bytes left can hold before
// anything is sized by it.
const (
	minRegionBytes = 6*8 + 5
	minRuleBytes   = 1 + 1 + 8 + 1
)

// ReadRegionTable decodes a region table written by WriteBinary at c. A
// region's offset must lie in [0, period): the per-offset tables are sized
// by the highest, so no offset from the stream sizes one unchecked. Its
// support must be its visitor bitmap's count, as every region WriteBinary
// is given keeps it: an Extend reads a premise's support from the one and an
// itemset's from the other, and a confidence from their quotient.
func ReadRegionTable(c *Cursor, period int) (*RegionTable, error) {
	c.magic(regionTableMagic)
	rt := &RegionTable{eps: c.Float()}
	rt.numSubs = c.count()
	count := c.count()
	if c.err == nil && count > c.Remaining()/minRegionBytes {
		c.Fail(fmt.Errorf("pattern: %d regions cannot fit in %d bytes", count, c.Remaining()))
	}
	if c.err != nil {
		return nil, c.err
	}
	slab := make([]FrequentRegion, count)
	rt.regions = make([]*FrequentRegion, count)
	for i := range slab {
		fr := &slab[i]
		fr.ID = RegionID(i)
		fr.Offset = c.count()
		fr.Index = c.count()
		fr.Center = geom.Pt(c.Float(), c.Float())
		fr.MBR = geom.Rect{
			Min: geom.Pt(c.Float(), c.Float()),
			Max: geom.Pt(c.Float(), c.Float()),
		}
		fr.Support = c.count()
		if c.err == nil && fr.Offset >= period {
			c.Fail(fmt.Errorf("pattern: region %d at offset %d, outside a period of %d", i, fr.Offset, period))
		}
		fr.visitors = c.key()
		if c.err != nil {
			return nil, c.err
		}
		if fr.visitors.Len() != rt.numSubs {
			return nil, fmt.Errorf("pattern: region %d visitor length %d != %d subs", i, fr.visitors.Len(), rt.numSubs)
		}
		if n := fr.visitors.Size(); fr.Support != n {
			return nil, fmt.Errorf("pattern: region %d has support %d and %d visitors", i, fr.Support, n)
		}
		rt.regions[i] = fr
	}
	rt.buildIndex()
	return rt, nil
}

// WriteRules serializes the rows of t that keep accepts — every row when
// keep is nil — in order, against a known region universe.
func WriteRules(w io.Writer, t *Table, keep func(row int) bool) error {
	count := t.Len()
	if keep != nil {
		count = 0
		for i := 0; i < t.Len(); i++ {
			if keep(i) {
				count++
			}
		}
	}
	s := &sink{w: bufio.NewWriter(w)}
	s.bytes([]byte(patternsMagic))
	s.uvarint(uint64(count))
	for i := 0; i < t.Len(); i++ {
		if keep != nil && !keep(i) {
			continue
		}
		prem := t.Premise(i)
		s.uvarint(uint64(len(prem)))
		for _, id := range prem {
			s.varint(int64(id))
		}
		s.varint(int64(t.conseqs[i]))
		s.float(t.confs[i])
		s.uvarint(uint64(t.supports[i]))
	}
	return s.flush()
}

// ReadRules decodes a rule list written by WriteRules at c into a table,
// holding every rule to the rows WriteRules is given: each region id names
// a region of rt, a rule holds at most cfg's MaxLength regions, and its
// premise's offsets strictly ascend with the consequence's after them — the
// order in which the incremental miner finds an itemset. The count is held
// to the bytes left before it sizes the columns, and then sizes them
// exactly; the premise arena starts at two ids a rule, what the default
// MaxLength allows, and grows past that only for longer rules.
func ReadRules(c *Cursor, rt *RegionTable, cfg Config) (*Table, error) {
	c.magic(patternsMagic)
	count := c.count()
	if c.err == nil && count > c.Remaining()/minRuleBytes {
		c.Fail(fmt.Errorf("pattern: %d patterns cannot fit in %d bytes", count, c.Remaining()))
	}
	if c.err != nil {
		return nil, c.err
	}
	t := &Table{
		premises: make([]RegionID, 0, min(2*count, c.Remaining())),
		starts:   make([]int32, count+1),
		conseqs:  make([]int32, count),
		confs:    make([]float64, count),
		supports: make([]int32, count),
	}
	// Every varint of a rule is read through short first: at the fleet's
	// shape each one is a single byte.
	maxLen := uint64(cfg.withDefaults().MaxLength)
	for i := 0; i < count; i++ {
		premLen, ok := c.short()
		if !ok {
			premLen = uint64(c.count())
		}
		if c.err == nil && premLen >= maxLen {
			c.Fail(fmt.Errorf("pattern: rule %d holds %d regions, past MaxLength %d", i, premLen+1, maxLen))
		}
		for j, prev := uint64(0), -1; j <= premLen && c.err == nil; j++ {
			u, ok := c.short()
			if !ok {
				u = c.Uvarint()
			}
			switch v := int64(u>>1) ^ -int64(u&1); {
			case c.err != nil:
			case v < 0 || v >= int64(len(rt.regions)):
				c.Fail(fmt.Errorf("pattern: region id %d out of %d", v, len(rt.regions)))
			case rt.regions[v].Offset <= prev:
				c.Fail(fmt.Errorf("pattern: rule %d's regions do not ascend in time offset", i))
			case j < premLen:
				prev = rt.regions[v].Offset
				t.premises = append(t.premises, RegionID(v))
			default:
				t.conseqs[i] = int32(v)
			}
		}
		t.starts[i+1] = int32(len(t.premises))
		t.confs[i] = c.Float()
		if conf := t.confs[i]; c.err == nil && !(conf >= 0 && conf <= 1) {
			c.Fail(fmt.Errorf("pattern: rule %d has confidence %g, outside [0, 1]", i, conf))
		}
		sup, ok := c.short()
		if !ok {
			sup = uint64(c.count())
		}
		t.supports[i] = int32(sup)
		if c.err != nil {
			return nil, c.err
		}
	}
	return t, nil
}
