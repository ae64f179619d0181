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
// linear.
type sink struct {
	w   *bufio.Writer
	err error
}

func (s *sink) bytes(b []byte) {
	if s.err == nil {
		_, s.err = s.w.Write(b)
	}
}

func (s *sink) uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	s.bytes(buf[:binary.PutUvarint(buf[:], v)])
}

func (s *sink) varint(v int64) {
	var buf [binary.MaxVarintLen64]byte
	s.bytes(buf[:binary.PutVarint(buf[:], v)])
}

func (s *sink) float(v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	s.bytes(buf[:])
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

// source decodes from a reader with latched errors, through a window — the
// reader's own buffer, peeked — so a varint costs no interface call per byte.
// Nothing it reads is trusted: a length taken from the stream never sizes an
// allocation before the bytes it promises have arrived.
type source struct {
	r   *bufio.Reader
	w   []byte // r's buffered bytes as of the last peek
	off int    // how much of w is decoded; an offset, so advancing stores no pointer
	err error
}

// peek returns the undecoded window, first slid forward and refilled to n
// bytes — or to what the input still has — when it holds fewer.
func (s *source) peek(n int) []byte {
	if len(s.w)-s.off < n && s.err == nil {
		s.done()
		if _, err := s.r.Peek(n); err != nil && err != io.EOF {
			s.err = err
		}
		s.w, _ = s.r.Peek(s.r.Buffered())
	}
	return s.w[s.off:]
}

// done hands the reader back, positioned after the last byte decoded.
func (s *source) done() error {
	s.r.Discard(s.off)
	s.w, s.off = nil, 0
	return s.err
}

// take returns the next n bytes — a few — as a view, or nil past an error.
func (s *source) take(n int) []byte {
	if b := s.peek(n); s.err == nil && len(b) < n {
		s.err = io.ErrUnexpectedEOF
	}
	if s.err != nil {
		return nil
	}
	s.off += n
	return s.w[s.off-n : s.off]
}

// ReadBlob reads a uvarint length, at most max, and that many bytes.
func ReadBlob(r *bufio.Reader, max uint64) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > max {
		return nil, fmt.Errorf("pattern: length %d exceeds limit %d", n, max)
	}
	return readN(r, n)
}

// readN reads n bytes, allocating only as they arrive once n is past a chunk.
func readN(r io.Reader, n uint64) ([]byte, error) {
	if n <= 64<<10 {
		b := make([]byte, n)
		_, err := io.ReadFull(r, b)
		return b, err
	}
	b, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && uint64(len(b)) < n {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

func (s *source) bytes(n int) (b []byte) {
	if s.done() == nil {
		b, s.err = readN(s.r, uint64(n))
	}
	return b
}

func (s *source) uvarint() uint64 {
	v, k := binary.Uvarint(s.peek(binary.MaxVarintLen64))
	if k <= 0 && s.err == nil {
		s.err = fmt.Errorf("pattern: truncated or overlong varint: %w", io.ErrUnexpectedEOF)
	}
	if s.err != nil {
		return 0
	}
	s.off += k
	return v
}

// varint undoes binary.PutVarint's zigzag over uvarint.
func (s *source) varint() int64 {
	ux := s.uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

// count reads a uvarint that must fit a non-negative int.
func (s *source) count() int {
	v := s.uvarint()
	if s.err == nil && v > math.MaxInt32 {
		s.err = fmt.Errorf("pattern: implausible count %d", v)
		return 0
	}
	return int(v)
}

func (s *source) float() float64 {
	if b := s.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (s *source) key() bitkey.Key {
	b := s.bytes(s.count())
	if s.err != nil {
		return bitkey.Key{}
	}
	var k bitkey.Key
	if err := k.UnmarshalBinary(b); err != nil {
		s.err = err
	}
	return k
}

func (s *source) magic(want string) {
	if b := s.take(len(want)); b != nil && string(b) != want {
		s.err = fmt.Errorf("pattern: bad section magic %q, want %q", b, want)
	}
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

// ReadRegionTable deserializes a region table written by WriteBinary.
func ReadRegionTable(r io.Reader) (*RegionTable, error) {
	s := &source{r: bufio.NewReader(r)}
	s.magic(regionTableMagic)
	rt := &RegionTable{byOffset: make(map[int][]*FrequentRegion)}
	rt.eps = s.float()
	rt.numSubs = s.count()
	count := s.count()
	if s.err != nil {
		return nil, s.err
	}
	if count > 1<<26 {
		return nil, fmt.Errorf("pattern: implausible region count %d", count)
	}
	for i := 0; i < count; i++ {
		fr := &FrequentRegion{ID: RegionID(i)}
		fr.Offset = s.count()
		fr.Index = s.count()
		fr.Center = geom.Pt(s.float(), s.float())
		fr.MBR = geom.Rect{
			Min: geom.Pt(s.float(), s.float()),
			Max: geom.Pt(s.float(), s.float()),
		}
		fr.Support = s.count()
		fr.visitors = s.key()
		if s.err != nil {
			return nil, s.err
		}
		if fr.visitors.Len() != rt.numSubs {
			return nil, fmt.Errorf("pattern: region %d visitor length %d != %d subs", i, fr.visitors.Len(), rt.numSubs)
		}
		rt.regions = append(rt.regions, fr)
		rt.byOffset[fr.Offset] = append(rt.byOffset[fr.Offset], fr)
	}
	if s.done() == nil {
		rt.buildLocateIndex()
	}
	return rt, s.err
}

// WritePatterns serializes a pattern list against a known region universe.
func WritePatterns(w io.Writer, patterns []Pattern) error {
	s := &sink{w: bufio.NewWriter(w)}
	s.bytes([]byte(patternsMagic))
	s.uvarint(uint64(len(patterns)))
	for _, p := range patterns {
		s.uvarint(uint64(len(p.Premise)))
		for _, id := range p.Premise {
			s.varint(int64(id))
		}
		s.varint(int64(p.Consequence))
		s.float(p.Confidence)
		s.uvarint(uint64(p.Support))
	}
	return s.flush()
}

// ReadPatterns deserializes a pattern list written by WritePatterns and
// validates every region id against rt. The list grows as patterns
// actually decode — the header's count is a hint, capped, never an
// allocation — and premises are carved from shared arenas, three-index
// slices so an append to one cannot write into its neighbour.
func ReadPatterns(r io.Reader, rt *RegionTable) ([]Pattern, error) {
	s := &source{r: bufio.NewReader(r)}
	s.magic(patternsMagic)
	count := s.count()
	if s.err != nil {
		return nil, s.err
	}
	if count > 1<<28 {
		return nil, fmt.Errorf("pattern: implausible pattern count %d", count)
	}
	id := func() RegionID {
		v := s.varint()
		if s.err == nil && (v < 0 || v >= int64(rt.Len())) {
			s.err = fmt.Errorf("pattern: region id %d out of %d", v, rt.Len())
		}
		return RegionID(v)
	}
	const maxPrealloc = 8192 // patterns; premise ids come to about twice that
	patterns := make([]Pattern, 0, min(count, maxPrealloc))
	var arena []RegionID
	for i := 0; i < count; i++ {
		premLen := s.count()
		if s.err == nil && premLen > 64 {
			s.err = fmt.Errorf("pattern: implausible premise length %d", premLen)
		}
		if s.err != nil {
			return nil, s.err
		}
		if cap(arena)-len(arena) < premLen {
			arena = make([]RegionID, 0, max(premLen, 2*min(count-i, maxPrealloc)))
		}
		lo := len(arena)
		for j := 0; j < premLen; j++ {
			arena = append(arena, id())
		}
		var p Pattern
		if premLen > 0 {
			p.Premise = arena[lo:len(arena):len(arena)]
		}
		p.Consequence = id()
		p.Confidence = s.float()
		p.Support = s.count()
		if s.err != nil {
			return nil, s.err
		}
		patterns = append(patterns, p)
	}
	return patterns, s.done()
}
