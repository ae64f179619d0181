package pattern

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

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

// source wraps a reader with latched errors. Nothing it reads is trusted:
// a length taken from the stream never sizes an allocation before the
// bytes it promises have arrived.
type source struct {
	r   *bufio.Reader
	err error
	buf [8]byte
}

// readChunk is how far bytes reads ahead of what it has allocated for.
const readChunk = 64 << 10

func (s *source) bytes(n int) []byte {
	if s.err != nil {
		return nil
	}
	b := make([]byte, 0, min(n, readChunk))
	for len(b) < n {
		k := min(n-len(b), readChunk)
		b = slices.Grow(b, k)[:len(b)+k]
		if _, err := io.ReadFull(s.r, b[len(b)-k:]); err != nil {
			s.err = err
			return nil
		}
	}
	return b
}

func (s *source) uvarint() uint64 {
	if s.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(s.r)
	if err != nil {
		s.err = err
	}
	return v
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

func (s *source) varint() int64 {
	if s.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(s.r)
	if err != nil {
		s.err = err
	}
	return v
}

func (s *source) float() float64 {
	if s.err != nil {
		return 0
	}
	if _, err := io.ReadFull(s.r, s.buf[:]); err != nil {
		s.err = err
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(s.buf[:]))
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
	b := s.bytes(len(want))
	if s.err == nil && string(b) != want {
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
	if s.err == nil {
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
	return patterns, nil
}
