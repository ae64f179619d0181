package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"hpm"
	"hpm/internal/spatial"
	"hpm/store"
)

// The wire codec of the hot endpoints: a one-pass scanner that reads the
// three request bodies straight into the values the store takes, and
// append-style writers for every answer that carries predictions or fleet
// results. Neither reflects. The cold endpoints and every error body keep
// writeJSON.
//
// The scanner takes what encoding/json took — any whitespace, any member
// order, every string escape, every number form — and decodes it to the
// same values. Where encoding/json silently reshaped a body, it refuses it
// instead: a point that is not exactly two numbers, null in place of any
// value, a key in another case or repeated, an id that encoding/json would
// alter (invalid UTF-8, a lone surrogate), and text after the value. The
// writers emit, for every finite value, the bytes encoding/json emitted for
// the structs they replace; wire_test.go holds those structs as the oracle.

// readBody reads a request body whole: into one buffer sized from
// Content-Length when that is within limit, else through the limit.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	if n := r.ContentLength; n >= 0 && n <= limit {
		buf := make([]byte, n)
		if _, err := io.ReadFull(body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	return io.ReadAll(body)
}

// The fewest bytes a valid element can take, which bounds how many
// elements a body can hold whatever its brackets claim: a point [0,0]; an
// observation {"id":"a","points":[[0,0]]}; an integer and its comma.
const (
	minPointBytes       = 5
	minObservationBytes = 27
	minIntBytes         = 2
)

// scanner is a cursor over one request body. The first error stops it:
// every later read is a no-op and the caller reports that error.
type scanner struct {
	b   []byte
	pos int
	err error
}

func (s *scanner) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("offset %d: %s", s.pos, fmt.Sprintf(format, args...))
	}
}

func (s *scanner) ws() {
	for s.pos < len(s.b) {
		switch s.b[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// expect consumes c, after any whitespace.
func (s *scanner) expect(c byte) {
	if s.err != nil {
		return
	}
	s.ws()
	if s.pos < len(s.b) && s.b[s.pos] == c {
		s.pos++
		return
	}
	if s.pos == len(s.b) {
		s.fail("want %q, body ends", c)
		return
	}
	s.fail("want %q, found %q", c, s.b[s.pos])
}

// next walks the elements of an array or the members of an object whose
// opening bracket is consumed: it reports whether another one follows,
// consuming the comma before it or the closing bracket after the last.
func (s *scanner) next(end byte, first *bool) bool {
	if s.err != nil {
		return false
	}
	s.ws()
	if s.pos < len(s.b) && s.b[s.pos] == end {
		s.pos++
		return false
	}
	if *first {
		*first = false
		return true
	}
	s.expect(',')
	return s.err == nil
}

// done refuses anything but whitespace after the value.
func (s *scanner) done() {
	if s.err != nil {
		return
	}
	s.ws()
	if s.pos != len(s.b) {
		s.fail("text after the value")
	}
}

// key reads a member's name and the colon behind it. The bytes are the
// body's own unless the name holds an escape.
func (s *scanner) key() []byte {
	k := s.str()
	s.expect(':')
	return k
}

// once reports whether a member's value is to be read: the scanner has
// not stopped and the key is not repeated, which it refuses.
func (s *scanner) once(k []byte, seen *bool) bool {
	if *seen {
		s.fail("repeated key %q", k)
	}
	*seen = true
	return s.err == nil
}

// str reads a string and returns its decoded bytes: a slice of the body
// when it holds no escape. A string encoding/json would alter on decoding
// — invalid UTF-8, a lone surrogate — is refused.
func (s *scanner) str() []byte {
	s.expect('"')
	if s.err != nil {
		return nil
	}
	start := s.pos
	var out []byte // nil until the first escape
	for s.pos < len(s.b) {
		c := s.b[s.pos]
		switch {
		case c == '"':
			s.pos++
			if out == nil {
				return s.b[start : s.pos-1]
			}
			return out
		case c == '\\':
			if out == nil {
				out = append(make([]byte, 0, 2*(s.pos-start)+8), s.b[start:s.pos]...)
			}
			out = s.escape(out)
			if s.err != nil {
				return nil
			}
		case c < 0x20:
			s.fail("control character %#x in a string", c)
			return nil
		case c < utf8.RuneSelf:
			if out != nil {
				out = append(out, c)
			}
			s.pos++
		default:
			r, n := utf8.DecodeRune(s.b[s.pos:])
			if r == utf8.RuneError && n == 1 {
				s.fail("invalid UTF-8 in a string")
				return nil
			}
			if out != nil {
				out = append(out, s.b[s.pos:s.pos+n]...)
			}
			s.pos += n
		}
	}
	s.fail("string not closed")
	return nil
}

// escape decodes the escape at s.pos onto out.
func (s *scanner) escape(out []byte) []byte {
	if s.pos+1 >= len(s.b) {
		s.fail("escape cut short")
		return out
	}
	c := s.b[s.pos+1]
	s.pos += 2
	switch c {
	case '"', '\\', '/':
		return append(out, c)
	case 'b':
		return append(out, '\b')
	case 'f':
		return append(out, '\f')
	case 'n':
		return append(out, '\n')
	case 'r':
		return append(out, '\r')
	case 't':
		return append(out, '\t')
	case 'u':
		r := s.hex4()
		if utf16.IsSurrogate(r) {
			var lo rune = -1
			if s.pos+1 < len(s.b) && s.b[s.pos] == '\\' && s.b[s.pos+1] == 'u' {
				s.pos += 2
				lo = s.hex4()
			}
			if r = utf16.DecodeRune(r, lo); r == utf8.RuneError {
				s.fail("lone surrogate in a string")
				return out
			}
		}
		return utf8.AppendRune(out, r)
	}
	s.fail("invalid escape \\%c", c)
	return out
}

func (s *scanner) hex4() rune {
	if s.pos+4 > len(s.b) {
		s.fail("\\u escape cut short")
		return 0
	}
	r, err := strconv.ParseUint(string(s.b[s.pos:s.pos+4]), 16, 16)
	if err != nil {
		s.fail("invalid \\u escape")
	}
	s.pos += 4
	return rune(r)
}

// number reads one JSON number's text: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
// integral reports that it has neither fraction nor exponent.
func (s *scanner) number() (text []byte, integral bool) {
	s.ws()
	if s.err != nil {
		return nil, false
	}
	b, i := s.b, s.pos
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	ok := true
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		ok = digits()
	}
	integral = true
	if ok && i < len(b) && b[i] == '.' {
		i++
		ok, integral = digits(), false
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		ok, integral = digits(), false
	}
	if !ok {
		s.fail("want a number")
		return nil, false
	}
	text, s.pos = b[s.pos:i], i
	return text, integral
}

// float reads a number as encoding/json decodes one into a float64; one
// out of float64's range is refused.
func (s *scanner) float() float64 {
	text, _ := s.number()
	if s.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		s.fail("number %s out of range", text)
	}
	return f
}

// int reads a number as encoding/json decodes one into an int: no
// fraction, no exponent, within int.
func (s *scanner) int() int {
	text, integral := s.number()
	if s.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(text), 10, strconv.IntSize)
	if !integral || err != nil {
		s.fail("number %s is not an integer", text)
	}
	return int(n)
}

// points appends an array of [x, y] pairs to dst.
func (s *scanner) points(dst []hpm.Point) []hpm.Point {
	s.expect('[')
	for first := true; s.next(']', &first); {
		s.expect('[')
		x := s.float()
		s.expect(',')
		y := s.float()
		s.expect(']')
		dst = append(dst, hpm.Pt(x, y))
	}
	return dst
}

// ints reads an array of integers, sized by its commas.
func (s *scanner) ints() []int {
	s.ws()
	n := 0
	if end := bytes.IndexByte(s.b[s.pos:], ']'); end > 0 {
		n = min(bytes.Count(s.b[s.pos:s.pos+end], []byte{','})+1, (end+1)/minIntBytes, maxPredictBatch+1)
	}
	out := make([]int, 0, n)
	s.expect('[')
	for first := true; s.next(']', &first); {
		out = append(out, s.int())
	}
	return out
}

// decodeObserve reads a single observe body: {"points": [[x, y], ...]}.
func decodeObserve(b []byte) ([]hpm.Point, error) {
	s := scanner{b: b}
	var pts []hpm.Point
	seen := false
	s.expect('{')
	for first := true; s.next('}', &first); {
		switch k := s.key(); string(k) {
		case "points":
			if s.once(k, &seen) {
				pts = s.points(make([]hpm.Point, 0, max(0, min(bytes.Count(b, []byte{'['})-1, len(b)/minPointBytes))))
			}
		default:
			s.fail("unknown key %q", k)
		}
	}
	s.done()
	return pts, s.err
}

// decodeFleet reads a bulk observe body: [{"id": "...", "points": [[x,
// y], ...]}, ...]. Every observation's points are one slice of a single
// arena, sized by the body's brackets.
func decodeFleet(b []byte) ([]store.Observation, error) {
	s := scanner{b: b}
	objects := min(bytes.Count(b, []byte{'{'}), len(b)/minObservationBytes)
	obs := make([]store.Observation, 0, objects)
	arena := make([]hpm.Point, 0, max(0, min(bytes.Count(b, []byte{'['})-1-objects, len(b)/minPointBytes)))
	s.expect('[')
	for first := true; s.next(']', &first); {
		var ob store.Observation
		from := len(arena)
		var seenID, seenPoints bool
		s.expect('{')
		for first := true; s.next('}', &first); {
			switch k := s.key(); string(k) {
			case "id":
				if s.once(k, &seenID) {
					ob.ID = string(s.str())
				}
			case "points":
				if s.once(k, &seenPoints) {
					arena = s.points(arena)
				}
			default:
				s.fail("unknown key %q", k)
			}
		}
		ob.Points = arena[from:] // its length; re-sliced from the final arena below
		obs = append(obs, ob)
	}
	s.done()
	if s.err != nil {
		return nil, s.err
	}
	at := 0
	for i := range obs {
		n := len(obs[i].Points)
		obs[i].Points = arena[at : at+n : at+n]
		at += n
	}
	return obs, nil
}

// decodeBatch reads a batch predict body: {"tqs": [...], "horizons":
// [...], "k": K}, each member optional.
func decodeBatch(b []byte) (tqs, horizons []int, k int, err error) {
	s := scanner{b: b}
	var seenTqs, seenHorizons, seenK bool
	s.expect('{')
	for first := true; s.next('}', &first); {
		switch key := s.key(); string(key) {
		case "tqs":
			if s.once(key, &seenTqs) {
				tqs = s.ints()
			}
		case "horizons":
			if s.once(key, &seenHorizons) {
				horizons = s.ints()
			}
		case "k":
			if s.once(key, &seenK) {
				k = s.int()
			}
		default:
			s.fail("unknown key %q", key)
		}
	}
	s.done()
	return tqs, horizons, k, s.err
}

// answer is one reply body under construction. A non-finite float, which
// JSON cannot carry, poisons it: send answers 500 instead of the body.
type answer struct {
	b   []byte
	bad string // the first non-finite value asked for
}

// answers recycles reply buffers; one past maxPooledAnswer is dropped.
var answers = sync.Pool{New: func() any { return new(answer) }}

const maxPooledAnswer = 64 << 10

func newAnswer() *answer { return answers.Get().(*answer) }

func (a *answer) free() {
	if cap(a.b) > maxPooledAnswer {
		a.b = nil
	}
	a.b, a.bad = a.b[:0], ""
	answers.Put(a)
}

// send writes the answer as a 200 with encoding/json's trailing newline,
// and frees it.
func (a *answer) send(w http.ResponseWriter) {
	defer a.free()
	if a.bad != "" {
		writeJSON(w, http.StatusInternalServerError, errBody("answer holds a non-finite value: "+a.bad))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	a.b = append(a.b, '\n')
	// The status line is out; a failed write means the client went away.
	_, _ = w.Write(a.b)
}

func (a *answer) raw(s string) { a.b = append(a.b, s...) }

func (a *answer) int(n int) { a.b = strconv.AppendInt(a.b, int64(n), 10) }

func (a *answer) bool(v bool) { a.b = strconv.AppendBool(a.b, v) }

// float writes f as encoding/json does: the ES6 number form, 'e' notation
// below 1e-6 and from 1e21, with a one-digit negative exponent unpadded.
func (a *answer) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if a.bad == "" {
			a.bad = strconv.FormatFloat(f, 'g', -1, 64)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	a.b = strconv.AppendFloat(a.b, f, format, -1, 64)
	if n := len(a.b); format == 'e' && a.b[n-4] == 'e' && a.b[n-3] == '-' && a.b[n-2] == '0' {
		a.b[n-2] = a.b[n-1]
		a.b = a.b[:n-1]
	}
}

const hexDigits = "0123456789abcdef"

// str writes s as encoding/json does: HTML-safe (<, > and & escaped),
// U+2028 and U+2029 escaped, invalid UTF-8 written as U+FFFD.
func (a *answer) str(s string) {
	b := append(a.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	a.b = append(append(b, s[start:]...), '"')
}

// prediction writes one prediction. Pattern and markov answers are region
// centers, so the region extent is their natural uncertainty bound; motion
// answers have none.
func (a *answer) prediction(p hpm.Prediction) {
	a.raw(`{"x":`)
	a.float(p.Location.X)
	a.raw(`,"y":`)
	a.float(p.Location.Y)
	a.raw(`,"source":`)
	a.str(p.Source.String())
	a.raw(`,"path":`)
	a.str(p.Path.String())
	a.raw(`,"score":`)
	a.float(p.Score)
	a.raw(`,"confidence":`)
	a.float(p.Confidence)
	if p.Source == hpm.SourcePattern || p.Source == hpm.SourceMarkov {
		a.raw(`,"region":{"minX":`)
		a.float(p.Extent.Min.X)
		a.raw(`,"minY":`)
		a.float(p.Extent.Min.Y)
		a.raw(`,"maxX":`)
		a.float(p.Extent.Max.X)
		a.raw(`,"maxY":`)
		a.float(p.Extent.Max.Y)
		a.raw("}")
	}
	a.raw("}")
}

func (a *answer) predictions(preds []hpm.Prediction) {
	a.raw("[")
	for i, p := range preds {
		if i > 0 {
			a.raw(",")
		}
		a.prediction(p)
	}
	a.raw("]")
}

// results writes the results of a range or kNN query; dist is left
// out when zero, as a range query's always is.
func (a *answer) results(res []spatial.Result) {
	a.raw("[")
	for i, r := range res {
		if i > 0 {
			a.raw(",")
		}
		a.raw(`{"id":`)
		a.str(r.ID)
		a.raw(`,"x":`)
		a.float(r.Pos.X)
		a.raw(`,"y":`)
		a.float(r.Pos.Y)
		a.raw(`,"path":`)
		a.str(r.Path)
		a.raw(`,"horizon":`)
		a.int(r.Horizon)
		if r.Dist != 0 {
			a.raw(`,"dist":`)
			a.float(r.Dist)
		}
		a.raw("}")
	}
	a.raw("]")
}

// fleetAnswer writes a range or kNN answer: {"horizon":H,"results":[...]}.
func (a *answer) fleetAnswer(horizon int, res []spatial.Result) {
	a.raw(`{"horizon":`)
	a.int(horizon)
	a.raw(`,"results":`)
	a.results(res)
	a.raw("}")
}
