package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"unbiasedfl/internal/cli"
)

// The pricing endpoints' codec: a one-pass parser for the QuoteRequest,
// BatchQuoteRequest and SolveRequest bodies json.Marshal writes, and an
// append renderer for quote replies.
//
// The parser takes the canonical subset of bodies: one object holding only
// its type's keys, spelled exactly and each at most once; numbers in JSON's
// grammar that fit a float64; arrays of such numbers; a scheme of printable
// ASCII without escapes; JSON whitespace between any two tokens; anything
// after the closing brace. Any other body — a null, a repeated, unknown or
// differently cased key, an escape, a syntax error, a body cut short — is
// decoded by encoding/json (decodeStrict) from the same bytes and read
// error, so what is accepted, the values filled and every error are
// encoding/json's own. The renderer writes the bytes json.Marshal writes.
// encoding/json is the tests' oracle for both (TestPricingBodyParsing,
// TestDecodeMatchesEncodingJSON, TestQuoteRenderGolden, FuzzDecodeQuote,
// FuzzEncodeQuote).
//
// A number is converted in the same pass that checks its grammar: number
// gathers its decimal mantissa and exponent, and atof (atof.go) converts
// them exactly as strconv does after its own scan. What atof declines — more
// than 19 significant digits, an exponent past its table, a product too
// close to a half-way point — goes to strconv.ParseFloat, which
// encoding/json calls too; every value and verdict is therefore strconv's
// (TestNumberMatchesParseFloat, FuzzNumber, TestPow10TableMatchesBig).

// maxPooled bounds the buffers a codec keeps in the pool, in bytes: one
// that grew past it for an outsized body is dropped with its codec.
const maxPooled = 1 << 20

// codec holds one request's body, its parse offset and then the reply
// rendered into the same buffer. Codecs are pooled; nothing decoded or
// rendered refers to the buffer after release.
type codec struct {
	buf  []byte // the body as read (at most the limit), later the reply
	pos  int    // parse offset in buf
	tail error  // what ended the read: io.EOF or the read's error
}

var codecs = sync.Pool{New: func() any { return new(codec) }}

func getCodec() *codec { return codecs.Get().(*codec) }

func (c *codec) release() {
	if cap(c.buf) <= maxPooled {
		codecs.Put(c)
	}
}

// read fills buf from r up to EOF or the first error, which it keeps as
// the tail.
func (c *codec) read(r io.Reader) {
	c.buf, c.pos = c.buf[:0], 0
	for {
		if cap(c.buf)-len(c.buf) < 512 {
			c.buf = slices.Grow(c.buf, 4096)
		}
		n, err := r.Read(c.buf[len(c.buf):cap(c.buf)])
		c.buf = c.buf[:len(c.buf)+n]
		if err != nil {
			c.tail = err
			return
		}
	}
}

// pricingRequest is a request body the codec parses.
type pricingRequest interface {
	QuoteRequest | BatchQuoteRequest | SolveRequest
}

// decode parses the body into v, which holds its zero value. A canonical
// body takes one pass; any other is decoded by decodeStrict into a fresh
// value, copied to *v, reading the body's bytes and then the read's tail
// as it would read the capped body itself. (Handing v itself to
// encoding/json would move every request value to the heap.)
func decode[T pricingRequest](c *codec, v *T) error {
	if c.parse(v) {
		return nil
	}
	fresh := new(T)
	err := decodeStrict(io.MultiReader(bytes.NewReader(c.buf), tailReader{c.tail}), fresh)
	*v = *fresh
	return err
}

// tailReader fails every read with err.
type tailReader struct{ err error }

func (r tailReader) Read([]byte) (int, error) { return 0, r.err }

var (
	requestKeys = []string{"scheme", "params"}
	solveKeys   = []string{"params"}
	paramsKeys  = []string{"a", "g", "c", "v", "alpha", "beta", "r", "b", "q_max", "q_min"}
)

// parse fills v from a canonical body and reports whether it was one.
func (c *codec) parse(v any) bool {
	switch v := v.(type) {
	case *QuoteRequest:
		return c.object(requestKeys, func(key int) bool {
			if key == 0 {
				return c.scheme(&v.Scheme)
			}
			return c.params(&v.Params)
		})
	case *BatchQuoteRequest:
		return c.object(requestKeys, func(key int) bool {
			if key == 0 {
				return c.scheme(&v.Scheme)
			}
			return c.paramsList(&v.Params)
		})
	case *SolveRequest:
		return c.object(solveKeys, func(int) bool { return c.params(&v.Params) })
	}
	panic("serve: decode wants a *QuoteRequest, *BatchQuoteRequest or *SolveRequest")
}

func (c *codec) params(p *ParamsJSON) bool {
	arrays := [...]*[]float64{&p.A, &p.G, &p.C, &p.V}
	scalars := [...]*float64{&p.Alpha, &p.Beta, &p.R, &p.B, &p.QMax, &p.QMin}
	return c.object(paramsKeys, func(key int) bool {
		if key < len(arrays) {
			return c.floats(arrays[key])
		}
		x, ok := c.number()
		*scalars[key-len(arrays)] = x
		return ok
	})
}

// paramsList parses a batch's games; an empty array gives a non-nil empty
// slice, as encoding/json does.
func (c *codec) paramsList(dst *[]ParamsJSON) bool {
	games := []ParamsJSON{}
	ok := c.array(func() bool {
		games = append(games, ParamsJSON{})
		return c.params(&games[len(games)-1])
	})
	*dst = games
	return ok
}

// floats parses an array of numbers into a slice of their exact number:
// no ']' comes before a canonical array's own, so its commas count them.
func (c *codec) floats(dst *[]float64) bool {
	rest := c.buf[c.pos:]
	n := 1 + bytes.Count(rest[:max(bytes.IndexByte(rest, ']'), 0)], []byte{','})
	fs := make([]float64, 0, n)
	ok := c.array(func() bool {
		x, ok := c.number()
		fs = append(fs, x)
		return ok
	})
	*dst = fs
	return ok
}

// object parses an object whose keys are among keys, each at most once,
// handing each key's index to value to parse the value after its colon.
func (c *codec) object(keys []string, value func(key int) bool) bool {
	if !c.consume('{') {
		return false
	}
	if c.consume('}') {
		return true
	}
	for seen := 0; ; {
		key := c.key(keys)
		if key < 0 || seen&(1<<key) != 0 || !value(key) {
			return false
		}
		seen |= 1 << key
		if c.consume('}') {
			return true
		}
		if !c.consume(',') {
			return false
		}
	}
}

// key parses an object key and the colon after it and returns the key's
// index in keys, or -1 if it is none of them. The keys hold no escapes and
// no quotes, so a key token matches one only if its bytes equal it.
func (c *codec) key(keys []string) int {
	if !c.consume('"') {
		return -1
	}
	end := bytes.IndexByte(c.buf[c.pos:], '"')
	if end < 0 {
		return -1
	}
	tok := c.buf[c.pos : c.pos+end]
	c.pos += end + 1
	if !c.consume(':') {
		return -1
	}
	for i, key := range keys {
		if string(tok) == key {
			return i
		}
	}
	return -1
}

// array parses an array, calling elem to parse each element.
func (c *codec) array(elem func() bool) bool {
	if !c.consume('[') {
		return false
	}
	if c.consume(']') {
		return true
	}
	for elem() {
		if c.consume(']') {
			return true
		}
		if !c.consume(',') {
			return false
		}
	}
	return false
}

// scheme parses a string of printable ASCII without escapes, whose bytes
// are its value.
func (c *codec) scheme(dst *string) bool {
	if !c.consume('"') {
		return false
	}
	for i := c.pos; i < len(c.buf); i++ {
		switch ch := c.buf[i]; {
		case ch == '"':
			*dst = string(c.buf[c.pos:i])
			c.pos = i + 1
			return true
		case ch < 0x20 || ch > 0x7e || ch == '\\':
			return false
		}
	}
	return false
}

// number parses a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, that fits a float64. One
// pass checks the grammar and gathers the number as man·10^exp10: zeros
// before the first significant digit skipped, up to 19 significant digits
// taken, each taken fraction digit counted into exp10. A number with more
// digits, or one atof declines, goes to strconv.ParseFloat, which also
// refuses what overflows.
func (c *codec) number() (float64, bool) {
	c.space()
	b, start := c.buf, c.pos
	i := start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var man uint64
	nd, exp10 := 0, 0 // digits taken into man; the number is man·10^exp10
	long := false     // a significant digit past the 19th
	switch {
	case i >= len(b) || b[i]-'0' > 9:
		return 0, false
	case b[i] == '0':
		if i++; i < len(b) && b[i]-'0' <= 9 {
			return 0, false // a leading zero
		}
	default:
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if nd == 19 {
				long = true
				continue
			}
			man = man*10 + uint64(b[i]-'0')
			nd++
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			switch d := b[i] - '0'; {
			case nd == 0 && d == 0:
				exp10--
			case nd == 19:
				long = true
			default:
				man = man*10 + uint64(d)
				nd++
				exp10--
			}
		}
		if i == frac {
			return 0, false // an empty fraction
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (eneg || b[i] == '+') {
			i++
		}
		digits, e := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // far past the table: atof declines it
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == digits {
			return 0, false // an exponent without digits
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	c.pos = i
	if !long {
		if x, ok := atof(man, exp10, neg); ok {
			return x, true
		}
	}
	x, err := strconv.ParseFloat(string(b[start:i]), 64)
	return x, err == nil
}

// consume moves past whitespace and then ch, reporting whether ch was
// there.
func (c *codec) consume(ch byte) bool {
	c.space()
	if c.pos < len(c.buf) && c.buf[c.pos] == ch {
		c.pos++
		return true
	}
	return false
}

func (c *codec) space() {
	for c.pos < len(c.buf) {
		switch c.buf[c.pos] {
		case ' ', '\t', '\n', '\r':
			c.pos++
		default:
			return
		}
	}
}

// appendQuote appends q as json.Marshal renders it, or fails as
// json.Marshal fails, on the first NaN or infinity in field order.
func appendQuote(b []byte, q *QuoteResponse) ([]byte, error) {
	for _, fs := range [][]float64{q.P, q.Q, {q.Spent, q.ServerObj}} {
		for _, f := range fs {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
			}
		}
	}
	b = append(b, `{"scheme":`...)
	b = appendString(b, q.Scheme)
	b = append(b, `,"p":`...)
	b = appendFloats(b, q.P)
	b = append(b, `,"q":`...)
	b = appendFloats(b, q.Q)
	b = append(b, `,"spent":`...)
	b = appendFloat(b, q.Spent)
	b = append(b, `,"server_obj":`...)
	b = appendFloat(b, q.ServerObj)
	return append(b, '}'), nil
}

// appendBatch appends r as json.Marshal renders it, or fails as
// json.Marshal fails.
func appendBatch(b []byte, r *BatchQuoteResponse) ([]byte, error) {
	quotes := r.Quotes
	b = append(b, `{"quotes":`...)
	if quotes == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i := range quotes {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendQuote(b, &quotes[i]); err != nil {
			return b, err
		}
	}
	return append(b, "]}"...), nil
}

func appendFloats(b []byte, fs []float64) []byte {
	if fs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, f)
	}
	return append(b, ']')
}

// appendFloat appends a finite f as encoding/json does: the shortest
// representation, in 'e' form below 1e-6 and from 1e21 up in magnitude,
// with a one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s quoted. Printable ASCII that needs no escape —
// every registered scheme name so far — is copied as it is; anything else
// (escapes, HTML-sensitive <, > and &, U+2028/U+2029, invalid UTF-8) is
// rare and left to json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if ch := s[i]; ch < 0x20 || ch >= 0x7f || ch == '"' || ch == '\\' || ch == '<' || ch == '>' || ch == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// reply writes the rendered body b and the newline quote replies end
// with, or answers 500 encode_failed when rendering failed. It keeps b's
// storage for the pool.
func (c *codec) reply(w http.ResponseWriter, b []byte, err error) {
	b = append(b, '\n')
	c.buf = b[:0]
	if err != nil {
		cli.WriteHTTPError(w, http.StatusInternalServerError, "encode_failed", err.Error())
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	// The whole reply is in hand: send its length rather than chunks.
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}
