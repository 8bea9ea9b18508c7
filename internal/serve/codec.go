package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"unbiasedfl/internal/cli"
)

// The pricing endpoints' codec: a one-pass parser for QuoteRequest,
// BatchQuoteRequest and SolveRequest bodies and an append renderer for
// quote replies. The parser accepts and rejects exactly what a
// json.Decoder with DisallowUnknownFields accepts and rejects reading the
// same http.MaxBytesReader, and fills the same values; the renderer writes
// the bytes json.Marshal writes. Both are plain functions over the wire
// types, so encoding/json stays an independent oracle for them
// (TestPricingBodyParsing, TestQuoteRenderGolden, FuzzDecodeQuote,
// FuzzEncodeQuote).

// maxDepth is encoding/json's nesting limit: deeper nesting is a syntax
// error there, and so here.
const maxDepth = 10000

// maxPooled bounds the buffers a codec keeps in the pool: one that grew
// past it for an outsized body is dropped with its codec.
const maxPooled = 1 << 20

// codec holds one request's body, its parse state and then the reply
// rendered into the same buffer. Codecs are pooled; nothing decoded or
// rendered refers to the buffer after release.
type codec struct {
	buf  []byte // the body as read (at most the limit), later the reply
	pos  int    // parse offset in buf
	tail error  // what ended the read: nil at EOF
	// depth counts the objects and arrays open at pos.
	depth int
	// err is the syntax error, or end of input inside the value, that
	// ended the parse; saved is the first type or unknown-field error,
	// after which the parse goes on to find any syntax error behind it,
	// as encoding/json scans the whole value before it decodes.
	err, saved error
	vals       []float64 // one float array's elements, before it is stored
	nulls      []int     // indexes of its null elements
}

var codecs = sync.Pool{New: func() any { return new(codec) }}

func getCodec() *codec { return codecs.Get().(*codec) }

func (c *codec) release() {
	if cap(c.buf) <= maxPooled && cap(c.vals) <= maxPooled/8 {
		codecs.Put(c)
	}
}

// read fills buf from r up to EOF or the first error, which it keeps as
// the tail.
func (c *codec) read(r io.Reader) {
	c.buf, c.pos, c.tail, c.depth, c.err, c.saved = c.buf[:0], 0, nil, 0, nil, nil
	for {
		if cap(c.buf)-len(c.buf) < 512 {
			c.buf = slices.Grow(c.buf, 4096)
		}
		n, err := r.Read(c.buf[len(c.buf):cap(c.buf)])
		c.buf = c.buf[:len(c.buf)+n]
		if err != nil {
			if err != io.EOF {
				c.tail = err
			}
			return
		}
	}
}

// decode parses the body into v, a *QuoteRequest, *BatchQuoteRequest or
// *SolveRequest. Like json.Decoder.Decode it reads one value and ignores
// what follows it; a read that stopped early (c.tail) is reported only if
// the value needed the bytes it did not get.
func (c *codec) decode(v any) error {
	if c.space(); c.pos == len(c.buf) {
		if c.tail != nil {
			return c.tail
		}
		return io.EOF
	}
	top := c.buf[c.pos]
	switch v := v.(type) {
	case *QuoteRequest:
		c.quoteRequest(v)
	case *BatchQuoteRequest:
		c.batchRequest(v)
	case *SolveRequest:
		c.solveRequest(v)
	default:
		panic("serve: decode wants a *QuoteRequest, *BatchQuoteRequest or *SolveRequest")
	}
	if c.err == nil && top != '{' && top != '[' && c.pos == len(c.buf) && c.tail != nil {
		// A top-level scalar ends at the byte after it, which never came.
		c.err = c.tail
	}
	if c.err != nil {
		return c.err
	}
	return c.saved
}

var (
	requestFields = []string{"scheme", "params"}
	solveFields   = []string{"params"}
	paramsFields  = []string{"a", "g", "c", "v", "alpha", "beta", "r", "b", "q_max", "q_min"}
)

func (c *codec) quoteRequest(req *QuoteRequest) {
	if !c.object("serve.QuoteRequest") {
		return
	}
	for first := true; ; first = false {
		switch c.member(first, requestFields) {
		case done:
			return
		case 0:
			c.string(&req.Scheme, "scheme")
		case 1:
			c.params(&req.Params)
		default:
			c.skip()
		}
	}
}

func (c *codec) batchRequest(req *BatchQuoteRequest) {
	if !c.object("serve.BatchQuoteRequest") {
		return
	}
	for first := true; ; first = false {
		switch c.member(first, requestFields) {
		case done:
			return
		case 0:
			c.string(&req.Scheme, "scheme")
		case 1:
			c.paramsList(&req.Params)
		default:
			c.skip()
		}
	}
}

func (c *codec) solveRequest(req *SolveRequest) {
	if !c.object("serve.SolveRequest") {
		return
	}
	for first := true; ; first = false {
		switch c.member(first, solveFields) {
		case done:
			return
		case 0:
			c.params(&req.Params)
		default:
			c.skip()
		}
	}
}

// params decodes into p in place: members a duplicate or later object
// leaves out keep their values, as encoding/json merges into a struct.
func (c *codec) params(p *ParamsJSON) {
	if !c.object("serve.ParamsJSON") {
		return
	}
	for first := true; ; first = false {
		switch c.member(first, paramsFields) {
		case done:
			return
		case 0:
			c.floats(&p.A, "a")
		case 1:
			c.floats(&p.G, "g")
		case 2:
			c.floats(&p.C, "c")
		case 3:
			c.floats(&p.V, "v")
		case 4:
			c.float(&p.Alpha, "alpha")
		case 5:
			c.float(&p.Beta, "beta")
		case 6:
			c.float(&p.R, "r")
		case 7:
			c.float(&p.B, "b")
		case 8:
			c.float(&p.QMax, "q_max")
		case 9:
			c.float(&p.QMin, "q_min")
		default:
			c.skip()
		}
	}
}

// paramsList decodes a batch's games the way encoding/json fills a slice:
// element i decodes into the slot i already holds, even one past the
// length that an earlier, longer array left behind, and a null element
// leaves its slot as it was.
func (c *codec) paramsList(dst *[]ParamsJSON) {
	switch b := c.space(); b {
	case '[':
		if !c.open() {
			return
		}
		s, i := *dst, 0
		for first := true; c.elem(first); first = false {
			if i == len(s) {
				if i < cap(s) {
					s = s[:i+1]
				} else {
					s = append(s, ParamsJSON{})
				}
			}
			c.params(&s[i])
			i++
		}
		if i == 0 {
			s = []ParamsJSON{}
		}
		*dst = s[:i]
	case 'n':
		if c.literal("null") {
			*dst = nil
		}
	default:
		c.mismatch(b, "params", "[]serve.ParamsJSON")
	}
}

// floats decodes an array of numbers into *dst with encoding/json's slice
// semantics (see paramsList); the common case, a first array, is
// allocated once at its exact length.
func (c *codec) floats(dst *[]float64, field string) {
	switch b := c.space(); b {
	case '[':
		if !c.open() {
			return
		}
		c.vals, c.nulls = c.vals[:0], c.nulls[:0]
		for first := true; c.elem(first); first = false {
			switch b := c.space(); {
			case b == '-' || isDigit(b):
				x, _ := c.number(field)
				c.vals = append(c.vals, x)
			case b == 'n':
				c.literal("null")
				c.nulls = append(c.nulls, len(c.vals))
				c.vals = append(c.vals, 0)
			default:
				c.mismatch(b, field, "float64")
				c.vals = append(c.vals, 0)
			}
		}
		if c.err == nil {
			*dst = storeFloats(*dst, c.vals, c.nulls)
		}
	case 'n':
		if c.literal("null") {
			*dst = nil
		}
	default:
		c.mismatch(b, field, "[]float64")
	}
}

// storeFloats writes an array's elements over old, skipping the null ones,
// growing it only when they do not fit in its capacity.
func storeFloats(old, vals []float64, nulls []int) []float64 {
	if len(vals) == 0 {
		return []float64{}
	}
	s := old[:min(len(vals), cap(old))]
	if len(vals) > cap(old) {
		s = make([]float64, len(vals))
		copy(s, old[:cap(old)])
	}
	if len(nulls) == 0 {
		copy(s, vals)
		return s
	}
	for i, next := 0, 0; i < len(vals); i++ {
		if next < len(nulls) && nulls[next] == i {
			next++
			continue
		}
		s[i] = vals[i]
	}
	return s
}

func (c *codec) float(dst *float64, field string) {
	switch b := c.space(); {
	case b == '-' || isDigit(b):
		if x, ok := c.number(field); ok {
			*dst = x
		}
	case b == 'n':
		c.literal("null")
	default:
		c.mismatch(b, field, "float64")
	}
}

func (c *codec) string(dst *string, field string) {
	switch b := c.space(); b {
	case '"':
		tok, plain := c.str()
		switch {
		case c.err != nil:
		case plain:
			*dst = string(tok[1 : len(tok)-1])
		default:
			*dst = unquote(tok)
		}
	case 'n':
		c.literal("null")
	default:
		c.mismatch(b, field, "string")
	}
}

// unquote decodes a string token holding escapes or non-ASCII bytes. Such
// tokens are rare, so it leaves their decoding (escapes, surrogate pairs,
// invalid UTF-8 replaced by U+FFFD) to encoding/json.
func unquote(tok []byte) string {
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		panic("serve: a scanned string token does not unquote: " + err.Error())
	}
	return s
}

// object starts decoding a struct: it consumes the '{' and reports true,
// or handles the value in its place — null leaves the struct as it is, any
// other kind is a type error — and reports false.
func (c *codec) object(typ string) bool {
	switch b := c.space(); b {
	case '{':
		return c.open()
	case 'n':
		c.literal("null")
	default:
		c.mismatch(b, "", typ)
	}
	return false
}

// done is what member returns at the end of an object or on an error.
const done = -2

// member reads the next key of the object being decoded and the colon
// after it, and returns the key's index in names: matched exactly or under
// Unicode simple case folding, as encoding/json matches field names. An
// unknown key is saved as an error and gets -1; its value is the caller's
// to skip.
func (c *codec) member(first bool, names []string) int {
	if !c.key(first) {
		return done
	}
	tok, plain := c.str()
	if c.err != nil {
		return done
	}
	if c.space() != ':' {
		c.fail("after object key")
		return done
	}
	c.pos++
	if plain {
		key := tok[1 : len(tok)-1]
		for i, name := range names {
			if bytes.EqualFold(key, []byte(name)) {
				return i
			}
		}
		c.save(fmt.Errorf("json: unknown field %q", key))
		return -1
	}
	key := unquote(tok)
	for i, name := range names {
		if strings.EqualFold(key, name) {
			return i
		}
	}
	c.save(fmt.Errorf("json: unknown field %q", key))
	return -1
}

// key moves to the next key of the object being read, after the '{' when
// first is set, else after a member; at the closing '}' it consumes it and
// reports false.
func (c *codec) key(first bool) bool {
	if c.err != nil {
		return false
	}
	switch b := c.space(); {
	case b == '}':
		c.pos++
		c.depth--
		return false
	case first:
	case b == ',':
		c.pos++
	default:
		c.fail("after object key:value pair")
		return false
	}
	if c.space() != '"' {
		c.fail("looking for beginning of object key string")
		return false
	}
	return true
}

// elem moves to the next element of the array being read, after the '['
// when first is set, else after an element; at the closing ']' it consumes
// it and reports false.
func (c *codec) elem(first bool) bool {
	if c.err != nil {
		return false
	}
	switch b := c.space(); {
	case b == ']':
		c.pos++
		c.depth--
		return false
	case first:
	case b == ',':
		c.pos++
	default:
		c.fail("after array element")
		return false
	}
	return true
}

// open consumes the '{' or '[' at pos.
func (c *codec) open() bool {
	c.pos++
	if c.depth++; c.depth > maxDepth {
		c.err = errors.New("exceeded max depth")
		return false
	}
	return true
}

// skip moves past one value of any kind, checking its syntax: the value of
// an unknown key, or one whose kind does not fit its field.
func (c *codec) skip() {
	switch b := c.space(); {
	case b == '{':
		if !c.open() {
			return
		}
		for first := true; c.key(first); first = false {
			c.str()
			if c.err != nil {
				return
			}
			if c.space() != ':' {
				c.fail("after object key")
				return
			}
			c.pos++
			c.skip()
		}
	case b == '[':
		if !c.open() {
			return
		}
		for first := true; c.elem(first); first = false {
			c.skip()
		}
	case b == '"':
		c.str()
	case b == 'n':
		c.literal("null")
	case b == 't':
		c.literal("true")
	case b == 'f':
		c.literal("false")
	case b == '-' || isDigit(b):
		c.numberToken()
	default:
		c.fail("looking for beginning of value")
	}
}

// mismatch saves the type error for a value of the wrong kind at pos and
// skips it.
func (c *codec) mismatch(b byte, field, typ string) {
	kind := "number"
	switch b {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	}
	if field == "" {
		c.save(fmt.Errorf("json: cannot unmarshal %s into Go value of type %s", kind, typ))
	} else {
		c.save(fmt.Errorf("json: cannot unmarshal %s into Go struct field %s of type %s", kind, field, typ))
	}
	c.skip()
}

func (c *codec) save(err error) {
	if c.saved == nil {
		c.saved = err
	}
}

// fail records a syntax error at pos, or the end of the input when pos is
// past it: the read's tail if it stopped early, else an unexpected EOF.
func (c *codec) fail(context string) {
	if c.err != nil {
		return
	}
	switch {
	case c.pos < len(c.buf):
		c.err = fmt.Errorf("invalid character %s %s", quoteChar(c.buf[c.pos]), context)
	case c.tail != nil:
		c.err = c.tail
	default:
		c.err = io.ErrUnexpectedEOF
	}
}

func quoteChar(b byte) string {
	switch b {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := strconv.Quote(string(b))
	return "'" + s[1:len(s)-1] + "'"
}

// space moves past whitespace and returns the byte at pos, 0 at the end
// of the input.
func (c *codec) space() byte {
	for ; c.pos < len(c.buf); c.pos++ {
		switch b := c.buf[c.pos]; b {
		case ' ', '\t', '\n', '\r':
		default:
			return b
		}
	}
	return 0
}

func (c *codec) literal(word string) bool {
	for i := 0; i < len(word); i++ {
		if c.pos >= len(c.buf) || c.buf[c.pos] != word[i] {
			c.fail("in literal " + word + " (expecting " + quoteChar(word[i]) + ")")
			return false
		}
		c.pos++
	}
	return true
}

// number parses the number at pos as encoding/json does: a value out of
// float64's range is a type error, not a syntax error.
func (c *codec) number(field string) (float64, bool) {
	tok := c.numberToken()
	if c.err != nil {
		return 0, false
	}
	x, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		c.save(fmt.Errorf("json: cannot unmarshal number %s into Go struct field %s of type float64", tok, field))
		return 0, false
	}
	return x, true
}

// numberToken moves past a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
func (c *codec) numberToken() []byte {
	b, i := c.buf, c.pos
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		i = digits(b, i)
	default:
		return c.badNumber(i, "in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || !isDigit(b[i]) {
			return c.badNumber(i, "after decimal point in numeric literal")
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return c.badNumber(i, "in exponent of numeric literal")
		}
		i = digits(b, i)
	}
	tok := b[c.pos:i]
	c.pos = i
	return tok
}

func (c *codec) badNumber(at int, context string) []byte {
	c.pos = at
	c.fail(context)
	return nil
}

// digits returns the index of the first byte at or after i in b that is
// not a digit.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

// str moves past the string token at pos and returns it, quotes included,
// and whether it is plain — printable ASCII without escapes, so that its
// bytes are its value.
func (c *codec) str() (tok []byte, plain bool) {
	b, start := c.buf, c.pos
	plain = true
	for i := start + 1; i < len(b); i++ {
		switch ch := b[i]; {
		case ch == '"':
			c.pos = i + 1
			return b[start:c.pos], plain
		case ch == '\\':
			plain = false
			if i++; i >= len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i < len(b) && !isHex(b[i]) {
						c.pos = i
						c.fail("in \\u hexadecimal character escape")
						return nil, false
					}
				}
			default:
				c.pos = i
				c.fail("in string escape code")
				return nil, false
			}
		case ch < 0x20:
			c.pos = i
			c.fail("in string literal")
			return nil, false
		case ch >= 0x80:
			plain = false
		}
	}
	c.pos = len(b)
	c.fail("in string literal")
	return nil, false
}

func isHex(b byte) bool {
	return isDigit(b) || 'a' <= b && b <= 'f' || 'A' <= b && b <= 'F'
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
