package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"unbiasedfl/internal/cli"
	"unbiasedfl/internal/game"
)

// batchBody wraps the game of a quoteBody in a one-game BatchQuoteRequest.
func batchBody(quote []byte) []byte {
	game := bytes.TrimSuffix(bytes.TrimPrefix(quote, []byte(`{"scheme":"proposed","params":`)), []byte("}"))
	return []byte(`{"params":[` + string(game) + `]}`)
}

// decodeBoth parses body, under a body limit, with the codec and with a
// json.Decoder with DisallowUnknownFields over http.MaxBytesReader, into
// fresh values of the same request type.
func decodeBoth[T pricingRequest](body []byte, limit int64) (got, want T, gotErr, wantErr error) {
	limited := func() io.Reader {
		return http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), limit)
	}
	c := new(codec)
	c.read(limited())
	gotErr = decode(c, &got)
	dec := json.NewDecoder(limited())
	dec.DisallowUnknownFields()
	wantErr = dec.Decode(&want)
	return got, want, gotErr, wantErr
}

// outcome names how a pricing endpoint answers a decode error.
func outcome(err error) string {
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return "accepted"
	case errors.As(err, &tooBig):
		return "413"
	default:
		return "400"
	}
}

// sameFloats reports whether a and b are both nil, or both non-nil with
// bit-identical elements.
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameParams(a, b *ParamsJSON) bool {
	return sameFloats(a.A, b.A) && sameFloats(a.G, b.G) && sameFloats(a.C, b.C) && sameFloats(a.V, b.V) &&
		sameFloats([]float64{a.Alpha, a.Beta, a.R, a.B, a.QMax, a.QMin},
			[]float64{b.Alpha, b.Beta, b.R, b.B, b.QMax, b.QMin})
}

// checkDecode holds the codec to encoding/json on one body and limit for
// all three request types: the same outcome and, when both accept,
// bit-identical fields with the same nil and empty slices.
func checkDecode(t *testing.T, body []byte, limit int64) {
	t.Helper()
	same := func(typ string, gotErr, wantErr error, equal func() bool) {
		t.Helper()
		if outcome(gotErr) != outcome(wantErr) {
			t.Fatalf("%s, limit %d: codec %s (%v), encoding/json %s (%v)\nbody %q",
				typ, limit, outcome(gotErr), gotErr, outcome(wantErr), wantErr, body)
		}
		if gotErr == nil && !equal() {
			t.Fatalf("%s, limit %d: codec and encoding/json decode different values\nbody %q", typ, limit, body)
		}
	}
	q, qWant, err, wantErr := decodeBoth[QuoteRequest](body, limit)
	same("QuoteRequest", err, wantErr, func() bool {
		return q.Scheme == qWant.Scheme && sameParams(&q.Params, &qWant.Params)
	})
	bq, bqWant, err, wantErr := decodeBoth[BatchQuoteRequest](body, limit)
	same("BatchQuoteRequest", err, wantErr, func() bool {
		if bq.Scheme != bqWant.Scheme || (bq.Params == nil) != (bqWant.Params == nil) || len(bq.Params) != len(bqWant.Params) {
			return false
		}
		for i := range bq.Params {
			if !sameParams(&bq.Params[i], &bqWant.Params[i]) {
				return false
			}
		}
		return true
	})
	sq, sqWant, err, wantErr := decodeBoth[SolveRequest](body, limit)
	same("SolveRequest", err, wantErr, func() bool { return sameParams(&sq.Params, &sqWant.Params) })
}

// TestDecodeMatchesEncodingJSON runs the differential check on the pinned
// bodies, each under the pinned limit and with no limit in reach, on
// nesting at encoding/json's depth limit, on number and scheme spellings
// in and out of the one-pass parser's subset, and on a benchmark-shaped
// quote and batch body cut short at every length.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, tc := range pinnedBodies {
		checkDecode(t, []byte(tc.body), pinnedLimit)
		checkDecode(t, []byte(tc.body), int64(len(tc.body))+1)
	}
	// Nesting one level past encoding/json's limit, 10000, is a syntax
	// error (400) even in a body cut short, where an unfinished value is a
	// 413.
	deep := `{"x":` + strings.Repeat("[", 10000)
	checkDecode(t, []byte(deep+"]"), int64(len(deep)))
	checkDecode(t, []byte(deep), int64(len(deep)-1))
	// Number spellings, each the only value of its key in a body that is
	// otherwise canonical.
	for _, num := range []string{"0", "-0", "-0.0", "1E5", "1e-5", "1.5e+3", "1e-999", "01", "-01", "00", "1.", "1.e5", ".5",
		"-", "+1", "1e", "1e+", "0x10", "1_0", "Inf", "1e999", "-1e999"} {
		checkDecode(t, []byte(`{"params":{"a":[1,`+num+`],"g":[1,1],"c":[1,1],"v":[1,1],"alpha":1,"r":`+num+`,"b":10}}`), pinnedLimit)
	}
	// Scheme spellings in a body that is otherwise canonical.
	for _, scheme := range []string{`proposed`, `a/b c~`, `prop\u006fsed`, `a\"b`, "\x7f", "\t", "é", "\xff"} {
		checkDecode(t, []byte(`{"scheme":"`+scheme+`","params":{`+pinnedGame+`}}`), pinnedLimit)
	}
	body := quoteBody(t, 12, 1)
	for _, b := range [][]byte{body, batchBody(body)} {
		for limit := int64(0); limit <= int64(len(b)); limit++ {
			checkDecode(t, b, limit)
		}
	}
}

// FuzzDecodeQuote holds the codec to encoding/json on every body the fuzzer
// makes, under a limit cut bytes short of one past the body's length: for
// each request type, both decoders reject it alike (400 or 413) or both
// accept it with bit-identical fields.
func FuzzDecodeQuote(f *testing.F) {
	for _, tc := range pinnedBodies {
		f.Add([]byte(tc.body), uint16(0))
		if n := len(tc.body) + 1 - pinnedLimit; n > 0 {
			f.Add([]byte(tc.body), uint16(n))
		}
	}
	for _, clients := range []int{12, 256} {
		body := quoteBody(f, clients, 1)
		f.Add(body, uint16(0))
		f.Add(body, uint16(len(body)/2))
		f.Add(batchBody(body), uint16(0))
		var indented bytes.Buffer
		if err := json.Indent(&indented, body, "", "\t"); err != nil {
			f.Fatal(err)
		}
		f.Add(indented.Bytes(), uint16(0))
	}
	f.Fuzz(func(t *testing.T, body []byte, cut uint16) {
		checkDecode(t, body, max(int64(len(body))+1-int64(cut), 0))
	})
}

// jsonNumber is JSON's number grammar, the one (*codec).number parses.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// numberMismatch parses s, followed by a comma, with (*codec).number and
// with strconv.ParseFloat, and describes how they differ: in the verdict,
// in the value's bits, or in where an accepted number ends. It returns ""
// when they agree.
func numberMismatch(c *codec, s []byte) string {
	c.buf = append(append(c.buf[:0], s...), ',')
	c.pos = 0
	got, ok := c.number()
	want, err := strconv.ParseFloat(string(s), 64)
	if ok == (err == nil) && (!ok || math.Float64bits(got) == math.Float64bits(want) && c.pos == len(s)) {
		return ""
	}
	return fmt.Sprintf("number(%q) = %v (%#x), %v, end %d; strconv.ParseFloat: %v (%#x), %v",
		s, got, math.Float64bits(got), ok, c.pos, want, math.Float64bits(want), err)
}

// TestNumberMatchesParseFloat holds (*codec).number to strconv.ParseFloat,
// bits and verdict, on about a million numbers in JSON's grammar: the
// renderer's output of random doubles; 'e' form at every precision 0–21
// and 'f' form at random precisions; random strings of 1–25 digits with a
// random decimal point and exponents in ±350, which reach subnormals,
// overflow, more digits than the mantissa takes and both edges of the
// powers-of-ten table; exact half-way points between two doubles, and
// decimals at or a last digit either side of such a midpoint, where
// Eisel–Lemire's wider approximation and half-way refusal decide; and
// signed zeros, long zero runs and the extreme normal and subnormal
// doubles.
func TestNumberMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewPCG(49, 0x5EED))
	c := new(codec)
	var s []byte
	cases, mismatches := 0, 0
	// Every input is in JSON's grammar: one outside it that strconv
	// accepts would show as a mismatch.
	check := func(s []byte) {
		cases++
		if m := numberMismatch(c, s); m != "" {
			if mismatches++; mismatches <= 10 {
				t.Error(m)
			}
		}
	}
	randFloat := func() float64 {
		for {
			if x := math.Float64frombits(rng.Uint64()); !math.IsNaN(x) && !math.IsInf(x, 0) {
				return x
			}
		}
	}
	// Values as a quote body carries them, and doubles of every exponent.
	for i := 0; i < 150_000; i++ {
		check(appendFloat(s[:0], (rng.Float64()-0.5)*math.Pow(10, float64(rng.IntN(24)-12))))
		check(appendFloat(s[:0], randFloat()))
	}
	for i := 0; i < 10_000; i++ {
		x := randFloat()
		for prec := 0; prec <= 21; prec++ {
			check(strconv.AppendFloat(s[:0], x, 'e', prec, 64))
		}
		y := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(40)-20))
		check(strconv.AppendFloat(s[:0], y, 'f', rng.IntN(26), 64))
	}
	// Random digit strings: an integer part of "0" or a non-zero digit
	// first, then any digits; a fraction; an exponent.
	const digits = "0123456789"
	for i := 0; i < 300_000; i++ {
		s = s[:0]
		if rng.IntN(2) == 0 {
			s = append(s, '-')
		}
		n := 1 + rng.IntN(25)
		intLen := rng.IntN(n + 1)
		if intLen == 0 {
			s = append(s, '0')
		} else {
			s = append(s, digits[1+rng.IntN(9)])
			for j := 1; j < intLen; j++ {
				s = append(s, digits[rng.IntN(10)])
			}
		}
		if intLen < n {
			s = append(s, '.')
			for j := intLen; j < n; j++ {
				s = append(s, digits[rng.IntN(10)])
			}
		}
		if rng.IntN(3) > 0 {
			s = append(s, "eE"[rng.IntN(2)])
			if sign := rng.IntN(3); sign > 0 {
				s = append(s, "+-"[sign-1])
			}
			if rng.IntN(8) == 0 {
				s = append(s, '0')
			}
			s = strconv.AppendInt(s, int64(rng.IntN(351)), 10)
		}
		check(s)
	}
	// Mantissas of up to 19 digits scaled to each side of the table's
	// edges, 10^pow10Min and 10^pow10Max.
	for i := 0; i < 20_000; i++ {
		man := rng.Uint64N(1<<63) >> rng.IntN(63)
		frac := rng.IntN(20)
		for _, edge := range []int{pow10Min, pow10Max} {
			for e := edge - 2; e <= edge+2; e++ {
				s = strconv.AppendUint(s[:0], man, 10)
				check(strconv.AppendInt(append(s, 'e'), int64(e+frac), 10))
			}
		}
	}
	// Exact half-way points y·10^e between two doubles: 5^e·o is an odd
	// 54-bit integer and y = o·2^k has at most 19 digits.
	pow5 := uint64(1)
	for e := 0; e <= 22; e++ {
		lo, hi := (uint64(1)<<53)/pow5+1, (uint64(1)<<54-1)/pow5
		for i := 0; i < 200; i++ {
			o := (lo + rng.Uint64N(hi-lo+1)) | 1
			if o > hi {
				o -= 2
			}
			for k := max(0, 53-bits.Len64(o)); bits.Len64(o)+k <= 63; k++ {
				y := strconv.FormatUint(o<<k, 10)
				check(fmt.Appendf(s[:0], "%se%d", y, e))
				p := 1 + rng.IntN(len(y)-1)
				check(fmt.Appendf(s[:0], "-%s.%se%d", y[:p], y[p:], e+len(y)-p))
			}
		}
		pow5 *= 5
	}
	// Decimals at, and a last digit either side of, the midpoint of two
	// neighbouring doubles, to 16–19 significant digits.
	mid := new(big.Float).SetPrec(64)
	for i := 0; i < 20_000; i++ {
		x := math.Abs(randFloat())
		if x == math.MaxFloat64 {
			continue
		}
		next := new(big.Float).SetFloat64(math.Nextafter(x, math.Inf(1)))
		mid.SetFloat64(x).Add(mid, next).Quo(mid, big.NewFloat(2))
		text := []byte(mid.Text('e', 15+rng.IntN(4)))
		check(text)
		last := bytes.IndexByte(text, 'e') - 1
		if d := text[last]; d > '0' && d < '9' {
			for _, nudge := range []byte{d - 1, d + 1} {
				text[last] = nudge
				check(text)
			}
		}
	}
	for _, x := range []string{
		"0", "-0", "0.0", "-0.0", "0e0", "-0E-0", "0e400", "-0e-400", "0.000000000000000000000000000000",
		"0." + strings.Repeat("0", 400), "-0." + strings.Repeat("0", 400) + "e400",
		"0." + strings.Repeat("0", 320) + "1", "0." + strings.Repeat("0", 300) + "1e300",
		"1" + strings.Repeat("0", 308), "1" + strings.Repeat("0", 309), "1" + strings.Repeat("0", 19) + ".0",
		"5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"2.2250738585072011e-308", "2.2250738585072014e-308", "2.225073858507201e-308",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "-1.7976931348623159e308",
		"1e308", "1e309", "-1e309", "1e-400", "1e99999999999999999999", "1e-99999999999999999999",
		"9007199254740993", "9007199254740992.5", "123456789012345678901234567890",
		"1e22", "1e23", "1e37", "1e38", "1e-22", "1e-23", "4503599627370496e1", "4503599627370495e37",
	} {
		check([]byte(x))
	}
	for _, x := range []float64{
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1022 - 0x1p-1074, math.MaxFloat64,
	} {
		check(appendFloat(s[:0], x))
		check(appendFloat(s[:0], -x))
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d numbers differ from strconv.ParseFloat", mismatches, cases)
	}
	t.Logf("%d numbers, each as strconv.ParseFloat parses it", cases)
}

// FuzzNumber holds (*codec).number to strconv.ParseFloat on every byte
// string the fuzzer makes, past the JSON whitespace number skips and
// followed by a comma: a number in JSON's grammar gets strconv's verdict
// and bits and ends where the string does, and the parser accepts all of a
// string only if it is such a number.
func FuzzNumber(f *testing.F) {
	for _, s := range []string{"0", " -0.0", "1.5e+3", "1e-5", "5e-324", "1e309", "01", "1.", "-", "1e", "0.1x",
		"9007199254740993", "123456789012345678901234567890e-10", "1.7976931348623159e308"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, s []byte) {
		s = bytes.TrimLeft(s, " \t\n\r")
		c := new(codec)
		if jsonNumber.Match(s) {
			if m := numberMismatch(c, s); m != "" {
				t.Fatal(m)
			}
			return
		}
		c.buf = append(append(c.buf, s...), ',')
		if _, ok := c.number(); ok && c.pos == len(s) {
			t.Fatalf("number accepts all of %q, which is not a JSON number", s)
		}
	})
}

// TestCanonicalBodiesTakeOnePass decodes json.Marshal and
// json.MarshalIndent bodies of a 12- and a 256-client quote, a batch and a
// solve request. Each decode must fill what encoding/json fills and
// allocate no more than that takes: its float arrays, a non-empty scheme
// and a batch's slice as it grows, once per doubling. A body handed on to
// encoding/json costs a decoder and its buffers on top, and fails here.
func TestCanonicalBodiesTakeOnePass(t *testing.T) {
	var small, large QuoteRequest
	for _, q := range []struct {
		req     *QuoteRequest
		clients int
	}{{&small, 12}, {&large, 256}} {
		if err := json.Unmarshal(quoteBody(t, q.clients, 1), q.req); err != nil {
			t.Fatal(err)
		}
	}
	checkOnePass(t, "12-client quote", small, 4+1)
	checkOnePass(t, "256-client quote", large, 4+1)
	checkOnePass(t, "batch", BatchQuoteRequest{Scheme: "proposed", Params: []ParamsJSON{small.Params, large.Params}}, 2*4+1+2)
	checkOnePass(t, "solve", SolveRequest{Params: small.Params}, 4)
}

// checkOnePass decodes req's compact and indented json.Marshal bodies,
// allowing decode at most allocs allocations.
func checkOnePass[T pricingRequest](t *testing.T, name string, req T, allocs float64) {
	t.Helper()
	compact, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(req, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{compact, indented} {
		c, r := new(codec), bytes.NewReader(body)
		var got T
		n := testing.AllocsPerRun(10, func() {
			r.Reset(body)
			c.read(r)
			var zero T
			got = zero
			err = decode(c, &got)
		})
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("%s: decode gives %+v (%v), want %+v\nbody %s", name, got, err, req, body)
		}
		if n > allocs {
			t.Errorf("%s: decode allocates %v times, want at most %v\nbody %s", name, n, allocs, body)
		}
	}
}

// floatsFromBits reads b as little-endian float64 bit patterns: nil for no
// bytes, an empty slice for fewer than eight.
func floatsFromBits(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	fs := make([]float64, 0, len(b)/8)
	for ; len(b) >= 8; b = b[8:] {
		var u uint64
		for i := 7; i >= 0; i-- {
			u = u<<8 | uint64(b[i])
		}
		fs = append(fs, math.Float64frombits(u))
	}
	return fs
}

// checkRender holds appendQuote, and appendBatch on an empty and a
// two-quote batch, to json.Marshal: the same bytes after what the buffer
// held, or the same error.
func checkRender(t *testing.T, q QuoteResponse) {
	t.Helper()
	same := func(v any, got []byte, err error) {
		t.Helper()
		want, wantErr := json.Marshal(v)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("%#v: render error %v, json.Marshal error %v", v, err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("%#v: render error %q, json.Marshal error %q", v, err, wantErr)
		case err == nil && string(got) != "prefix"+string(want):
			t.Fatalf("%#v:\nrender       %s\njson.Marshal prefix%s", v, got, want)
		}
	}
	got, err := appendQuote([]byte("prefix"), &q)
	same(q, got, err)
	for _, r := range []BatchQuoteResponse{{}, {Quotes: []QuoteResponse{q, q}}} {
		got, err := appendBatch([]byte("prefix"), &r)
		same(r, got, err)
	}
}

// FuzzEncodeQuote holds the renderer to json.Marshal on fuzzed scheme
// names (any bytes) and float bit patterns (NaN and infinities included).
func FuzzEncodeQuote(f *testing.F) {
	bits := func(fs ...float64) []byte {
		var b []byte
		for _, x := range fs {
			u := math.Float64bits(x)
			for i := 0; i < 8; i++ {
				b = append(b, byte(u>>(8*i)))
			}
		}
		return b
	}
	f.Add("proposed", bits(0.25, 1e-7), bits(1, math.Copysign(0, -1)), 1e21, 5e-324)
	f.Add("a<b>&c\u2028\xff\"\\\n", []byte{}, []byte{1}, math.MaxFloat64, -1e-6)
	f.Add("nan", bits(math.NaN()), bits(math.Inf(1)), math.Inf(-1), 0.0)
	f.Fuzz(func(t *testing.T, scheme string, p, q []byte, spent, obj float64) {
		checkRender(t, QuoteResponse{Scheme: scheme, P: floatsFromBits(p), Q: floatsFromBits(q), Spent: spent, ServerObj: obj})
	})
}

// TestQuoteRenderGolden pins the renderer's bytes on encoding/json's float
// format edges, HTML-sensitive and invalid scheme names, and nil against
// empty slices, and its refusal of NaN and infinities.
func TestQuoteRenderGolden(t *testing.T) {
	for _, tc := range []struct {
		q    QuoteResponse
		want string
	}{
		{QuoteResponse{Scheme: "proposed", P: []float64{0, math.Copysign(0, -1)}, Q: []float64{1e-7, 1e-6}, Spent: 1e20, ServerObj: 1e21},
			`{"scheme":"proposed","p":[0,-0],"q":[1e-7,0.000001],"spent":100000000000000000000,"server_obj":1e+21}`},
		{QuoteResponse{Scheme: "tiny", P: []float64{5e-324, -5e-324}, Q: []float64{math.MaxFloat64, -math.MaxFloat64}, Spent: 0.1, ServerObj: -2.5e-8},
			`{"scheme":"tiny","p":[5e-324,-5e-324],"q":[1.7976931348623157e+308,-1.7976931348623157e+308],"spent":0.1,"server_obj":-2.5e-8}`},
		{QuoteResponse{Scheme: "a<b>&c\u2028d\u2029\xffe", P: nil, Q: []float64{}},
			`{"scheme":"a\u003cb\u003e\u0026c\u2028d\u2029\ufffde","p":null,"q":[],"spent":0,"server_obj":0}`},
	} {
		got, err := appendQuote(nil, &tc.q)
		if err != nil || string(got) != tc.want {
			t.Errorf("render %#v:\ngot  %s (%v)\nwant %s", tc.q, got, err, tc.want)
		}
		checkRender(t, tc.q)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, q := range []QuoteResponse{{P: []float64{1, x}}, {Q: []float64{x}}, {Spent: x}, {ServerObj: x}} {
			if _, err := appendQuote(nil, &q); err == nil {
				t.Errorf("render %#v: no error", q)
			}
			checkRender(t, q)
		}
	}
}

// goldenScheme prices every game with the outcome the test set last, so
// that the handler renders chosen values and names.
type goldenScheme struct {
	mu  *sync.Mutex
	out *game.Outcome
}

func (goldenScheme) Name() string { return "golden<&\u2028" }

func (s goldenScheme) Price(*game.Params) (*game.Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := *s.out
	return &out, nil
}

// TestQuoteHandlerRendersGolden drives the renderer through POST /v1/quote
// with a scheme registered under an HTML-sensitive name: every reply is
// the golden bytes and json.Marshal's, and a NaN or infinity in the
// outcome answers 500 encode_failed.
func TestQuoteHandlerRendersGolden(t *testing.T) {
	scheme := goldenScheme{mu: new(sync.Mutex), out: new(game.Outcome)}
	if err := game.RegisterScheme(scheme); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { game.UnregisterScheme(scheme.Name()) })
	_, ts := newTestServer(t, Config{})
	for i, tc := range []struct {
		out    game.Outcome
		status int
		want   string // the reply for 200, the error code otherwise
	}{
		{game.Outcome{Name: scheme.Name(), P: []float64{1e-7, 1e21}, Q: []float64{}},
			200, `{"scheme":"golden\u003c\u0026\u2028","p":[1e-7,1e+21],"q":[],"spent":0,"server_obj":0}`},
		{game.Outcome{Name: "bad\xffname", Q: []float64{5e-324}, Spent: math.MaxFloat64, ServerObj: 1e-6},
			200, `{"scheme":"bad\ufffdname","p":null,"q":[5e-324],"spent":1.7976931348623157e+308,"server_obj":0.000001}`},
		{game.Outcome{Name: scheme.Name(), P: []float64{math.NaN()}}, 500, "encode_failed"},
		{game.Outcome{Name: scheme.Name(), Spent: math.Inf(-1)}, 500, "encode_failed"},
	} {
		scheme.mu.Lock()
		*scheme.out = tc.out
		scheme.mu.Unlock()
		// A budget of its own per case keeps the quote cache out of the way.
		body := fmt.Sprintf(`{"scheme":"golden\u003c&\u2028","params":{"a":[1],"g":[1],"c":[1],"v":[1],"alpha":1,"r":10,"b":%d}}`, 10+i)
		resp, err := http.Post(ts.URL+"/v1/quote", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("case %d: status %d, want %d", i, resp.StatusCode, tc.status)
		}
		if tc.status != 200 {
			if env := decodeResp[cli.ErrorEnvelope](t, resp); env.Error.Code != tc.want {
				t.Fatalf("case %d: error code %q, want %q", i, env.Error.Code, tc.want)
			}
			continue
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		marshalled, err := json.Marshal(QuoteResponse{Scheme: tc.out.Name, P: tc.out.P, Q: tc.out.Q, Spent: tc.out.Spent, ServerObj: tc.out.ServerObj})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want+"\n" || !bytes.Equal(got, append(marshalled, '\n')) {
			t.Fatalf("case %d: reply %s\nwant         %s\njson.Marshal %s", i, got, tc.want, marshalled)
		}
	}
}

// TestConcurrentQuotesKeepTheirBuffers sends distinct games from several
// goroutines at once: every reply must be its own game's json.Marshal
// bytes, so no pooled codec buffer is shared between requests in flight.
func TestConcurrentQuotesKeepTheirBuffers(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ps, err := game.SchemeByName(game.SchemeNameProposed)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				pj := testParams()
				pj.B = 150 + float64(100*g+i)
				want, err := directReply(ps, pj)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := json.Marshal(QuoteRequest{Params: pj})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/quote", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("goroutine %d, game %d: reply %s (%v), want %s", g, i, got, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// directReply prices pj under ps without the server and renders the reply
// with json.Marshal.
func directReply(ps game.PricingScheme, pj ParamsJSON) ([]byte, error) {
	p, err := pj.ToGame()
	if err != nil {
		return nil, err
	}
	out, err := ps.Price(p)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(QuoteResponse{Scheme: out.Name, P: out.P, Q: out.Q, Spent: out.Spent, ServerObj: out.ServerObj})
	return append(b, '\n'), err
}
