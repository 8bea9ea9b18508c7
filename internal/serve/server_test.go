package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"unbiasedfl/internal/cli"
	"unbiasedfl/internal/game"
	"unbiasedfl/internal/scenario"
)

// testParams is a small valid wire game shared across handler tests.
func testParams() ParamsJSON {
	return ParamsJSON{
		A:     []float64{0.25, 0.25, 0.25, 0.25},
		G:     []float64{0.5, 0.6, 0.7, 0.8},
		C:     []float64{40, 45, 50, 55},
		V:     []float64{3000, 3100, 3200, 3300},
		Alpha: 1,
		Beta:  1,
		R:     100,
		B:     200,
	}
}

// tinyScenario is a seconds-scale custom scenario for session tests.
func tinyScenario() scenario.Scenario {
	return scenario.Scenario{
		Name:        "serve-tiny",
		Description: "fast fixture for serving tests",
		Setup:       1,
		Clients:     4,
		Rounds:      6,
		LocalSteps:  2,
		BatchSize:   8,
		EvalEvery:   2,
		Calibration: 1,
		Seed:        7,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeResp[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

func TestQuoteMatchesDirectPrice(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, scheme := range []string{"proposed", "weighted", "uniform"} {
		resp := postJSON(t, ts.URL+"/v1/quote", QuoteRequest{Scheme: scheme, Params: testParams()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", scheme, resp.StatusCode)
		}
		got := decodeResp[QuoteResponse](t, resp)

		ps, err := game.SchemeByName(scheme)
		if err != nil {
			t.Fatal(err)
		}
		pj := testParams()
		p, err := pj.ToGame()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ps.Price(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Scheme != want.Name || got.Spent != want.Spent || got.ServerObj != want.ServerObj {
			t.Fatalf("%s: quote %+v, direct price name=%s spent=%v obj=%v",
				scheme, got, want.Name, want.Spent, want.ServerObj)
		}
		for i := range want.P {
			if got.P[i] != want.P[i] || got.Q[i] != want.Q[i] {
				t.Fatalf("%s: client %d (p,q)=(%v,%v), want (%v,%v)",
					scheme, i, got.P[i], got.Q[i], want.P[i], want.Q[i])
			}
		}
	}
}

func TestSolveMatchesDirectKKT(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Params: testParams()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeResp[SolveResponse](t, resp)

	pj := testParams()
	p, err := pj.ToGame()
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.SolveKKT()
	if err != nil {
		t.Fatal(err)
	}
	if got.Lambda != want.Lambda || got.Spent != want.Spent || got.BudgetTight != want.BudgetTight {
		t.Fatalf("solve %+v, want lambda=%v spent=%v tight=%v", got, want.Lambda, want.Spent, want.BudgetTight)
	}
	for i := range want.Q {
		if got.Q[i] != want.Q[i] || math.Abs(got.P[i]-want.P[i]) != 0 {
			t.Fatalf("client %d (q,p)=(%v,%v), want (%v,%v)", i, got.Q[i], got.P[i], want.Q[i], want.P[i])
		}
	}
}

func TestQuoteCaching(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts.URL+"/v1/quote", QuoteRequest{Params: testParams()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	cs := s.cache.Snapshot()
	if cs.Misses != 1 || cs.Hits != 4 {
		t.Fatalf("cache hits=%d misses=%d after 5 identical quotes, want 4/1", cs.Hits, cs.Misses)
	}
}

// TestHandlerErrorEnvelope pins the typed error envelope for every
// rejection class the API can produce.
func TestHandlerErrorEnvelope(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBody: 2048})
	// A budget below what even the all-QMin profile costs validates and
	// then fails in the solver.
	const unaffordableGame = `{"a":[1],"g":[1],"c":[1],"v":[1],"alpha":1,"r":10,"b":-1e9}`
	const unaffordable = `{"params":` + unaffordableGame + `}`

	bigA := make([]float64, 4096)
	bigBody, _ := json.Marshal(QuoteRequest{Params: ParamsJSON{A: bigA}})

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"bad json", "POST", "/v1/quote", `{"scheme": proposed}`, http.StatusBadRequest, "bad_json"},
		{"unknown field", "POST", "/v1/quote", `{"schme":"proposed"}`, http.StatusBadRequest, "bad_json"},
		{"unknown scheme", "POST", "/v1/quote", `{"scheme":"nope","params":{"a":[1],"g":[1],"c":[1],"v":[1],"alpha":1,"r":10,"b":10}}`, http.StatusNotFound, "unknown_scheme"},
		{"invalid params", "POST", "/v1/quote", `{"params":{"a":[2],"g":[1],"c":[1],"v":[1],"alpha":1,"r":10,"b":10}}`, http.StatusBadRequest, "invalid_params"},
		{"oversized body", "POST", "/v1/quote", string(bigBody), http.StatusRequestEntityTooLarge, "body_too_large"},
		{"invalid solve params", "POST", "/v1/solve", `{"params":{"a":[1],"g":[1],"c":[-1],"v":[1],"alpha":1,"r":10,"b":10}}`, http.StatusBadRequest, "invalid_params"},
		{"bad solve json", "POST", "/v1/solve", `{"params":`, http.StatusBadRequest, "bad_json"},
		{"unaffordable floor", "POST", "/v1/solve", unaffordable, http.StatusInternalServerError, "solve_failed"},
		{"unaffordable floor quote", "POST", "/v1/quote", unaffordable, http.StatusInternalServerError, "solve_failed"},
		{"bad batch json", "POST", "/v1/quotes", `{"params":[`, http.StatusBadRequest, "bad_json"},
		{"empty batch", "POST", "/v1/quotes", `{"params":[]}`, http.StatusBadRequest, "invalid_params"},
		{"unknown batch scheme", "POST", "/v1/quotes", `{"scheme":"nope","params":[{"a":[1],"g":[1],"c":[1],"v":[1],"alpha":1,"r":10,"b":10}]}`, http.StatusNotFound, "unknown_scheme"},
		{"invalid batch params", "POST", "/v1/quotes", `{"params":[{"a":[2],"g":[1],"c":[1],"v":[1],"alpha":1,"r":10,"b":10}]}`, http.StatusBadRequest, "invalid_params"},
		{"unaffordable batch game", "POST", "/v1/quotes", `{"params":[` + unaffordableGame + `]}`, http.StatusInternalServerError, "solve_failed"},
		{"no workload", "POST", "/v1/sessions", `{}`, http.StatusBadRequest, "invalid_session"},
		{"two workloads", "POST", "/v1/sessions", `{"scenario":"baseline","run":{"setup":1}}`, http.StatusBadRequest, "invalid_session"},
		{"unknown scenario", "POST", "/v1/sessions", `{"scenario":"nope"}`, http.StatusBadRequest, "invalid_session"},
		{"bad backend", "POST", "/v1/sessions", `{"scenario":"baseline","backend":"warp"}`, http.StatusBadRequest, "invalid_session"},
		{"bad timeout", "POST", "/v1/sessions", `{"scenario":"baseline","round_timeout":"soon"}`, http.StatusBadRequest, "invalid_session"},
		{"bad setup", "POST", "/v1/sessions", `{"run":{"setup":9}}`, http.StatusBadRequest, "invalid_session"},
		{"unknown session", "GET", "/v1/sessions/s-999", "", http.StatusNotFound, "unknown_session"},
		{"unknown session events", "GET", "/v1/sessions/s-999/events", "", http.StatusNotFound, "unknown_session"},
		{"unknown session result", "GET", "/v1/sessions/s-999/result", "", http.StatusNotFound, "unknown_session"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			env := decodeResp[cli.ErrorEnvelope](t, resp)
			if env.Error.Code != tc.wantCode {
				t.Fatalf("error code %q, want %q (message %q)", env.Error.Code, tc.wantCode, env.Error.Message)
			}
			if env.Error.Message == "" {
				t.Fatal("error envelope has no message")
			}
		})
	}
	// Every rejection of the three pricing endpoints is counted, none of
	// the session ones.
	pricing := 0
	for _, tc := range cases {
		if strings.HasPrefix(tc.path, "/v1/quote") || tc.path == "/v1/solve" {
			pricing++
		}
	}
	if got := s.metrics.quoteErrors.Load(); got != uint64(pricing) {
		t.Fatalf("flserve_quote_errors_total %d after %d rejected pricing requests", got, pricing)
	}
}

// pinnedLimit is the body limit the pinned parse table runs under, small
// enough that its over-limit bodies stay short.
const pinnedLimit = 1024

// pinnedGame lists the members of a small valid game, without braces.
const pinnedGame = `"a":[1],"g":[1],"c":[1],"v":[1],"alpha":1,"r":10,"b":10`

// padBody returns head, spaces and tail, n bytes in all.
func padBody(head, tail string, n int) string {
	return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
}

// pinnedBodies is how the three pricing endpoints answer edge-case bodies
// under a body limit of pinnedLimit: the status and error code of every
// accepted and rejected shape a strict encoding/json decode distinguishes —
// nulls, duplicate and case-folded keys, escapes, trailing bytes, number
// spellings, unknown keys, and bodies at and past the limit.
var pinnedBodies = []struct {
	name, path, body string
	status           int
	code             string // empty for 200
}{
	{"null top level", "/v1/quote", `null`, 400, "invalid_params"},
	{"null params", "/v1/quote", `{"params":null}`, 400, "invalid_params"},
	{"null array", "/v1/quote", `{"params":{"a":null,"g":[1],"c":[1],"v":[1],"alpha":1,"r":10,"b":10}}`, 400, "invalid_params"},
	{"null scalar", "/v1/quote", `{"params":{` + pinnedGame + `,"q_max":null}}`, 200, ""},
	{"null scalar keeps value", "/v1/quote", `{"params":{` + pinnedGame + `,"alpha":null}}`, 200, ""},
	{"null scheme", "/v1/quote", `{"scheme":null,"params":{` + pinnedGame + `}}`, 200, ""},
	{"null array element", "/v1/quote", `{"params":{"a":[null],"g":[1],"c":[1],"v":[1],"alpha":1,"r":10,"b":10}}`, 400, "invalid_params"},
	{"null element keeps slot", "/v1/quote", `{"params":{` + pinnedGame + `,"a":[null]}}`, 200, ""},
	{"duplicate key last wins", "/v1/quote", `{"params":{"a":[2],` + pinnedGame + `}}`, 200, ""},
	{"duplicate key last loses", "/v1/quote", `{"params":{` + pinnedGame + `,"a":[2]}}`, 400, "invalid_params"},
	{"duplicate scheme", "/v1/quote", `{"scheme":"nope","scheme":"proposed","params":{` + pinnedGame + `}}`, 200, ""},
	{"duplicate params merge", "/v1/quote", `{"params":{"a":[1],"g":[1]},"params":{"c":[1],"v":[1],"alpha":1,"r":10,"b":10}}`, 200, ""},
	{"duplicate array keeps slots", "/v1/quote", `{"params":{"a":[0.5,0.5],"a":[9],"a":[0.5,null],"g":[1,1],"c":[1,1],"v":[1,1],"alpha":1,"r":10,"b":10}}`, 200, ""},
	{"case-folded keys", "/v1/quote", `{"Params":{"A":[1],"G":[1],"C":[1],"V":[1],"ALPHA":1,"R":10,"B":10}}`, 200, ""},
	{"escaped key", "/v1/quote", `{"sch\u0065me":"nope","params":{` + pinnedGame + `}}`, 404, "unknown_scheme"},
	{"unicode-folded key", "/v1/quote", `{"ſcheme":"nope","params":{` + pinnedGame + `}}`, 404, "unknown_scheme"},
	{"invalid UTF-8 key", "/v1/quote", "{\"sch\xffme\":\"nope\",\"params\":{" + pinnedGame + "}}", 400, "bad_json"},
	{"escaped scheme", "/v1/quote", `{"scheme":"prop\u006fsed","params":{` + pinnedGame + `}}`, 200, ""},
	{"trailing bytes", "/v1/quote", `{"params":{` + pinnedGame + `}} trailing`, 200, ""},
	{"second object", "/v1/quote", `{"params":{` + pinnedGame + `}}{"scheme":"nope"}`, 200, ""},
	{"empty body", "/v1/quote", ``, 400, "bad_json"},
	{"blank body", "/v1/quote", " \n\t", 400, "bad_json"},
	{"truncated body", "/v1/quote", `{"params":{"a":[1`, 400, "bad_json"},
	{"top-level array", "/v1/quote", `[]`, 400, "bad_json"},
	{"top-level string", "/v1/quote", `"proposed"`, 400, "bad_json"},
	{"top-level number", "/v1/quote", `1`, 400, "bad_json"},
	{"number 1e999", "/v1/quote", `{"params":{` + pinnedGame + `,"r":1e999}}`, 400, "bad_json"},
	{"number -0", "/v1/quote", `{"params":{` + pinnedGame + `,"beta":-0}}`, 200, ""},
	{"number 01", "/v1/quote", `{"params":{` + pinnedGame + `,"r":01}}`, 400, "bad_json"},
	{"number .5", "/v1/quote", `{"params":{` + pinnedGame + `,"r":.5}}`, 400, "bad_json"},
	{"number NaN", "/v1/quote", `{"params":{` + pinnedGame + `,"r":NaN}}`, 400, "bad_json"},
	{"number as string", "/v1/quote", `{"params":{` + pinnedGame + `,"r":"1"}}`, 400, "bad_json"},
	{"unknown key in params", "/v1/quote", `{"params":{` + pinnedGame + `,"d":1}}`, 400, "bad_json"},
	{"body at the limit", "/v1/quote", padBody(`{"params":{`+pinnedGame+`}`, `}`, pinnedLimit), 200, ""},
	{"body one byte over", "/v1/quote", padBody(`{"params":{`+pinnedGame+`}`, `}`, pinnedLimit+1), 413, "body_too_large"},
	{"value ends at the limit", "/v1/quote", padBody(`{"params":{`+pinnedGame+`}`, "}\n", pinnedLimit+1), 200, ""},
	{"null ends at the limit", "/v1/quote", padBody(``, "null ", pinnedLimit+1), 413, "body_too_large"},
	{"batch null", "/v1/quotes", `null`, 400, "invalid_params"},
	{"batch null params", "/v1/quotes", `{"params":null}`, 400, "invalid_params"},
	{"batch null item", "/v1/quotes", `{"params":[null]}`, 400, "invalid_params"},
	{"batch case-folded key", "/v1/quotes", `{"PARAMS":[{` + pinnedGame + `}]}`, 200, ""},
	{"batch unknown key in item", "/v1/quotes", `{"params":[{` + pinnedGame + `,"x":1}]}`, 400, "bad_json"},
	{"batch duplicate merge", "/v1/quotes", `{"params":[{"a":[1],"g":[1]}],"params":[{"c":[1],"v":[1],"alpha":1,"r":10,"b":10}]}`, 200, ""},
	{"batch duplicate keeps slots", "/v1/quotes", `{"params":[{` + pinnedGame + `},{` + pinnedGame + `}],"params":[{` + pinnedGame + `}],"params":[{` + pinnedGame + `},null]}`, 200, ""},
	{"batch one byte over", "/v1/quotes", padBody(`{"params":[{`+pinnedGame+`}`, `]}`, pinnedLimit+1), 413, "body_too_large"},
	{"solve null", "/v1/solve", `null`, 400, "invalid_params"},
	{"solve scheme key", "/v1/solve", `{"scheme":"proposed","params":{` + pinnedGame + `}}`, 400, "bad_json"},
	{"solve trailing bytes", "/v1/solve", `{"params":{` + pinnedGame + `}}]`, 200, ""},
	{"solve one byte over", "/v1/solve", padBody(`{"params":{`+pinnedGame+`}`, `}`, pinnedLimit+1), 413, "body_too_large"},
	{"whitespace around every token", "/v1/quote", " {\t\"scheme\" :\r\"proposed\"\n, \"params\" : { \"a\" : [ 1 ] , \"g\" : [ 1 ] , \"c\" : [ 1 ] , \"v\" : [ 1 ] , \"alpha\" : 1 , \"r\" : 10 , \"b\" : 10 } }\n", 200, ""},
	{"empty batch", "/v1/quotes", `{"params":[]}`, 400, "invalid_params"},
	{"unknown top-level key", "/v1/quote", `{"params":{` + pinnedGame + `},"extra":1}`, 400, "bad_json"},
	{"repeated top-level key", "/v1/quote", `{"params":{` + pinnedGame + `},"params":{"b":20}}`, 200, ""},
}

// TestPricingBodyParsing pins how the pricing endpoints parse their
// bodies: the same accept and reject set as a strict encoding/json decode
// (json.Decoder with DisallowUnknownFields) capped by http.MaxBytesReader.
func TestPricingBodyParsing(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBody: pinnedLimit})
	for _, tc := range pinnedBodies {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, b)
			}
			if tc.code == "" {
				return
			}
			if env := decodeResp[cli.ErrorEnvelope](t, resp); env.Error.Code != tc.code {
				t.Fatalf("error code %q, want %q (message %q)", env.Error.Code, tc.code, env.Error.Message)
			}
		})
	}
}

func TestSchemeAndScenarioListings(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/schemes")
	if err != nil {
		t.Fatal(err)
	}
	schemes := decodeResp[struct {
		Schemes []string `json:"schemes"`
	}](t, resp)
	want := game.SchemeNames()
	if fmt.Sprint(schemes.Schemes) != fmt.Sprint(want) {
		t.Fatalf("schemes %v, want %v", schemes.Schemes, want)
	}

	resp, err = http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	scs := decodeResp[struct {
		Scenarios []string `json:"scenarios"`
	}](t, resp)
	if fmt.Sprint(scs.Scenarios) != fmt.Sprint(scenario.Names()) {
		t.Fatalf("scenarios %v, want %v", scs.Scenarios, scenario.Names())
	}
}

func TestHealthzFlipsWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy healthz status %d", resp.StatusCode)
	}

	s.draining.Store(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}

	// New sessions are refused while draining.
	resp = postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Scenario: "baseline"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining session create status %d, want 503", resp.StatusCode)
	}
	env := decodeResp[cli.ErrorEnvelope](t, resp)
	if env.Error.Code != "draining" {
		t.Fatalf("error code %q, want draining", env.Error.Code)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/quote", QuoteRequest{Params: testParams()})
		resp.Body.Close()
	}
	// One good batch of two (one of them the cached game), one rejected
	// batch and one rejected solve.
	other := testParams()
	other.B = 150
	for _, req := range []struct {
		path string
		body any
	}{
		{"/v1/quotes", BatchQuoteRequest{Params: []ParamsJSON{testParams(), other}}},
		{"/v1/quotes", BatchQuoteRequest{}},
		{"/v1/solve", SolveRequest{}},
	} {
		resp := postJSON(t, ts.URL+req.path, req.body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"flserve_quote_latency_seconds_bucket{le=\"+Inf\"} 3",
		"flserve_quote_requests_total 3",
		"flserve_quote_errors_total 2",
		"flserve_batch_requests_total 2",
		"flserve_batch_quotes_total 2",
		"flserve_solve_requests_total 1",
		"flserve_cache_hits_total 3",
		"flserve_cache_misses_total 2",
		"flserve_sessions_active 0",
		"flserve_sessions_queued 0",
		"flserve_rounds_committed_total 0",
		"flserve_sse_subscribers 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestQuoteLatencyCoversEveryRequest pins what
// flserve_quote_latency_seconds times: every POST /v1/quote, rejected ones
// included, from handler entry until the reply is written — so its sum
// covers the parse and the render, not only the pricing.
func TestQuoteLatencyCoversEveryRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"params":{` + pinnedGame + `}}`,
		`{"params":`,
		`{"scheme":"nope","params":{` + pinnedGame + `}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/quote", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	h := s.metrics.quoteLatency
	if got := h.count.Load(); got != 3 {
		t.Fatalf("latency histogram counted %d of 3 quote requests", got)
	}
	if h.sumNs.Load() <= 0 {
		t.Fatal("latency histogram summed no time")
	}
}

// TestBatchQuoteMatchesSingle pins that the batch endpoint prices each game
// exactly as the single-quote endpoint would, in order, through the same
// cache.
func TestBatchQuoteMatchesSingle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	games := make([]ParamsJSON, 3)
	for i := range games {
		pj := testParams()
		pj.B = 150 + 50*float64(i)
		games[i] = pj
	}
	resp := postJSON(t, ts.URL+"/v1/quotes", BatchQuoteRequest{Scheme: "weighted", Params: games})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	batch := decodeResp[BatchQuoteResponse](t, resp)
	if len(batch.Quotes) != len(games) {
		t.Fatalf("batch returned %d quotes, want %d", len(batch.Quotes), len(games))
	}
	for i, pj := range games {
		single := postJSON(t, ts.URL+"/v1/quote", QuoteRequest{Scheme: "weighted", Params: pj})
		want := decodeResp[QuoteResponse](t, single)
		got := batch.Quotes[i]
		if got.Spent != want.Spent || got.ServerObj != want.ServerObj || len(got.P) != len(want.P) {
			t.Fatalf("game %d: batch %+v, single %+v", i, got, want)
		}
		for j := range want.P {
			if got.P[j] != want.P[j] || got.Q[j] != want.Q[j] {
				t.Fatalf("game %d client %d differs", i, j)
			}
		}
	}
	// The three games were cached by the batch; each single was a hit.
	if cs := s.cache.Snapshot(); cs.Hits != 3 || cs.Misses != 3 {
		t.Fatalf("cache hits=%d misses=%d, want 3/3", cs.Hits, cs.Misses)
	}

	// Empty batch and unknown scheme reject with the envelope.
	for _, tc := range []struct {
		body string
		code string
	}{
		{`{"params":[]}`, "invalid_params"},
		{`{"scheme":"nope","params":[{"a":[1],"g":[1],"c":[1],"v":[1],"alpha":1,"r":10,"b":10}]}`, "unknown_scheme"},
	} {
		resp, err := http.Post(ts.URL+"/v1/quotes", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		env := decodeResp[cli.ErrorEnvelope](t, resp)
		if env.Error.Code != tc.code {
			t.Fatalf("batch error code %q, want %q", env.Error.Code, tc.code)
		}
	}
}

// TestBatchQuoteDeadline pins that a batch which outlives QuoteTimeout stops
// pricing: a 504, counted as an error and not as served quotes, with fewer
// cold solves behind it than the batch has games.
func TestBatchQuoteDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{QuoteTimeout: time.Millisecond, MaxBody: 64 << 20})
	const games, clients = 48, 2048 // ~0.5 ms per cold solve: dozens of limits in all
	batch := BatchQuoteRequest{Params: make([]ParamsJSON, games)}
	for i := range batch.Params {
		pj := ParamsJSON{Alpha: 1, Beta: 1, R: 100}
		for j := 0; j < clients; j++ {
			pj.A = append(pj.A, 1.0/clients)
			pj.G = append(pj.G, 0.5+float64(j%7)/7)
			pj.C = append(pj.C, 41+float64((i+j)%16))
			pj.V = append(pj.V, 3000+float64(j%2000))
			pj.B += pj.C[j] / 3
		}
		batch.Params[i] = pj
	}
	resp := postJSON(t, ts.URL+"/v1/quotes", batch)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if env := decodeResp[cli.ErrorEnvelope](t, resp); env.Error.Code != "deadline_exceeded" {
		t.Fatalf("error code %q, want deadline_exceeded (%s)", env.Error.Code, env.Error.Message)
	}
	if misses := s.cache.Snapshot().Misses; misses >= games {
		t.Fatalf("%d cold solves behind an expired batch of %d games", misses, games)
	}
	if errs, served := s.metrics.quoteErrors.Load(), s.metrics.batchQuotes.Load(); errs != 1 || served != 0 {
		t.Fatalf("quote errors %d, batch quotes %d after one expired batch, want 1 and 0", errs, served)
	}
}

// TestReadyzLifecycle: /readyz is distinct from /healthz — it stays 503
// until Serve has bound the listener (the ready latch), flips to 200, and
// returns to 503 the moment a drain starts, while /healthz keeps answering
// for the process-liveness probe.
func TestReadyzLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	readyz := func() (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body := decodeResp[struct {
			Status string `json:"status"`
		}](t, resp)
		return resp.StatusCode, body.Status
	}

	// Handler wired but Serve not running yet: alive, not ready.
	if code, status := readyz(); code != http.StatusServiceUnavailable || status != "starting" {
		t.Fatalf("pre-serve readyz = %d %q, want 503 starting", code, status)
	}

	s.ready.Store(true) // what Serve does once the listener is bound
	if code, status := readyz(); code != http.StatusOK || status != "ready" {
		t.Fatalf("ready readyz = %d %q, want 200 ready", code, status)
	}

	s.draining.Store(true)
	if code, status := readyz(); code != http.StatusServiceUnavailable || status != "draining" {
		t.Fatalf("draining readyz = %d %q, want 503 draining", code, status)
	}
}

// TestSolveReplyMatchesReflectiveRender solves a 256-client game through
// POST /v1/solve and holds the reply to the one the reflective, indented
// writeJSON renders for the same equilibrium: the same status and content
// type, and values that decode through encoding/json to the same bits. The
// body itself must be json.Marshal's, and an equilibrium holding a NaN or
// an infinity answers 500 encode_failed through the codec's reply.
func TestSolveReplyMatchesReflectiveRender(t *testing.T) {
	var req QuoteRequest
	if err := json.Unmarshal(quoteBody(t, 256, 3), &req); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Params: req.Params})
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	p, err := req.Params.ToGame()
	if err != nil {
		t.Fatal(err)
	}
	eq, err := p.SolveKKT()
	if err != nil {
		t.Fatal(err)
	}
	want := SolveResponse{Q: eq.Q, P: eq.P, Lambda: eq.Lambda, Spent: eq.Spent, ServerObj: eq.ServerObj, BudgetTight: eq.BudgetTight}
	old := httptest.NewRecorder()
	writeJSON(old, http.StatusOK, want)
	if resp.StatusCode != old.Code || resp.Header.Get("Content-Type") != old.Header().Get("Content-Type") {
		t.Fatalf("status %d, content type %q; the reflective render's %d, %q",
			resp.StatusCode, resp.Header.Get("Content-Type"), old.Code, old.Header().Get("Content-Type"))
	}
	var got, was SolveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(old.Body.Bytes(), &was); err != nil {
		t.Fatal(err)
	}
	if len(got.Q) != 256 || len(got.P) != 256 {
		t.Fatalf("reply has %d q and %d p values, want 256 each", len(got.Q), len(got.P))
	}
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if !same(got.Q, was.Q) || !same(got.P, was.P) ||
		!same([]float64{got.Lambda, got.Spent, got.ServerObj}, []float64{was.Lambda, was.Spent, was.ServerObj}) ||
		got.BudgetTight != was.BudgetTight {
		t.Fatalf("the reply decodes to %+v, the reflective render to %+v", got, was)
	}
	marshalled, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, append(marshalled, '\n')) {
		t.Fatalf("reply %s\njson.Marshal %s", body, marshalled)
	}

	for _, bad := range []SolveResponse{{Q: []float64{math.NaN()}}, {Lambda: math.Inf(1)}, {P: []float64{1, math.Inf(-1)}, ServerObj: math.NaN()}} {
		rec := httptest.NewRecorder()
		b, err := json.Marshal(bad)
		c := getCodec()
		c.reply(rec, b, err)
		c.release()
		if env := decodeResp[cli.ErrorEnvelope](t, rec.Result()); rec.Code != http.StatusInternalServerError || env.Error.Code != "encode_failed" {
			t.Fatalf("%+v: status %d, error code %q; want 500 encode_failed", bad, rec.Code, env.Error.Code)
		}
	}
}
