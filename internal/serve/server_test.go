package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
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
