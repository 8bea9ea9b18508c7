package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unbiasedfl"
	"unbiasedfl/internal/cli"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/game"
	"unbiasedfl/internal/scenario"
)

// Config tunes the serving daemon. The zero value is usable: every field
// has a default applied by New.
type Config struct {
	// Addr is the listen address for ListenAndServe (default "127.0.0.1:8080").
	Addr string
	// CacheSize bounds the quote memo-cache in resident games (default 4096).
	CacheSize int
	// MaxSessions bounds concurrently running federation sessions (default 2).
	MaxSessions int
	// MaxQueued bounds sessions waiting for a slot; beyond it POST
	// /v1/sessions answers 429 (default 8).
	MaxQueued int
	// MaxFinished bounds retained terminal sessions, evicted oldest first
	// (default 64).
	MaxFinished int
	// MaxBody bounds request bodies in bytes; beyond it the daemon answers
	// 413 (default 1 MiB).
	MaxBody int64
	// QuoteTimeout is the per-request deadline on the quote/solve endpoints
	// (default 10s).
	QuoteTimeout time.Duration
	// DrainTimeout bounds the graceful shutdown: in-flight requests and
	// cancelled sessions get this long to finish (default 15s).
	DrainTimeout time.Duration
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 2
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 8
	}
	if c.MaxFinished <= 0 {
		c.MaxFinished = 64
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.QuoteTimeout <= 0 {
		c.QuoteTimeout = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the multi-tenant serving daemon: sharded quote cache, session
// registry with admission control, SSE event streams, and Prometheus-style
// metrics, all behind one http.Handler.
type Server struct {
	cfg      Config
	cache    *game.Cache
	metrics  *metrics
	registry *sessionRegistry
	mux      *http.ServeMux

	draining   atomic.Bool
	ready      atomic.Bool
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// runOverride replaces the session body in tests (admission-control and
	// lifecycle tests need runs that block or finish on command).
	runOverride func(s *serveSession)
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      game.NewCache(cfg.CacheSize),
		metrics:    newMetrics(),
		registry:   newSessionRegistry(cfg.MaxSessions, cfg.MaxQueued, cfg.MaxFinished),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.registry.launch = func(sess *serveSession) {
		s.wg.Add(1)
		go s.runSession(sess)
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/quote", s.handleQuote)
	s.mux.HandleFunc("POST /v1/quotes", s.handleBatchQuote)
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	s.mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleGetSession)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	s.mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleSessionEvents)
	s.mux.HandleFunc("GET /v1/sessions/{id}/result", s.handleSessionResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// Handler exposes the daemon's full route table (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe binds cfg.Addr and serves until ctx is cancelled, then
// drains gracefully. A clean drain returns nil. An address of the form
// "unix:/path/to.sock" binds a Unix domain socket instead of TCP — the
// cheap transport for same-host tenants (and the serving benchmark, where
// loopback TCP's per-request cost is pure overhead).
func (s *Server) ListenAndServe(ctx context.Context) error {
	network, addr := "tcp", s.cfg.Addr
	if path, ok := strings.CutPrefix(s.cfg.Addr, "unix:"); ok {
		network, addr = "unix", path
		_ = os.Remove(path) // stale socket from a previous run
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve runs the daemon on an existing listener until ctx is cancelled,
// then drains: health flips to 503, new sessions are refused, running
// sessions are cancelled through their contexts, and in-flight requests
// (including SSE streams) get DrainTimeout to finish.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	srv := &http.Server{
		Handler:     s.mux,
		ReadTimeout: 30 * time.Second,
	}
	// The listener is bound and the route table is wired: the daemon can
	// accept traffic, so readiness (distinct from liveness) flips here.
	s.ready.Store(true)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		s.baseCancel()
		return err
	case <-ctx.Done():
	}

	s.cfg.Logf("flserve: draining (timeout %s)", s.cfg.DrainTimeout)
	s.draining.Store(true)
	s.baseCancel() // cancels every running session and wakes SSE streams

	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(drainCtx)

	sessionsDone := make(chan struct{})
	go func() { s.wg.Wait(); close(sessionsDone) }()
	select {
	case <-sessionsDone:
	case <-drainCtx.Done():
		err = errors.Join(err, fmt.Errorf("serve: sessions still running after drain timeout"))
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	if err == nil {
		s.cfg.Logf("flserve: drained cleanly")
	}
	return err
}

// decodeBody parses a size-capped, strict JSON request body into v. On
// failure it writes the typed error envelope and returns false. The
// pricing endpoints parse with their codec instead (decodePricing).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	return s.bodyOK(w, decodeStrict(r.Body, v))
}

// decodeStrict decodes the first JSON value r yields into v, refusing
// keys that match no field.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodePricing reads a pricing request's body into c, capped at MaxBody,
// and parses it into v, accepting and rejecting what decodeStrict would
// reading the capped body. On failure it writes the typed error envelope
// and returns false.
func decodePricing[T pricingRequest](s *Server, w http.ResponseWriter, r *http.Request, c *codec, v *T) bool {
	c.read(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	return s.bodyOK(w, decode(c, v))
}

// bodyOK reports whether a request body parsed, else writes its error
// envelope: 413 when the body outgrew MaxBody before its value ended, 400
// otherwise.
func (s *Server) bodyOK(w http.ResponseWriter, err error) bool {
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		cli.WriteHTTPError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBody))
		return false
	}
	cli.WriteHTTPError(w, http.StatusBadRequest, "bad_json", err.Error())
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = cli.WriteJSON(w, v)
}

// quoteError counts a failed quote, batch or solve request in
// flserve_quote_errors_total and writes its error envelope.
func (s *Server) quoteError(w http.ResponseWriter, status int, code, msg string) {
	s.metrics.quoteErrors.Add(1)
	cli.WriteHTTPError(w, status, code, msg)
}

// handleQuote prices one game. flserve_quote_latency_seconds times every
// request from here until its reply is written; the QuoteTimeout check
// covers the pricing alone.
func (s *Server) handleQuote(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.quoteRequests.Add(1)
	c := getCodec()
	defer func() {
		c.release()
		s.metrics.quoteLatency.observe(time.Since(start))
	}()
	var req QuoteRequest
	if !decodePricing(s, w, r, c, &req) {
		s.metrics.quoteErrors.Add(1)
		return
	}
	name := req.Scheme
	if name == "" {
		name = "proposed"
	}
	ps, err := game.SchemeByName(name)
	if err != nil {
		s.quoteError(w, http.StatusNotFound, "unknown_scheme", err.Error())
		return
	}
	p, err := req.Params.ToGame()
	if err != nil {
		s.quoteError(w, http.StatusBadRequest, "invalid_params", err.Error())
		return
	}
	// The solve is a bounded closed-form KKT computation (no I/O, no
	// unbounded loops), so the per-request deadline is enforced by checking
	// elapsed time after the compute instead of racing a goroutine against
	// the context — keeping the cached fast path free of per-request spawns.
	priced := time.Now()
	out, err := s.cache.Price(ps, p)
	if err == nil && (time.Since(priced) > s.cfg.QuoteTimeout || r.Context().Err() != nil) {
		err = context.DeadlineExceeded
	}
	if err != nil {
		status, code := http.StatusInternalServerError, "solve_failed"
		if errors.Is(err, context.DeadlineExceeded) {
			status, code = http.StatusGatewayTimeout, "deadline_exceeded"
		}
		s.quoteError(w, status, code, err.Error())
		return
	}
	b, err := appendQuote(c.buf[:0], &QuoteResponse{
		Scheme:    out.Name,
		P:         out.P,
		Q:         out.Q,
		Spent:     out.Spent,
		ServerObj: out.ServerObj,
	})
	c.reply(w, b, err)
}

// handleBatchQuote prices a batch of games under one scheme, each through
// the shared cache. The whole batch either succeeds or reports the first
// failing game's error, so clients never have to merge partial results. The
// deadline and the request's context are checked before every game and once
// after the last, so an expired or abandoned batch costs at most one solve
// past its limit.
func (s *Server) handleBatchQuote(w http.ResponseWriter, r *http.Request) {
	s.metrics.batchRequests.Add(1)
	c := getCodec()
	defer c.release()
	var req BatchQuoteRequest
	if !decodePricing(s, w, r, c, &req) {
		s.metrics.quoteErrors.Add(1)
		return
	}
	if len(req.Params) == 0 {
		s.quoteError(w, http.StatusBadRequest, "invalid_params", "empty batch")
		return
	}
	name := req.Scheme
	if name == "" {
		name = "proposed"
	}
	ps, err := game.SchemeByName(name)
	if err != nil {
		s.quoteError(w, http.StatusNotFound, "unknown_scheme", err.Error())
		return
	}
	start := time.Now()
	resp := BatchQuoteResponse{Quotes: make([]QuoteResponse, len(req.Params))}
	for i := 0; ; i++ {
		if elapsed := time.Since(start); elapsed > s.cfg.QuoteTimeout || r.Context().Err() != nil {
			s.quoteError(w, http.StatusGatewayTimeout, "deadline_exceeded",
				fmt.Sprintf("batch stopped after %d of %d games and %s, limit %s",
					i, len(req.Params), elapsed, s.cfg.QuoteTimeout))
			return
		}
		if i == len(req.Params) {
			break
		}
		p, err := req.Params[i].ToGame()
		if err != nil {
			s.quoteError(w, http.StatusBadRequest, "invalid_params", fmt.Sprintf("game %d: %v", i, err))
			return
		}
		out, err := s.cache.Price(ps, p)
		if err != nil {
			s.quoteError(w, http.StatusInternalServerError, "solve_failed", fmt.Sprintf("game %d: %v", i, err))
			return
		}
		resp.Quotes[i] = QuoteResponse{
			Scheme:    out.Name,
			P:         out.P,
			Q:         out.Q,
			Spent:     out.Spent,
			ServerObj: out.ServerObj,
		}
	}
	s.metrics.batchQuotes.Add(uint64(len(req.Params)))
	b, err := appendBatch(c.buf[:0], &resp)
	c.reply(w, b, err)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.metrics.solveRequests.Add(1)
	c := getCodec()
	defer c.release()
	var req SolveRequest
	if !decodePricing(s, w, r, c, &req) {
		s.metrics.quoteErrors.Add(1)
		return
	}
	p, err := req.Params.ToGame()
	if err != nil {
		s.quoteError(w, http.StatusBadRequest, "invalid_params", err.Error())
		return
	}
	eq, err := s.cache.Solve(p)
	if err != nil {
		s.quoteError(w, http.StatusInternalServerError, "solve_failed", err.Error())
		return
	}
	b, err := json.Marshal(SolveResponse{
		Q:           eq.Q,
		P:           eq.P,
		Lambda:      eq.Lambda,
		Spent:       eq.Spent,
		ServerObj:   eq.ServerObj,
		BudgetTight: eq.BudgetTight,
	})
	c.reply(w, b, err)
}

func (s *Server) handleSchemes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Schemes []string `json:"schemes"`
	}{game.SchemeNames()})
}

func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Scenarios []string `json:"scenarios"`
	}{scenario.Names()})
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		cli.WriteHTTPError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	var req SessionRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	sess, err := s.buildSession(req)
	if err != nil {
		cli.WriteHTTPError(w, http.StatusBadRequest, "invalid_session", err.Error())
		return
	}
	if err := s.registry.admit(sess); err != nil {
		sess.cancel()
		s.metrics.sessionsRejected.Add(1)
		cli.WriteHTTPError(w, http.StatusTooManyRequests, "sessions_full", err.Error())
		return
	}
	st := sess.status()
	st.Location = "/v1/sessions/" + st.ID
	w.Header().Set("Location", st.Location)
	writeJSON(w, http.StatusAccepted, st)
}

// buildSession validates the request and assembles the (not yet admitted)
// session with its cancellable run context.
func (s *Server) buildSession(req SessionRequest) (*serveSession, error) {
	workloads := 0
	for _, set := range []bool{req.Scenario != "", req.Spec != nil, req.Run != nil} {
		if set {
			workloads++
		}
	}
	if workloads != 1 {
		return nil, errors.New("exactly one of scenario, spec, or run must be set")
	}
	switch req.Backend {
	case "", "local", "cluster":
	default:
		return nil, fmt.Errorf("unknown backend %q (want local or cluster)", req.Backend)
	}
	if req.RoundTimeout != "" {
		if _, err := time.ParseDuration(req.RoundTimeout); err != nil {
			return nil, fmt.Errorf("bad round_timeout: %v", err)
		}
	}
	sess := &serveSession{req: req, state: StateQueued}
	switch {
	case req.Scenario != "":
		sc, err := scenario.ByName(req.Scenario)
		if err != nil {
			return nil, err
		}
		sess.kind = "scenario"
		sess.label = sc.Name
	case req.Spec != nil:
		if err := req.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("bad spec: %v", err)
		}
		sess.kind = "scenario"
		sess.label = req.Spec.Name
	case req.Run != nil:
		run := req.Run
		if run.Setup < 1 || run.Setup > 3 {
			return nil, fmt.Errorf("bad run.setup %d (want 1..3)", run.Setup)
		}
		scheme := run.Scheme
		if scheme == "" {
			scheme = "proposed"
		}
		if _, err := game.SchemeByName(scheme); err != nil {
			return nil, err
		}
		if req.Checkpoint != nil {
			return nil, errors.New("checkpointing applies to scenario sessions only")
		}
		sess.kind = "run"
		sess.label = fmt.Sprintf("setup%d/%s", run.Setup, scheme)
	}
	sess.ctx, sess.cancel = context.WithCancel(s.baseCtx)
	return sess, nil
}

// runSession executes one admitted session to a terminal state. It owns the
// slot: whatever happens, it releases it and flips a finished counter.
func (s *Server) runSession(sess *serveSession) {
	defer s.wg.Done()
	defer s.registry.release()
	defer sess.cancel()

	s.metrics.sessionsStarted.Add(1)
	sess.publish(eventStarted, []byte(fmt.Sprintf(`{"id":%q,"label":%q}`, sess.id, sess.label)))
	s.cfg.Logf("flserve: session %s started (%s %s)", sess.id, sess.kind, sess.label)

	if s.runOverride != nil {
		s.runOverride(sess)
		return
	}

	var (
		result []byte
		err    error
	)
	switch sess.kind {
	case "scenario":
		result, err = s.runScenarioSession(sess)
	case "run":
		result, err = s.runSchemeSession(sess)
	default:
		err = fmt.Errorf("serve: unknown session kind %q", sess.kind)
	}

	switch {
	case err == nil:
		s.metrics.sessionsCompleted.Add(1)
		sess.finish(StateDone, eventDone,
			[]byte(fmt.Sprintf(`{"id":%q,"result_bytes":%d}`, sess.id, len(result))),
			result, "")
		s.cfg.Logf("flserve: session %s done", sess.id)
	case errors.Is(err, context.Canceled):
		s.metrics.sessionsCancelled.Add(1)
		sess.finish(StateCancelled, eventCancelled,
			[]byte(fmt.Sprintf(`{"id":%q}`, sess.id)), nil, err.Error())
		s.cfg.Logf("flserve: session %s cancelled", sess.id)
	default:
		s.metrics.sessionsFailed.Add(1)
		msg, _ := json.Marshal(err.Error())
		sess.finish(StateFailed, eventError,
			[]byte(fmt.Sprintf(`{"id":%q,"error":%s}`, sess.id, msg)), nil, err.Error())
		s.cfg.Logf("flserve: session %s failed: %v", sess.id, err)
	}
}

// runConfig compiles the request's execution settings, the same for both
// session kinds. The caller attaches the event stream: a scenario session
// through Events, a run session through the facade's WithObserver.
func (sess *serveSession) runConfig() experiment.RunConfig {
	var cfg experiment.RunConfig
	if sess.req.Backend == "cluster" {
		cfg.Backend = experiment.BackendCluster
	}
	if sess.req.RoundTimeout != "" {
		d, _ := time.ParseDuration(sess.req.RoundTimeout) // validated at admission
		cfg.Cluster.RoundTimeout = d
	}
	if cp := sess.req.Checkpoint; cp != nil {
		cfg.Checkpoint = experiment.CheckpointConfig{
			Path:     cp.Path,
			Resume:   cp.Resume,
			Sync:     cp.Sync,
			Interval: cp.Interval,
		}
	}
	return cfg
}

func (s *Server) runScenarioSession(sess *serveSession) ([]byte, error) {
	var sc scenario.Scenario
	if sess.req.Scenario != "" {
		var err error
		sc, err = scenario.ByName(sess.req.Scenario)
		if err != nil {
			return nil, err
		}
	} else {
		sc = *sess.req.Spec
	}
	cfg := sess.runConfig()
	cfg.Events = sess.observer(s.metrics)
	trace, err := unbiasedfl.RunScenarioWith(sess.ctx, sc, cfg)
	if err != nil {
		return nil, err
	}
	return trace.Canonical()
}

// runSchemeSession drives a setup+scheme training run through the public
// Session facade — the same path library callers take, as scenario sessions
// take RunScenarioWith — so the daemon exercises the facade's ID/Close seam
// rather than bypassing it.
func (s *Server) runSchemeSession(sess *serveSession) ([]byte, error) {
	run := sess.req.Run
	scheme := run.Scheme
	if scheme == "" {
		scheme = "proposed"
	}
	opts := []unbiasedfl.Option{
		unbiasedfl.WithObserver(sess.observer(s.metrics)),
		unbiasedfl.WithRunConfig(sess.runConfig()),
	}
	if run.Clients > 0 {
		opts = append(opts, unbiasedfl.WithClients(run.Clients))
	}
	if run.Samples > 0 {
		opts = append(opts, unbiasedfl.WithTotalSamples(run.Samples))
	}
	if run.Rounds > 0 {
		opts = append(opts, unbiasedfl.WithRounds(run.Rounds))
	}
	if run.LocalSteps > 0 {
		opts = append(opts, unbiasedfl.WithLocalSteps(run.LocalSteps))
	}
	if run.BatchSize > 0 {
		opts = append(opts, unbiasedfl.WithBatchSize(run.BatchSize))
	}
	if run.EvalEvery > 0 {
		opts = append(opts, unbiasedfl.WithEvalEvery(run.EvalEvery))
	}
	if run.Runs > 0 {
		opts = append(opts, unbiasedfl.WithRuns(run.Runs))
	}
	if run.Seed != 0 {
		opts = append(opts, unbiasedfl.WithSeed(run.Seed))
	}
	fs, err := unbiasedfl.NewSession(sess.ctx, unbiasedfl.SetupID(run.Setup), opts...)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	sr, err := fs.RunScheme(sess.ctx, scheme)
	if err != nil {
		return nil, err
	}
	summary := struct {
		Session            string  `json:"session"`
		Scheme             string  `json:"scheme"`
		FinalLoss          float64 `json:"final_loss"`
		FinalAccuracy      float64 `json:"final_accuracy"`
		TotalClientUtility float64 `json:"total_client_utility"`
		NegativePayments   int     `json:"negative_payments"`
		Spent              float64 `json:"spent"`
		ServerObj          float64 `json:"server_obj"`
	}{
		Session:            fs.ID(),
		Scheme:             sr.Scheme,
		FinalLoss:          sr.FinalLoss,
		FinalAccuracy:      sr.FinalAccuracy,
		TotalClientUtility: sr.TotalClientUtility,
		NegativePayments:   sr.NegativePayments,
		Spent:              sr.Outcome.Spent,
		ServerObj:          sr.Outcome.ServerObj,
	}
	return json.Marshal(summary)
}

func (s *Server) handleListSessions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Sessions []SessionStatus `json:"sessions"`
	}{s.registry.list()})
}

func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) *serveSession {
	sess := s.registry.get(r.PathValue("id"))
	if sess == nil {
		cli.WriteHTTPError(w, http.StatusNotFound, "unknown_session",
			fmt.Sprintf("no session %q", r.PathValue("id")))
	}
	return sess
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	if sess := s.lookupSession(w, r); sess != nil {
		writeJSON(w, http.StatusOK, sess.status())
	}
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	if s.registry.cancelQueued(sess) {
		s.metrics.sessionsCancelled.Add(1)
	}
	// Stops a running session; releases a cancelled queued one's context; a
	// no-op on one already terminal.
	sess.cancel()
	writeJSON(w, http.StatusOK, sess.status())
}

func (s *Server) handleSessionResult(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	state, result, errMsg := sess.state, sess.result, sess.errMsg
	sess.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(result)
		// Scenario results are the canonical trace, which already ends in a
		// newline; scheme-run summaries need one for clean curl output.
		if len(result) > 0 && result[len(result)-1] != '\n' {
			_, _ = w.Write([]byte("\n"))
		}
	case StateFailed:
		cli.WriteHTTPError(w, http.StatusConflict, "session_failed", errMsg)
	case StateCancelled:
		cli.WriteHTTPError(w, http.StatusConflict, "session_cancelled", errMsg)
	default:
		cli.WriteHTTPError(w, http.StatusConflict, "not_finished",
			fmt.Sprintf("session is %s", state))
	}
}

// handleSessionEvents streams the session's event log as Server-Sent
// Events: a full replay from event 1, then live follow until the session
// reaches a terminal state or the client disconnects. The subscriber is
// the request goroutine itself — no per-subscriber goroutine exists, so an
// abandoned stream cannot leak one (the leak test pins this).
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		cli.WriteHTTPError(w, http.StatusInternalServerError, "no_stream",
			"response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	s.metrics.sseSubscribers.Add(1)
	defer s.metrics.sseSubscribers.Add(-1)
	notify, unsubscribe := sess.subscribe()
	defer unsubscribe()

	cursor := 0
	for {
		evs, next, done := sess.eventsSince(cursor)
		cursor = next
		for _, ev := range evs {
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.seq, ev.typ, ev.data); err != nil {
				return
			}
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			// Draining: the session will publish its terminal (cancelled)
			// event; loop once more to deliver it, then the done flag ends
			// the stream.
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{"draining"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

// handleReadyz is the readiness probe, distinct from /healthz liveness: it
// reports 200 only once Serve has the listener accepting traffic AND the
// pricing-scheme and scenario registries are populated — the two tables
// every serving request resolves through. Boot-wait loops (CI, orchestrator
// readiness gates) should poll this, not /healthz, which answers "ok" for a
// handler that is wired but not yet serving.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	status := func(code int, st string) {
		writeJSON(w, code, struct {
			Status string `json:"status"`
		}{st})
	}
	switch {
	case s.draining.Load():
		status(http.StatusServiceUnavailable, "draining")
	case !s.ready.Load():
		status(http.StatusServiceUnavailable, "starting")
	case len(game.SchemeNames()) == 0:
		status(http.StatusServiceUnavailable, "no pricing schemes registered")
	case len(scenario.Names()) == 0:
		status(http.StatusServiceUnavailable, "no scenarios registered")
	default:
		status(http.StatusOK, "ready")
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := s.metrics
	m.quoteLatency.writeProm(w, "flserve_quote_latency_seconds")

	counter := func(name string, v uint64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	gauge := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v)
	}
	counter("flserve_quote_requests_total", m.quoteRequests.Load())
	counter("flserve_quote_errors_total", m.quoteErrors.Load())
	counter("flserve_solve_requests_total", m.solveRequests.Load())
	counter("flserve_batch_requests_total", m.batchRequests.Load())
	counter("flserve_batch_quotes_total", m.batchQuotes.Load())

	cs := s.cache.Snapshot()
	counter("flserve_cache_hits_total", cs.Hits)
	counter("flserve_cache_misses_total", cs.Misses)
	counter("flserve_cache_evictions_total", cs.Evictions)
	gauge("flserve_cache_entries", int64(cs.Entries))
	fmt.Fprintf(w, "# TYPE flserve_cache_hit_rate gauge\nflserve_cache_hit_rate %s\n",
		formatFloat(cs.HitRate()))

	counter("flserve_sessions_started_total", m.sessionsStarted.Load())
	counter("flserve_sessions_completed_total", m.sessionsCompleted.Load())
	counter("flserve_sessions_failed_total", m.sessionsFailed.Load())
	counter("flserve_sessions_cancelled_total", m.sessionsCancelled.Load())
	counter("flserve_sessions_rejected_total", m.sessionsRejected.Load())
	counter("flserve_rounds_committed_total", m.roundsCommitted.Load())

	active, queued := s.registry.gauges()
	gauge("flserve_sessions_active", int64(active))
	gauge("flserve_sessions_queued", int64(queued))
	gauge("flserve_sse_subscribers", m.sseSubscribers.Load())
}

// ensure the facade's Observer and the experiment Observer stay one type;
// the session adapter relies on it.
var _ unbiasedfl.Observer = experiment.ObserverFunc(nil)
