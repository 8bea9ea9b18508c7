// Package serve is the equilibrium-as-a-service layer: a persistent,
// multi-tenant HTTP/JSON daemon (cmd/flserve) over the library's pricing
// engine and federation facade.
//
// Three surfaces share one Server:
//
//   - Quotes: POST /v1/quote prices an arbitrary CPL game under any
//     registered pricing scheme, POST /v1/quotes prices a batch of games
//     under one scheme, and POST /v1/solve returns the raw Stackelberg
//     equilibrium. All three are backed by the sharded game.Cache, so
//     repeated questions are answered from memory at tens of thousands
//     of quotes per second on one core (the quote-hot workload of
//     benchmark/ measures it); the solver runs only on first sight of a
//     game. A body in the shape json.Marshal writes is parsed in one
//     pass and any other goes to a strict encoding/json decode (codec.go
//     states the shape), so both accept, reject and fill alike. Quote
//     replies are rendered byte-identical to json.Marshal without
//     reflection.
//
//   - Sessions: POST /v1/sessions starts a federation run — a library or
//     custom scenario through the facade's RunScenarioWith, or a setup +
//     scheme training run through the Session facade — under an
//     admission-control semaphore (MaxSessions running, MaxQueued waiting,
//     429 beyond that). GET /v1/sessions/{id}/events streams the run's
//     deterministic typed Observer events as Server-Sent Events: every
//     subscriber replays the full event log from the start and then
//     follows live, so the stream's order is identical to a direct
//     Observer run's no matter when the client attaches. DELETE cancels
//     through the run's context; GET .../result returns the canonical
//     Trace (byte-identical to a facade run of the same scenario) or the
//     scheme-run summary.
//
//   - Operability: GET /metrics exports Prometheus-style text (quote
//     latency histogram — each POST /v1/quote from handler entry until
//     its reply is written — cache hit/miss/eviction counters, session
//     gauges, rounds committed, SSE subscriber count), GET /healthz flips
//     to 503 while draining, and Serve drains gracefully when its context
//     is cancelled (SIGTERM in cmd/flserve): new work is refused,
//     in-flight quotes finish, running sessions are cancelled through
//     their contexts, and every SSE stream terminates cleanly.
//
// Every error response uses the shared typed envelope from internal/cli
// (ErrorEnvelope), so clients can switch on stable codes.
package serve
