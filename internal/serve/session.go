package serve

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/scenario"
)

// Session lifecycle states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

func terminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// SessionRequest creates one federation session. Exactly one of Scenario,
// Spec, or Run selects the workload.
type SessionRequest struct {
	// Scenario names a library scenario ("baseline", "straggler-heavy", ...).
	Scenario string `json:"scenario,omitempty"`
	// Spec is a full custom scenario (Go field names, as in the facade's
	// Scenario type).
	Spec *scenario.Scenario `json:"spec,omitempty"`
	// Run is a setup + scheme training run through the Session facade.
	Run *SchemeRunRequest `json:"run,omitempty"`

	// Backend selects the execution substrate: "local" (default) or
	// "cluster" (one TCP socket node per client on loopback).
	Backend string `json:"backend,omitempty"`
	// RoundTimeout is a Go duration string; positive values put cluster
	// rounds under the self-healing deadline.
	RoundTimeout string `json:"round_timeout,omitempty"`
	// Checkpoint makes the run durable (scenario sessions only); paths are
	// local to the daemon's filesystem.
	Checkpoint *CheckpointRequest `json:"checkpoint,omitempty"`
}

// SchemeRunRequest is the scheme-run session workload: price one of the
// paper's setups under a registered scheme and train under the induced
// participation, exactly as Session.RunScheme does.
type SchemeRunRequest struct {
	Setup      int    `json:"setup"`
	Scheme     string `json:"scheme,omitempty"`
	Clients    int    `json:"clients,omitempty"`
	Samples    int    `json:"samples,omitempty"`
	Rounds     int    `json:"rounds,omitempty"`
	LocalSteps int    `json:"local_steps,omitempty"`
	BatchSize  int    `json:"batch_size,omitempty"`
	EvalEvery  int    `json:"eval_every,omitempty"`
	Runs       int    `json:"runs,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
}

// CheckpointRequest mirrors the facade's CheckpointConfig on the wire.
type CheckpointRequest struct {
	Path     string `json:"path"`
	Resume   bool   `json:"resume,omitempty"`
	Sync     bool   `json:"sync,omitempty"`
	Interval int    `json:"interval,omitempty"`
}

// SessionStatus is the wire status of one session.
type SessionStatus struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"` // "scenario" or "run"
	Label    string `json:"label"`
	State    string `json:"state"`
	Backend  string `json:"backend"`
	Rounds   int    `json:"rounds"`
	Events   int    `json:"events"`
	Error    string `json:"error,omitempty"`
	Location string `json:"location,omitempty"`
}

// sessionEvent is one entry of a session's append-only event log. Seq is
// 1-based and doubles as the SSE id field.
type sessionEvent struct {
	seq  int
	typ  string
	data []byte
}

// serveSession is one admitted federation run: an append-only event log
// that every SSE subscriber replays from the start, the run's cancellable
// context, and its final artifact (canonical trace or scheme-run summary).
type serveSession struct {
	id    string
	kind  string
	label string
	req   SessionRequest

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	state  string
	events []sessionEvent
	subs   map[chan struct{}]struct{}
	rounds int
	errMsg string
	result []byte // canonical trace (scenario) or summary JSON (run)
}

// publish appends an event and wakes every subscriber. Events are appended
// from the run's orchestration goroutine (observer contract: serial) and
// from the registry's lifecycle transitions; the log is append-only, so
// subscribers can read released slices without copying.
func (s *serveSession) publish(typ string, data []byte) {
	s.mu.Lock()
	s.events = append(s.events, sessionEvent{seq: len(s.events) + 1, typ: typ, data: data})
	s.wakeLocked()
	s.mu.Unlock()
}

// finish moves the session to a terminal state, storing the artifact or
// error, appending the terminal event, and waking subscribers one last
// time.
func (s *serveSession) finish(state, typ string, data []byte, result []byte, errMsg string) {
	s.mu.Lock()
	s.finishLocked(state, typ, data, result, errMsg)
	s.mu.Unlock()
}

// finishLocked is finish for callers that hold s.mu.
func (s *serveSession) finishLocked(state, typ string, data []byte, result []byte, errMsg string) {
	s.state = state
	s.result = result
	s.errMsg = errMsg
	s.events = append(s.events, sessionEvent{seq: len(s.events) + 1, typ: typ, data: data})
	s.wakeLocked()
}

func (s *serveSession) wakeLocked() {
	for ch := range s.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// subscribe registers an SSE subscriber wake channel; the returned cancel
// must run when the subscriber leaves (it is what makes abandoned streams
// leak-free — the subscriber's only resource is this map entry).
func (s *serveSession) subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	s.mu.Lock()
	if s.subs == nil {
		s.subs = make(map[chan struct{}]struct{})
	}
	s.subs[ch] = struct{}{}
	s.mu.Unlock()
	return ch, func() {
		s.mu.Lock()
		delete(s.subs, ch)
		s.mu.Unlock()
	}
}

// eventsSince returns the events after index from (which the caller may
// write without copying — the log is append-only and payloads immutable),
// the new cursor, and whether the session has terminated.
func (s *serveSession) eventsSince(from int) ([]sessionEvent, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs := s.events[from:]
	return evs, len(s.events), terminalState(s.state)
}

func (s *serveSession) status() SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStatus{
		ID:      s.id,
		Kind:    s.kind,
		Label:   s.label,
		State:   s.state,
		Backend: s.req.Backend,
		Rounds:  s.rounds,
		Events:  len(s.events),
		Error:   s.errMsg,
	}
}

// observer adapts the typed experiment event stream onto the session's
// event log, counting committed rounds as they stream by.
func (s *serveSession) observer(m *metrics) experiment.Observer {
	return experiment.ObserverFunc(func(e experiment.Event) {
		typ, data, err := EncodeEvent(e)
		if err != nil {
			return // unknown future event type: skip rather than poison the stream
		}
		if typ == eventRoundEnd {
			m.roundsCommitted.Add(1)
			s.mu.Lock()
			s.rounds++
			s.mu.Unlock()
		}
		s.publish(typ, data)
	})
}

// sessionRegistry owns admission control and the session table. Admission
// is a counting semaphore under the registry lock: at most maxActive
// sessions run concurrently, at most maxQueued wait in FIFO order, and
// anything beyond that is rejected (HTTP 429). Finished sessions stay
// resident (for result/event retrieval) up to maxFinished, evicted oldest
// first.
type sessionRegistry struct {
	mu          sync.Mutex
	maxActive   int
	maxQueued   int
	maxFinished int
	active      int
	queue       []*serveSession
	sessions    map[string]*serveSession
	order       []string
	nextID      int

	// launch is set by the server; it is called synchronously (so the
	// server can register the run with its WaitGroup before spawning) and
	// must itself hand the work to a new goroutine.
	launch func(*serveSession)
}

func newSessionRegistry(maxActive, maxQueued, maxFinished int) *sessionRegistry {
	if maxActive <= 0 {
		maxActive = 2
	}
	if maxQueued < 0 {
		maxQueued = 0
	}
	if maxFinished <= 0 {
		maxFinished = 64
	}
	return &sessionRegistry{
		maxActive:   maxActive,
		maxQueued:   maxQueued,
		maxFinished: maxFinished,
		sessions:    make(map[string]*serveSession),
	}
}

// errSessionsFull reports an admission rejection.
var errSessionsFull = fmt.Errorf("serve: session slots and queue are full")

// admit registers the session and either starts it immediately or queues
// it; with both the running slots and the queue full it rejects without
// registering.
func (r *sessionRegistry) admit(s *serveSession) error {
	r.mu.Lock()
	switch {
	case r.active < r.maxActive:
		s.state = StateRunning
		r.active++
	case len(r.queue) < r.maxQueued:
		s.state = StateQueued
		r.queue = append(r.queue, s)
	default:
		r.mu.Unlock()
		return errSessionsFull
	}
	r.nextID++
	s.id = fmt.Sprintf("s-%d", r.nextID)
	r.sessions[s.id] = s
	r.order = append(r.order, s.id)
	start := s.state == StateRunning
	r.mu.Unlock()

	s.publish(eventQueued, []byte(fmt.Sprintf(`{"id":%q,"kind":%q}`, s.id, s.kind)))
	if start {
		r.launch(s)
	}
	return nil
}

// release returns a finished session's slot and starts the next queued
// session, if any. It also trims the finished backlog.
func (r *sessionRegistry) release() {
	r.mu.Lock()
	r.active--
	var next *serveSession
	// Every queued entry is still waiting: cancelQueued removes the ones it
	// cancels under this lock.
	if len(r.queue) > 0 {
		next = r.queue[0]
		r.queue = r.queue[1:]
		next.mu.Lock()
		next.state = StateRunning
		next.mu.Unlock()
		r.active++
	}
	r.trimFinishedLocked()
	r.mu.Unlock()
	if next != nil {
		r.launch(next)
	}
}

// trimFinishedLocked evicts the oldest terminal sessions beyond the
// retention bound. Callers hold r.mu.
func (r *sessionRegistry) trimFinishedLocked() {
	finished := 0
	for _, id := range r.order {
		if s := r.sessions[id]; s != nil {
			s.mu.Lock()
			if terminalState(s.state) {
				finished++
			}
			s.mu.Unlock()
		}
	}
	if finished <= r.maxFinished {
		return
	}
	keep := r.order[:0]
	for _, id := range r.order {
		s := r.sessions[id]
		if s == nil {
			continue
		}
		s.mu.Lock()
		evict := finished > r.maxFinished && terminalState(s.state)
		s.mu.Unlock()
		if evict {
			delete(r.sessions, id)
			finished--
			continue
		}
		keep = append(keep, id)
	}
	r.order = keep
}

// cancelQueued handles DELETE on a still-queued session: it flips it to
// cancelled and takes it out of the queue, so that it no longer counts
// against admission or the queued gauge. Returns false when the session was
// not in the queued state. The test, the transition and the removal are one
// critical section under the locks release takes, in release's order, to
// promote a queued session, so exactly one of the two wins: a session
// reported cancelled here is never launched. The caller cancels the
// session's context either way.
func (r *sessionRegistry) cancelQueued(s *serveSession) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateQueued {
		return false
	}
	r.queue = slices.DeleteFunc(r.queue, func(q *serveSession) bool { return q == s })
	s.finishLocked(StateCancelled, eventCancelled, []byte(`{"reason":"deleted while queued"}`), nil, "cancelled while queued")
	return true
}

func (r *sessionRegistry) get(id string) *serveSession {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sessions[id]
}

func (r *sessionRegistry) list() []SessionStatus {
	r.mu.Lock()
	ids := append([]string(nil), r.order...)
	byID := make(map[string]*serveSession, len(ids))
	for _, id := range ids {
		byID[id] = r.sessions[id]
	}
	r.mu.Unlock()
	out := make([]SessionStatus, 0, len(ids))
	for _, id := range ids {
		if s := byID[id]; s != nil {
			out = append(out, s.status())
		}
	}
	return out
}

// gauges reports the active/queued occupancy for /metrics.
func (r *sessionRegistry) gauges() (active, queued int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.active, len(r.queue)
}
