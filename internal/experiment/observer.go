package experiment

import (
	"sync"

	"unbiasedfl/internal/game"
)

// Event is a typed progress notification streamed to an Observer while an
// experiment is in flight. Concrete events: SchemeSolved, RoundStart,
// RoundEnd, SchemeDone, SweepPointDone.
//
// Delivery contract: events are delivered one at a time, never concurrently,
// and in a deterministic order for a fixed environment — even when the
// underlying work (parallel sweep points, pooled local updates) executes
// concurrently. Observers run on the experiment's goroutines; keep them
// fast or hand off to a channel.
type Event interface{ isEvent() }

// SchemeSolved reports that a pricing scheme's Stage-I decision is solved,
// before any training under it begins.
type SchemeSolved struct {
	Scheme  string // registry name
	Outcome *game.Outcome
}

// RoundStart reports that a training round is about to run its local
// updates.
type RoundStart struct {
	Scheme string
	Run    int // repetition index in [0, Options.Runs)
	Round  int
}

// RoundEnd reports a finished training round. Loss and Accuracy are only
// meaningful when Evaluated is true (evaluation is throttled by
// Options.EvalEvery).
type RoundEnd struct {
	Scheme       string
	Run          int
	Round        int
	Participants int
	Evaluated    bool
	Loss         float64
	Accuracy     float64
}

// SchemeDone reports a scheme's fully-averaged run, as it completes inside
// Compare or RunScheme.
type SchemeDone struct {
	Scheme string
	Run    *SchemeRun
}

// SweepPointDone reports one finished sweep point. Points are delivered in
// ascending Index order regardless of which parallel worker finished first.
type SweepPointDone struct {
	Kind  SweepKind
	Index int
	Value float64
	Point SweepPoint
}

func (SchemeSolved) isEvent()   {}
func (RoundStart) isEvent()     {}
func (RoundEnd) isEvent()       {}
func (SchemeDone) isEvent()     {}
func (SweepPointDone) isEvent() {}

// Observer receives experiment events. Implementations must tolerate being
// called from whichever goroutine drives the experiment (but never from two
// at once — see Event's delivery contract).
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e Event) { f(e) }

// emit delivers e to obs when obs is non-nil.
func emit(obs Observer, e Event) {
	if obs != nil {
		obs.OnEvent(e)
	}
}

// sweepSequencer re-orders SweepPointDone events from concurrent workers
// into ascending index order, so observers see the same deterministic
// stream a sequential sweep would produce. Workers call done() as points
// complete; the sequencer buffers out-of-order arrivals and flushes the
// contiguous prefix.
type sweepSequencer struct {
	mu      sync.Mutex
	obs     Observer
	next    int
	pending map[int]Event
}

func newSweepSequencer(obs Observer) *sweepSequencer {
	if obs == nil {
		return nil
	}
	return &sweepSequencer{obs: obs, pending: make(map[int]Event)}
}

func (s *sweepSequencer) done(index int, e Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending[index] = e
	for {
		ev, ok := s.pending[s.next]
		if !ok {
			return
		}
		delete(s.pending, s.next)
		s.next++
		// Deliver under the lock: observers are promised serial delivery.
		s.obs.OnEvent(ev)
	}
}
