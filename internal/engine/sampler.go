package engine

import (
	"errors"
	"fmt"

	"unbiasedfl/internal/stats"
)

// FaultSchedule is the per-client compiled form of a scenario fault list:
// O(1) lookups in the sampler hot loop. Construct with NewFaultSchedule and
// fill per client.
type FaultSchedule struct {
	// DropRound[n] is the round client n leaves for good, or -1.
	DropRound []int
	// Availability[n] is the exogenous per-round reachability (1 = always).
	Availability []float64
	// Delay[n] is the straggler latency multiplier (1 = nominal).
	Delay []float64
	// QFactor[n] multiplies client n's actual willingness probability
	// (1 = honest): a strategic deviation from the priced participation
	// level. The server's belief — EffectiveQ, and with it the aggregation
	// weights — stays the priced q, which is exactly what makes deviation an
	// attack on the unbiasedness guarantee rather than a re-pricing. Nil
	// means every client is honest (schedules predating the field).
	QFactor []float64
}

// NewFaultSchedule returns a fault-free schedule for numClients clients.
func NewFaultSchedule(numClients int) FaultSchedule {
	sch := FaultSchedule{
		DropRound:    make([]int, numClients),
		Availability: make([]float64, numClients),
		Delay:        make([]float64, numClients),
		QFactor:      make([]float64, numClients),
	}
	for n := 0; n < numClients; n++ {
		sch.DropRound[n] = -1
		sch.Availability[n] = 1
		sch.Delay[n] = 1
		sch.QFactor[n] = 1
	}
	return sch
}

// qFactor returns client n's willingness multiplier (1 = honest).
func (s FaultSchedule) qFactor(n int) float64 {
	if s.QFactor == nil {
		return 1
	}
	return s.QFactor[n]
}

// Dropped reports whether client n has permanently left by round.
func (s FaultSchedule) Dropped(n, round int) bool {
	return s.DropRound[n] >= 0 && round >= s.DropRound[n]
}

// WillingProb returns the exact acceptance probability of client n's
// willingness coin when priced at qn — including any strategic deviation
// factor. It mirrors BernoulliSampler's draw rules, so it is the analytic truth
// the unbiasedness checker measures sampled aggregates against.
func (s FaultSchedule) WillingProb(n int, qn float64) float64 {
	eff := qn * s.qFactor(n)
	if qn <= 0 || qn >= 1 {
		// No coin exists at the clamps (Bernoulli is deterministic there), so
		// a deviator cannot randomize: it participates iff its effective
		// probability still saturates.
		if eff >= 1 {
			return 1
		}
		return 0
	}
	switch {
	case eff <= 0:
		return 0
	case eff >= 1:
		return 1
	}
	return eff
}

// ParticipationProb returns client n's true marginal probability of joining
// the given round when priced at qn: willingness × availability, zero once
// dropped. This is the p_n of Lemma 1's E[aggregate] = Σ_n p_n (a_n/q_n) Δ_n.
func (s FaultSchedule) ParticipationProb(n, round int, qn float64) float64 {
	if s.Dropped(n, round) {
		return 0
	}
	return s.WillingProb(n, qn) * s.Availability[n]
}

// BernoulliSampler implements the paper's randomized independent
// participation: client n joins each round independently with probability
// q_n, so Σ q_n can be anywhere in (0, N], unlike dependent schemes that
// force Σ q = 1. At q ≡ 1 it is full participation and draws no coin.
//
// Built by NewFaultSampler it also composes a scenario's exogenous faults: a
// client joins only if it is willing AND not yet dropped AND currently
// available. EffectiveQ still reports the priced q — the server's belief —
// because the server does not observe the fault process; this is exactly the
// regime in which the unbiasedness claim is being stress-tested rather than
// assumed.
type BernoulliSampler struct {
	q   []float64
	sch FaultSchedule
	// will carries the strategic willingness coins; avail carries the
	// exogenous availability coins, and is nil without a fault schedule.
	// Keeping them on separate streams — and drawing a willingness coin for
	// every client every round, dropped or not — makes the willingness
	// pattern identical across fault schedules: the difference between a
	// faulted trace and its fault-free twin is attributable to the faults
	// alone, never to stream displacement.
	will  *stats.RNG
	avail *stats.RNG
}

// NewBernoulliSampler validates q and builds the plain sampler over a copy
// of it, drawing its coins from rng.
func NewBernoulliSampler(q []float64, rng *stats.RNG) (*BernoulliSampler, error) {
	if len(q) == 0 {
		return nil, errors.New("engine: empty participation vector")
	}
	if rng == nil {
		return nil, errors.New("engine: nil rng")
	}
	if err := checkLevels(q); err != nil {
		return nil, err
	}
	return &BernoulliSampler{q: append([]float64(nil), q...), will: rng}, nil
}

// NewFaultSampler builds the fault-composed sampler over a copy of q. will
// and avail must be independent streams (e.g. successive Splits of a
// scenario root).
func NewFaultSampler(q []float64, sch FaultSchedule, will, avail *stats.RNG) *BernoulliSampler {
	return &BernoulliSampler{q: append([]float64(nil), q...), sch: sch, will: will, avail: avail}
}

// checkLevels refuses a participation level outside [0, 1], NaN included.
func checkLevels(q []float64) error {
	for n, qn := range q {
		if !(qn >= 0 && qn <= 1) {
			return fmt.Errorf("engine: q[%d] = %v outside [0,1]", n, qn)
		}
	}
	return nil
}

// Sample implements Sampler. Without a fault schedule it takes a loop of its
// own, with no per-client fault or deviation check: at fleet scale it samples
// 10^5 clients a round on the orchestration goroutine. Both loops draw the
// same willingness coins.
func (s *BernoulliSampler) Sample(round int) []int {
	var out []int
	if s.avail == nil {
		for n, qn := range s.q {
			if s.will.Bernoulli(qn) {
				out = append(out, n)
			}
		}
		return out
	}
	for n, qn := range s.q {
		willing := s.willing(n, qn)
		if s.sch.Dropped(n, round) {
			continue
		}
		if av := s.sch.Availability[n]; av < 1 && !s.avail.Bernoulli(av) {
			continue
		}
		if willing {
			out = append(out, n)
		}
	}
	return out
}

// willing draws client n's strategic participation coin. A deviating client
// (QFactor ≠ 1) shows up with probability QFactor·q_n instead of the priced
// q_n, but consumes exactly the coins its honest self would — one Float64
// draw iff q_n ∈ (0,1), none at the clamps, matching Bernoulli — so every
// other client sees an unchanged willingness stream whether or not anyone
// deviates. That is the same discipline that makes a faulted trace
// attributable to its faults alone (see the stream comment above); its
// acceptance probability is FaultSchedule.WillingProb exactly.
func (s *BernoulliSampler) willing(n int, qn float64) bool {
	f := s.sch.qFactor(n)
	if f == 1 {
		return s.will.Bernoulli(qn)
	}
	eff := qn * f
	if qn <= 0 || qn >= 1 {
		return eff >= 1
	}
	return s.will.Float64() < eff
}

// NumClients implements Sampler.
func (s *BernoulliSampler) NumClients() int { return len(s.q) }

// SetQ replaces the priced participation levels in place — the
// membership-epoch re-pricing seam. It validates q like NewBernoulliSampler
// and changes nothing on an error; the sampler keeps its own copy, so later
// mutation of the argument cannot skew the coin stream. The coin streams
// themselves are untouched: only the thresholds move.
func (s *BernoulliSampler) SetQ(q []float64) error {
	if len(q) != len(s.q) {
		return fmt.Errorf("engine: SetQ with %d levels for a %d-client fleet", len(q), len(s.q))
	}
	if err := checkLevels(q); err != nil {
		return err
	}
	copy(s.q, q)
	return nil
}

// EffectiveQ implements the LevelsSampler seam with the server's belief
// (the priced q), not the fault-adjusted truth.
func (s *BernoulliSampler) EffectiveQ() []float64 {
	return append([]float64(nil), s.q...)
}

// SamplerState implements StatefulSampler: the willingness stream's four
// xoshiro words, then, with a fault schedule, the availability stream's.
func (s *BernoulliSampler) SamplerState() []uint64 {
	w := s.will.State()
	if s.avail == nil {
		return w[:]
	}
	a := s.avail.State()
	return append(w[:], a[:]...)
}

// RestoreSamplerState implements StatefulSampler: it rewinds every stream
// or, on an error, none.
func (s *BernoulliSampler) RestoreSamplerState(state []uint64) error {
	want := 4
	if s.avail != nil {
		want = 8
	}
	if len(state) != want {
		return fmt.Errorf("engine: sampler state has %d words, want %d", len(state), want)
	}
	will, err := stats.RestoreRNG([4]uint64(state[:4]))
	if err != nil {
		return err
	}
	if s.avail == nil {
		s.will = will
		return nil
	}
	avail, err := stats.RestoreRNG([4]uint64(state[4:]))
	if err != nil {
		return err
	}
	s.will, s.avail = will, avail
	return nil
}

var (
	_ Sampler         = (*BernoulliSampler)(nil)
	_ LevelsSampler   = (*BernoulliSampler)(nil)
	_ StatefulSampler = (*BernoulliSampler)(nil)
)
