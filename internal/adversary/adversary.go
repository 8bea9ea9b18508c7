// Package adversary models strategic and malicious client behaviours — the
// attack surface of the paper's mechanism. The pricing game of Section III
// assumes clients report their true marginal costs, follow the priced
// participation probabilities q, and send honest local updates; this package
// provides the three canonical violations, each compiled onto the seam of
// the pipeline stage it attacks:
//
//   - Misreport (Stage-I): a client inflates or deflates the cost c_n it
//     reports, so the server prices — and budgets — a market that does not
//     exist. Compiled via ReportedParams into the game the pricing scheme
//     solves, while the true Params keep scoring utilities.
//   - Deviation (Stage-II): a client participates with Factor·q_n instead of
//     the q_n its price induced. The scenario layer writes the factor into
//     engine.FaultSchedule.QFactor, where the sampler realizes it without
//     disturbing any other client's coin stream.
//   - Poison (training): a client scales (e.g. sign-flips) the model delta
//     it returns from FromRound onward. Compiled via PoisonTable into the
//     data table engine.Spec.Poison, which the engine validates and stamps
//     into every task as its factor, so the attack is identical on every
//     execution backend — an external group node in another process
//     included, which receives the factors in its batch.
//
// The scenario layer composes these from FaultMisreport / FaultDeviate /
// FaultPoison schedule entries and records the resulting equilibrium and
// accuracy degradation in the trace's adversary section.
package adversary

import (
	"fmt"
	"math"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/game"
)

// Misreport is a Stage-I cost misreport: the client reports Factor× its true
// marginal cost c_n to the pricing mechanism.
type Misreport struct {
	Client int
	Factor float64 // > 0 and finite; 1 is truthful
}

// Deviation is a Stage-II strategic deviation: the client participates with
// probability Factor·q_n instead of the priced q_n.
type Deviation struct {
	Client int
	Factor float64 // >= 0 and finite; 1 is obedient, 0 is full defection
}

// Poison is a gradient-poisoning behaviour: from round FromRound onward the
// client's model delta is scaled by Factor before aggregation. Negative
// factors flip the update's direction; magnitudes above one amplify it; zero
// suppresses it entirely.
type Poison struct {
	Client    int
	Factor    float64 // finite; 1 is honest
	FromRound int
}

// ReportedParams returns the game the server actually sees: a clone of truth
// whose cost entries carry the misreports. truth is never mutated — it keeps
// scoring true utilities and clamping q. With no misreports it returns truth
// itself, so the honest path costs nothing.
func ReportedParams(truth *game.Params, reps []Misreport) (*game.Params, error) {
	if len(reps) == 0 {
		return truth, nil
	}
	p := truth.Clone()
	for _, m := range reps {
		if m.Client < 0 || m.Client >= p.N() {
			return nil, fmt.Errorf("adversary: misreporting client %d out of range [0,%d)", m.Client, p.N())
		}
		if !(m.Factor > 0) || math.IsInf(m.Factor, 0) {
			return nil, fmt.Errorf("adversary: client %d misreport factor %v must be positive and finite", m.Client, m.Factor)
		}
		p.C[m.Client] *= m.Factor
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("adversary: misreported game invalid: %w", err)
	}
	return p, nil
}

// PoisonTable compiles poisons into the engine's poison table (nil when
// there are no poisoners). engine.Spec.Validate checks the table before a
// run: clients in range and listed once, factors finite, rounds
// non-negative.
func PoisonTable(poisons []Poison) []engine.Poison {
	if len(poisons) == 0 {
		return nil
	}
	table := make([]engine.Poison, len(poisons))
	for i, p := range poisons {
		table[i] = engine.Poison(p)
	}
	return table
}
