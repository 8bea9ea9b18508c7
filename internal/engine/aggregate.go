package engine

import (
	"errors"
	"fmt"

	"unbiasedfl/internal/fixpoint"
	"unbiasedfl/internal/tensor"
)

func checkUpdateShapes(global tensor.Vec, updates []ClientUpdate, weights, q []float64) error {
	if len(weights) != len(q) {
		return errors.New("engine: weights/q length mismatch")
	}
	for _, u := range updates {
		if u.Client < 0 || u.Client >= len(weights) {
			return fmt.Errorf("engine: update from unknown client %d", u.Client)
		}
		if len(u.Delta) != len(global) {
			return fmt.Errorf("engine: client %d delta length %d, want %d",
				u.Client, len(u.Delta), len(global))
		}
	}
	return nil
}

// UnbiasedAggregator implements Lemma 1:
//
//	w^{r+1} = w^r + Σ_{n∈S_r} (a_n / q_n) (w_n^{r+1} − w^r).
//
// The inverse-probability reweighting makes the aggregated model an unbiased
// estimator of the full-participation aggregate for arbitrary independent
// participation levels q. Clients with q_n = 0 can never appear in S_r, so
// the division is always well defined for actual participants.
//
// The sum runs through the canonical fixed-point accumulator (package
// internal/fixpoint), so the result is independent of summation order and grouping —
// the property that makes hierarchical group partials bit-identical to this
// flat fold.
type UnbiasedAggregator struct{}

// Aggregate implements Aggregator.
func (UnbiasedAggregator) Aggregate(global tensor.Vec, updates []ClientUpdate, weights, q []float64) error {
	if err := checkUpdateShapes(global, updates, weights, q); err != nil {
		return err
	}
	acc := fixpoint.New(len(global))
	for _, u := range updates {
		qn := q[u.Client]
		if qn <= 0 {
			return fmt.Errorf("engine: participant %d has non-positive q", u.Client)
		}
		if err := acc.AddScaled(weights[u.Client]/qn, u.Delta); err != nil {
			return err
		}
	}
	return acc.AddTo(global)
}

var _ Aggregator = UnbiasedAggregator{}
