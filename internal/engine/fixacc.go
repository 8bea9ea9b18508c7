package engine

import "unbiasedfl/internal/fixpoint"

// FixAcc is the engine's canonical aggregation accumulator: the 128-bit
// signed fixed-point vector sum of internal/fixpoint, which makes Lemma 1's
// weighted fold independent of summation order and grouping — the property
// that keeps hierarchical group partials bit-identical to the flat fold.
type FixAcc = fixpoint.Acc

// NewFixAcc returns a zeroed accumulator for n parameters.
func NewFixAcc(n int) *FixAcc { return fixpoint.New(n) }
