package model

import (
	"testing"

	"unbiasedfl/internal/tensor"
)

// declineVector runs the rest of tb with tensor.HasAVX2 false, so that every
// kernel the model calls takes its portable tier, and restores it at cleanup.
func declineVector(tb testing.TB) {
	prev := tensor.HasAVX2
	tensor.HasAVX2 = false
	tb.Cleanup(func() { tensor.HasAVX2 = prev })
}
