package tensor

import "testing"

// declineVector runs the rest of tb with HasAVX2 false, so that every
// dispatching function takes its portable tier, and restores it at cleanup.
func declineVector(tb testing.TB) {
	prev := HasAVX2
	HasAVX2 = false
	tb.Cleanup(func() { HasAVX2 = prev })
}
