package stats

import (
	"testing"

	"unbiasedfl/internal/tensor"
)

// TestNormFloat64sPortableMatchesNormFloat64 is the bulk-sampler test with
// the vector transform declined (tensor.HasAVX2 false), as a host without
// AVX2 runs it.
func TestNormFloat64sPortableMatchesNormFloat64(t *testing.T) {
	prev := tensor.HasAVX2
	tensor.HasAVX2 = false
	defer func() { tensor.HasAVX2 = prev }()
	TestNormFloat64sMatchesNormFloat64(t)
}

// TestDistributionsPortableMatchScalarLoops runs the Exponential and
// LogNormal bulk-draw tests with the vector kernels declined.
func TestDistributionsPortableMatchScalarLoops(t *testing.T) {
	prev := tensor.HasAVX2
	tensor.HasAVX2 = false
	defer func() { tensor.HasAVX2 = prev }()
	TestExponentialMatchesScalarLoop(t)
	TestLogNormalMatchesScalarLoop(t)
}
