package data

import (
	"testing"

	"unbiasedfl/internal/tensor"
)

// TestGeneratedDataPortableTiersMatchGolden regenerates every digest case
// with the vector kernels declined (tensor.HasAVX2 false), as a host without
// AVX2 generates it: the committed digests must come out bit for bit.
func TestGeneratedDataPortableTiersMatchGolden(t *testing.T) {
	prev := tensor.HasAVX2
	tensor.HasAVX2 = false
	defer func() { tensor.HasAVX2 = prev }()
	TestGeneratedDataMatchesGolden(t)
}

// TestLabelPortableMatchesPerSampleScores is the labelling test with the
// vector kernels declined.
func TestLabelPortableMatchesPerSampleScores(t *testing.T) {
	prev := tensor.HasAVX2
	tensor.HasAVX2 = false
	defer func() { tensor.HasAVX2 = prev }()
	TestLabelMatchesPerSampleScores(t)
}
