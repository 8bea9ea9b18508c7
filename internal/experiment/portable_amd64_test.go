package experiment

import (
	"testing"

	"unbiasedfl/internal/tensor"
)

// TestCalibrationPortableTiersMatchGolden rebuilds the calibration digest
// with the vector kernels declined (tensor.HasAVX2 false), as a host without
// AVX2 computes it: the committed digest must come out bit for bit.
func TestCalibrationPortableTiersMatchGolden(t *testing.T) {
	prev := tensor.HasAVX2
	tensor.HasAVX2 = false
	defer func() { tensor.HasAVX2 = prev }()
	TestCalibrationMatchesGolden(t)
}

// TestFleetSetupPortableTiersMatchGolden rebuilds the fleet set-up digest
// with the vector kernels declined, as a host without AVX2 builds it.
func TestFleetSetupPortableTiersMatchGolden(t *testing.T) {
	prev := tensor.HasAVX2
	tensor.HasAVX2 = false
	defer func() { tensor.HasAVX2 = prev }()
	TestFleetSetupMatchesGolden(t)
}
