package scenario

import (
	"testing"

	"unbiasedfl/internal/tensor"
)

// TestPortableTiersReplayGoldens replays the golden, backend-equivalence and
// resume suites with the vector kernels declined: tensor.HasAVX2 is false for
// its duration, so the SGD kernels, the softmax and the fixed-point fold all
// run their portable Go tiers — what a host without AVX2 computes. The
// committed traces must come out byte for byte.
func TestPortableTiersReplayGoldens(t *testing.T) {
	prev := tensor.HasAVX2
	tensor.HasAVX2 = false
	defer func() { tensor.HasAVX2 = prev }()
	for _, suite := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"GoldenTraces", TestGoldenTraces},
		{"BackendEquivalenceMatrix", TestBackendEquivalenceMatrix},
		{"ResumeEveryScenarioBothBackends", TestResumeEveryScenarioBothBackends},
		{"ResumeSweepMatchesGolden", TestResumeSweepMatchesGolden},
		{"CheckpointedRunMatchesPlainRun", TestCheckpointedRunMatchesPlainRun},
	} {
		t.Run(suite.name, suite.run)
	}
}
