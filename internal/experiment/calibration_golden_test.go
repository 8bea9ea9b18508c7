package experiment

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"unbiasedfl/internal/testutil"
)

// calibrationDigests builds Setups 1–3 at DefaultOptions and writes one line
// per setup holding the bits of every G_n, of L, μ and α.
func calibrationDigests(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, id := range []SetupID{Setup1, Setup2, Setup3} {
		env, err := BuildSetup(context.Background(), id, DefaultOptions())
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		cal := env.Cal
		fmt.Fprintf(&sb, "%v L=%016x mu=%016x alpha=%016x G=", id,
			math.Float64bits(cal.L), math.Float64bits(cal.Mu), math.Float64bits(cal.Alpha))
		for n, g := range cal.G {
			if n > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%016x", math.Float64bits(g))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestCalibrationMatchesGolden pins every bit of the calibration the three
// setups build at default options: the G_n estimates, which come from the
// gradient norms of the calibration run, and the L, μ and α derived beside
// them.
func TestCalibrationMatchesGolden(t *testing.T) {
	testutil.Golden(t, "calibration_digests.golden", []byte(calibrationDigests(t)), *testutil.Update)
}
