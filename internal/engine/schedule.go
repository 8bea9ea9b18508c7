package engine

import "math"

// ExpDecay is the experimental schedule from Section VI: η_r = Eta0·Decay^r.
type ExpDecay struct {
	Eta0  float64
	Decay float64
}

// LR implements Schedule.
func (s ExpDecay) LR(round int) float64 {
	return s.Eta0 * math.Pow(s.Decay, float64(round))
}

// TheoremDecay is the analytical schedule from Theorem 1:
// η_r = 2 / (max{8L, μE} + μr).
type TheoremDecay struct {
	L, Mu float64
	E     int
}

// LR implements Schedule.
func (s TheoremDecay) LR(round int) float64 {
	return 2 / (math.Max(8*s.L, s.Mu*float64(s.E)) + float64(s.Mu*float64(round)))
}

var (
	_ Schedule = ExpDecay{}
	_ Schedule = TheoremDecay{}
)
