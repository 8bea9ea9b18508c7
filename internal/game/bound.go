package game

import (
	"errors"
	"fmt"
	"math"
)

// VarianceTerm returns Σ_n (1−q_n) a_n² G_n² / q_n, the participation-induced
// variance sum from Lemma 2 and Theorem 1.
func (p *Params) VarianceTerm(q []float64) (float64, error) {
	if len(q) != p.N() {
		return 0, errors.New("game: q length mismatch")
	}
	var s float64
	for n, qn := range q {
		if qn <= 0 {
			return 0, fmt.Errorf("game: q[%d] must be positive for a finite bound", n)
		}
		if qn > 1 {
			return 0, fmt.Errorf("game: q[%d] = %v exceeds 1", n, qn)
		}
		s += (1 - qn) * p.DataQuality(n) / qn
	}
	return s, nil
}

// Bound evaluates the Theorem-1 optimality-gap bound
// (1/R)(α Σ (1−q_n) a_n²G_n²/q_n + β) for a participation vector q.
func (p *Params) Bound(q []float64) (float64, error) {
	v, err := p.VarianceTerm(q)
	if err != nil {
		return 0, err
	}
	return (p.Alpha*v + p.Beta) / p.R, nil
}

// ServerObjective is the part of the bound the server can influence:
// g(q) = (α/R) Σ (1−q_n) a_n²G_n²/q_n (Problem P1”, constants dropped).
func (p *Params) ServerObjective(q []float64) (float64, error) {
	v, err := p.VarianceTerm(q)
	if err != nil {
		return 0, err
	}
	return p.Alpha * v / p.R, nil
}

// RoundsToGap inverts the bound: the number of rounds needed to push the
// optimality gap below eps at participation q. Returns +Inf when eps <= 0.
func (p *Params) RoundsToGap(q []float64, eps float64) (float64, error) {
	if eps <= 0 {
		return math.Inf(1), nil
	}
	v, err := p.VarianceTerm(q)
	if err != nil {
		return 0, err
	}
	return (p.Alpha*v + p.Beta) / eps, nil
}
