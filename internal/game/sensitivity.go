package game

import (
	"context"
	"errors"
	"fmt"
)

// Sensitivity quantifies how the equilibrium reacts to marginal parameter
// changes, by central finite differences on the exact KKT solution. It
// turns the paper's qualitative comparative statics (Proposition 1,
// Theorems 2–3, Corollary 1) into numbers an operator can read: "one more
// unit of budget buys this much participation / this much bound reduction".
type Sensitivity struct {
	// DQDBudget[n] = ∂q*_n/∂B: Proposition 1 says every entry is >= 0.
	DQDBudget []float64
	// DBoundDBudget = ∂g(q*)/∂B: the marginal value of budget (<= 0).
	DBoundDBudget float64
	// DQDV[n] = ∂q*_n/∂v_n (own-value effect): Theorem 2 predicts <= 0 for
	// interior clients.
	DQDV []float64
	// DPDV[n] = ∂P*_n/∂v_n (own-value effect on price): Theorem 3 predicts
	// <= 0 for interior clients.
	DPDV []float64
	// DQDC[n] = ∂q*_n/∂c_n (own-cost effect): Theorem 2 predicts <= 0.
	DQDC []float64
	// DPDC[n] = ∂P*_n/∂c_n (own-cost effect): Corollary 1 predicts >= 0 for
	// interior clients receiving payment (v_n < v_t) and <= 0 for interior
	// clients paying the server (v_n > v_t) — eq. 18's bracket flips sign
	// at the threshold.
	DPDC []float64
}

// SensitivityOptions tunes the finite-difference probe.
type SensitivityOptions struct {
	// RelStep is the relative perturbation size (default 1e-4).
	RelStep float64
}

// AnalyzeSensitivity computes the equilibrium's comparative statics. The
// 2 + 4N finite-difference probes are batch-solved through the equilibrium
// engine (SolveMany): per-worker scratch, and warm-started brackets that
// collapse most of each ±h probe's multiplier search, with results
// bit-identical to sequential SolveKKT calls.
func (p *Params) AnalyzeSensitivity(opts SensitivityOptions) (*Sensitivity, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	h := opts.RelStep
	if h <= 0 {
		h = 1e-4
	}
	n := p.N()
	out := &Sensitivity{
		DQDBudget: make([]float64, n),
		DQDV:      make([]float64, n),
		DPDV:      make([]float64, n),
		DQDC:      make([]float64, n),
		DPDC:      make([]float64, n),
	}

	// Budget pair.
	db := h * maxAbs(p.B, 1)
	bLo := p.Clone()
	bLo.B -= db
	bHi := p.Clone()
	bHi.B += db
	beqs, err := SolveMany(context.Background(), []*Params{bLo, bHi}, 0)
	if err != nil {
		var be *BatchError
		if errors.As(err, &be) {
			err = be.Err
		}
		return nil, fmt.Errorf("budget probe: %w", err)
	}
	for i := 0; i < n; i++ {
		out.DQDBudget[i] = (beqs[1].Q[i] - beqs[0].Q[i]) / (2 * db)
	}
	out.DBoundDBudget = (beqs[1].ServerObj - beqs[0].ServerObj) / (2 * db)

	// Per-client (value-lo, value-hi, cost-lo, cost-hi) quadruples, batched
	// in client chunks so the probe clones stay O(chunk·N) rather than
	// O(N²) at fleet scale.
	const chunkClients = 128
	for start := 0; start < n; start += chunkClients {
		end := start + chunkClients
		if end > n {
			end = n
		}
		probes := make([]*Params, 0, 4*(end-start))
		dvs := make([]float64, 0, end-start)
		dcs := make([]float64, 0, end-start)
		for i := start; i < end; i++ {
			dv := h * maxAbs(p.V[i], 1)
			lo := p.Clone()
			lo.V[i] -= dv
			if lo.V[i] < 0 {
				lo.V[i] = 0
				dv = p.V[i] // forward-ish difference at the boundary
				if dv == 0 {
					dv = h
					lo = p.Clone()
				}
			}
			hi := p.Clone()
			hi.V[i] += dv

			dc := h * maxAbs(p.C[i], 1)
			loC := p.Clone()
			loC.C[i] -= dc
			if loC.C[i] <= 0 {
				return nil, errors.New("game: cost too small for sensitivity probe")
			}
			hiC := p.Clone()
			hiC.C[i] += dc

			probes = append(probes, lo, hi, loC, hiC)
			dvs = append(dvs, dv)
			dcs = append(dcs, dc)
		}
		eqs, err := SolveMany(context.Background(), probes, 0)
		if err != nil {
			var be *BatchError
			if errors.As(err, &be) {
				i := start + be.Index/4
				kind := "value"
				if be.Index%4 >= 2 {
					kind = "cost"
				}
				return nil, fmt.Errorf("%s probe %d: %w", kind, i, be.Err)
			}
			return nil, err
		}
		for j, i := 0, start; i < end; j, i = j+1, i+1 {
			vLo, vHi, cLo, cHi := eqs[4*j], eqs[4*j+1], eqs[4*j+2], eqs[4*j+3]
			out.DQDV[i] = (vHi.Q[i] - vLo.Q[i]) / (2 * dvs[j])
			out.DPDV[i] = (vHi.P[i] - vLo.P[i]) / (2 * dvs[j])
			out.DQDC[i] = (cHi.Q[i] - cLo.Q[i]) / (2 * dcs[j])
			out.DPDC[i] = (cHi.P[i] - cLo.P[i]) / (2 * dcs[j])
		}
	}
	return out, nil
}

// CheckPredictedSigns verifies the theory's sign predictions for the
// clients that are interior at the base equilibrium, within tolerance tol
// (finite differences near kinks can produce tiny violations).
func (p *Params) CheckPredictedSigns(s *Sensitivity, tol float64) error {
	eq, err := p.SolveKKT()
	if err != nil {
		return err
	}
	for n := 0; n < p.N(); n++ {
		if s.DQDBudget[n] < -tol {
			return fmt.Errorf("game: dq[%d]/dB = %v < 0 violates Proposition 1", n, s.DQDBudget[n])
		}
		if !p.Interior(eq, n, 1e-6) {
			continue
		}
		if s.DQDV[n] > tol {
			return fmt.Errorf("game: dq[%d]/dv = %v > 0 violates Theorem 2", n, s.DQDV[n])
		}
		if s.DQDC[n] > tol {
			return fmt.Errorf("game: dq[%d]/dc = %v > 0 violates Theorem 2", n, s.DQDC[n])
		}
		if s.DPDV[n] > tol {
			return fmt.Errorf("game: dP[%d]/dv = %v > 0 violates Theorem 3", n, s.DPDV[n])
		}
		// Corollary 1: the own-cost price effect carries the sign of the
		// payment direction.
		vt := eq.Vt()
		switch {
		case p.V[n] < vt && s.DPDC[n] < -tol:
			return fmt.Errorf("game: dP[%d]/dc = %v < 0 violates Corollary 1 (paid client)",
				n, s.DPDC[n])
		case p.V[n] > vt && s.DPDC[n] > tol:
			return fmt.Errorf("game: dP[%d]/dc = %v > 0 violates Corollary 1 (paying client)",
				n, s.DPDC[n])
		}
	}
	if s.DBoundDBudget > tol {
		return fmt.Errorf("game: dBound/dB = %v > 0; budget should never hurt", s.DBoundDBudget)
	}
	return nil
}

func maxAbs(x, floor float64) float64 {
	if x < 0 {
		x = -x
	}
	if x < floor {
		return floor
	}
	return x
}
