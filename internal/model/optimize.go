package model

import (
	"errors"
	"math"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/tensor"
)

// SolveOptions controls the deterministic gradient-descent solver used to
// compute a reference optimum, such as the global F* of the convergence-rate
// experiment.
type SolveOptions struct {
	MaxIters  int
	Tolerance float64 // stop when the gradient norm falls below this
	StepSize  float64 // 0 means use 1/L from EstimateSmoothness
}

// Solve runs full-batch gradient descent from init (or zero when nil) and
// returns an approximate minimizer of the regularized loss of any Model on
// ds.
func Solve(m Model, ds *data.Dataset, init tensor.Vec, opts SolveOptions) (tensor.Vec, error) {
	if ds.Len() == 0 {
		return nil, errors.New("model: solve on empty dataset")
	}
	if opts.MaxIters <= 0 {
		return nil, errors.New("model: solve needs positive iteration budget")
	}
	w := m.ZeroParams()
	if init != nil {
		if err := w.CopyFrom(init); err != nil {
			return nil, err
		}
	}
	step := opts.StepSize
	if step <= 0 {
		l, err := m.EstimateSmoothness(ds)
		if err != nil {
			return nil, err
		}
		step = 1 / l
	}
	grad := m.ZeroParams()
	for it := 0; it < opts.MaxIters; it++ {
		if err := m.Gradient(w, ds, grad); err != nil {
			return nil, err
		}
		gnorm := grad.Norm2()
		if gnorm <= opts.Tolerance {
			break
		}
		if math.IsNaN(gnorm) || math.IsInf(gnorm, 0) {
			return nil, errors.New("model: divergence in solver")
		}
		if err := w.AddScaled(-step, grad); err != nil {
			return nil, err
		}
	}
	return w, nil
}
