// Package model implements the paper's learning model: multinomial logistic
// regression with L2 regularization. With regularization strength mu > 0 the
// local objectives F_n are mu-strongly convex and L-smooth, matching
// Assumption 1 of the paper, and the stochastic mini-batch gradients are
// unbiased with bounded variance and bounded expected squared norm
// (Assumptions 2 and 3).
package model

import (
	"errors"
	"fmt"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// LogisticRegression describes the model family: Dim input features, Classes
// outputs, and an L2 regularization coefficient Mu (the strong-convexity
// modulus). Parameters are flattened into a single tensor.Vec of length
// Classes*Dim + Classes (weights row-major, then biases), which is the wire
// and aggregation format used by the FL engine.
type LogisticRegression struct {
	Dim     int
	Classes int
	Mu      float64
}

// NewLogisticRegression validates and constructs the model family.
func NewLogisticRegression(dim, classes int, mu float64) (*LogisticRegression, error) {
	switch {
	case dim <= 0:
		return nil, errors.New("model: dim must be positive")
	case classes <= 1:
		return nil, errors.New("model: need at least two classes")
	case mu < 0:
		return nil, errors.New("model: negative regularization")
	}
	return &LogisticRegression{Dim: dim, Classes: classes, Mu: mu}, nil
}

// NumParams returns the flattened parameter length.
func (m *LogisticRegression) NumParams() int { return m.Classes*m.Dim + m.Classes }

// ZeroParams returns the w0 = 0 initialization used by the paper.
func (m *LogisticRegression) ZeroParams() tensor.Vec { return tensor.NewVec(m.NumParams()) }

// Logits computes the class scores for input x into out (length Classes).
func (m *LogisticRegression) Logits(w tensor.Vec, x []float64, out tensor.Vec) error {
	if len(w) != m.NumParams() {
		return fmt.Errorf("model: params length %d, want %d", len(w), m.NumParams())
	}
	if len(x) != m.Dim {
		return fmt.Errorf("model: input dim %d, want %d", len(x), m.Dim)
	}
	if len(out) != m.Classes {
		return errors.New("model: logits buffer size mismatch")
	}
	wRows := w[:m.Classes*m.Dim]
	bias := w[m.Classes*m.Dim:]
	return tensor.LogitsBatch([][]float64{x}, wRows, bias, m.Dim, m.Classes, out)
}

// Loss returns the regularized average cross-entropy of w on ds:
// F(w) = (1/n) Σ -log softmax(Wx+b)[y] + (mu/2)||w||². The dataset is
// evaluated in fixed-size shards, concurrently when CPUs allow; the shard
// reduction order is fixed, so the result does not depend on parallelism.
func (m *LogisticRegression) Loss(w tensor.Vec, ds *data.Dataset) (float64, error) {
	if ds.Len() == 0 {
		return 0, errors.New("model: loss on empty dataset")
	}
	if len(w) != m.NumParams() {
		return 0, fmt.Errorf("model: params length %d, want %d", len(w), m.NumParams())
	}
	classes, dim := m.Classes, m.Dim
	wRows := w[:classes*dim]
	bias := w[classes*dim:]
	sum, err := chunkSum(ds.Len(), func(lo, hi int, s *Scratch) (float64, error) {
		b := hi - lo
		buf := s.ensureProbs((classes + 2) * b)
		logits, lse, label := buf[:classes*b], buf[classes*b:(classes+1)*b], buf[(classes+1)*b:]
		if err := tensor.LogitsBatch(ds.X[lo:hi], wRows, bias, dim, classes, logits); err != nil {
			return 0, err
		}
		// LogSumExp overwrites the logits: take each row's label score first.
		for i := range label {
			label[i] = logits[i*classes+ds.Y[lo+i]]
		}
		if err := tensor.LogSumExp(logits, b, classes, lse); err != nil {
			return 0, err
		}
		var part float64
		for i := range lse {
			part += lse[i] - label[i]
		}
		return part, nil
	})
	if err != nil {
		return 0, err
	}
	return sum/float64(ds.Len()) + float64(0.5*m.Mu*w.SqNorm()), nil
}

// Gradient computes the full-batch gradient of Loss at w into grad.
func (m *LogisticRegression) Gradient(w tensor.Vec, ds *data.Dataset, grad tensor.Vec) error {
	if ds.Len() == 0 {
		return errors.New("model: gradient on empty dataset")
	}
	return m.batchGradient(w, ds, nil, ds.Len(), grad, new(Scratch))
}

// StochasticGradient computes an unbiased mini-batch gradient at w using
// batchSize samples drawn uniformly with replacement from ds.
func (m *LogisticRegression) StochasticGradient(
	w tensor.Vec, ds *data.Dataset, batchSize int, r *stats.RNG, grad tensor.Vec,
) error {
	return m.StochasticGradientScratch(w, ds, batchSize, r, grad, new(Scratch))
}

// StochasticGradientScratch implements BatchGradienter: the same mini-batch
// gradient, with every buffer drawn from the caller-owned scratch so the
// steady-state training step performs no heap allocations.
func (m *LogisticRegression) StochasticGradientScratch(
	w tensor.Vec, ds *data.Dataset, batchSize int, r *stats.RNG, grad tensor.Vec, s *Scratch,
) error {
	return linearStochasticGradient(w, ds, batchSize, r, m.Dim, m.Classes, m.Mu, true, grad, s)
}

// SGDStep implements LocalStepper: one fused, allocation-free local SGD step.
func (m *LogisticRegression) SGDStep(
	w tensor.Vec, ds *data.Dataset, batchSize int, lr float64, r *stats.RNG, s *Scratch,
) (float64, error) {
	return linearSGDStep(w, ds, batchSize, lr, r, m.Dim, m.Classes, m.Mu, true, s)
}

// batchGradient runs the shared batched kernel path (see batch.go) with the
// cross-entropy softmax transform.
func (m *LogisticRegression) batchGradient(
	w tensor.Vec, ds *data.Dataset, idx []int, n int, grad tensor.Vec, s *Scratch,
) error {
	return linearBatchGradient(w, ds, idx, n, m.Dim, m.Classes, m.Mu, true, grad, s)
}

// Predict returns the argmax class for x.
func (m *LogisticRegression) Predict(w tensor.Vec, x []float64) (int, error) {
	logits := make(tensor.Vec, m.Classes)
	if err := m.Logits(w, x, logits); err != nil {
		return 0, err
	}
	return tensor.ArgMax(logits)
}

// Accuracy returns the fraction of ds classified correctly by w, evaluated
// in parallel shards like Loss.
func (m *LogisticRegression) Accuracy(w tensor.Vec, ds *data.Dataset) (float64, error) {
	if ds.Len() == 0 {
		return 0, errors.New("model: accuracy on empty dataset")
	}
	if len(w) != m.NumParams() {
		return 0, fmt.Errorf("model: params length %d, want %d", len(w), m.NumParams())
	}
	correct, err := countCorrect(w, ds, m.Dim, m.Classes)
	if err != nil {
		return 0, err
	}
	return correct / float64(ds.Len()), nil
}

// countCorrect is the shared sharded argmax-accuracy kernel: score each
// shard with one batched X·Wᵀ+b pass and count argmax hits. Both model
// families use linear scores, so they share it verbatim.
func countCorrect(w tensor.Vec, ds *data.Dataset, dim, classes int) (float64, error) {
	wRows := w[:classes*dim]
	bias := w[classes*dim:]
	return chunkSum(ds.Len(), func(lo, hi int, s *Scratch) (float64, error) {
		b := hi - lo
		scores := s.ensureProbs(b * classes)
		if err := tensor.LogitsBatch(ds.X[lo:hi], wRows, bias, dim, classes, scores); err != nil {
			return 0, err
		}
		var hits float64
		for i := 0; i < b; i++ {
			pred, err := tensor.ArgMax(scores[i*classes : (i+1)*classes])
			if err != nil {
				return 0, err
			}
			if pred == ds.Y[lo+i] {
				hits++
			}
		}
		return hits, nil
	})
}

// EstimateSmoothness returns an upper bound on the smoothness constant L of
// the regularized loss on ds. For softmax cross-entropy the Hessian spectral
// norm is at most (1/2)·max_i ||x_i||² (plus 1 for the bias coordinate) plus
// mu. This feeds α = 8LE/μ² in the convergence bound.
func (m *LogisticRegression) EstimateSmoothness(ds *data.Dataset) (float64, error) {
	if ds.Len() == 0 {
		return 0, errors.New("model: smoothness on empty dataset")
	}
	var maxSq float64
	for _, x := range ds.X {
		var s float64
		for _, xi := range x {
			s += float64(xi * xi)
		}
		if s > maxSq {
			maxSq = s
		}
	}
	return float64(0.5*(maxSq+1)) + m.Mu, nil
}
