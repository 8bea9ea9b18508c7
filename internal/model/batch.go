package model

import (
	"errors"
	"fmt"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// gradChunk caps how many samples the batched gradient kernels process at a
// time, bounding a Scratch's probability buffer at gradChunk×classes floats
// regardless of batch (or full-dataset) size while keeping the working set
// cache-resident.
const gradChunk = 256

// Scratch holds the reusable buffers of the batched gradient kernel so a
// steady-state training step allocates nothing. Each training goroutine owns
// one; the zero value is ready to use and grows on first use.
type Scratch struct {
	idx    []int
	labels []int
	rows   [][]float64
	probs  tensor.Vec
	grad   tensor.Vec
}

// ensureGrad returns the gradient buffer sized to p parameters.
func (s *Scratch) ensureGrad(p int) tensor.Vec {
	if cap(s.grad) < p {
		s.grad = tensor.NewVec(p)
	}
	s.grad = s.grad[:p]
	return s.grad
}

// ensureProbs returns just the score buffer, for evaluation paths that feed
// contiguous dataset rows straight to the kernels.
func (s *Scratch) ensureProbs(n int) tensor.Vec {
	if cap(s.probs) < n {
		s.probs = tensor.NewVec(n)
	}
	s.probs = s.probs[:n]
	return s.probs
}

// ensureIdx returns the batch-index buffer sized to n.
func (s *Scratch) ensureIdx(n int) []int {
	if cap(s.idx) < n {
		s.idx = make([]int, n)
	}
	s.idx = s.idx[:n]
	return s.idx
}

// ensureChunk sizes the row, label, and probability buffers for a chunk of n
// samples over the given class count.
func (s *Scratch) ensureChunk(n, classes int) {
	if cap(s.rows) < n {
		s.rows = make([][]float64, n)
	}
	s.rows = s.rows[:n]
	if cap(s.labels) < n {
		s.labels = make([]int, n)
	}
	s.labels = s.labels[:n]
	if cap(s.probs) < n*classes {
		s.probs = tensor.NewVec(n * classes)
	}
	s.probs = s.probs[:n*classes]
}

// BatchGradienter is the allocation-free fast path the FL engine uses when a
// model supports it: identical semantics to Model.StochasticGradient, but
// every buffer the step needs comes from the caller-owned Scratch.
type BatchGradienter interface {
	StochasticGradientScratch(w tensor.Vec, ds *data.Dataset, batchSize int,
		r *stats.RNG, grad tensor.Vec, s *Scratch) error
}

// LocalStepper is the fused local-SGD fast path: draw a mini-batch, take one
// in-place step w ← w − lr·∇F_B(w), and report ‖∇F_B(w)‖². Fusing the L2
// term, the squared-norm reduction, and the parameter update into a single
// pass over the parameters saves two full read-modify-write sweeps per step
// relative to composing StochasticGradient + SqNorm + AddScaled.
type LocalStepper interface {
	SGDStep(w tensor.Vec, ds *data.Dataset, batchSize int, lr float64,
		r *stats.RNG, s *Scratch) (gradSqNorm float64, err error)
}

// fusedStep applies gj = g[j] + mu·w[j]; w[j] -= lr·gj element-wise and
// returns Σ gj², in the same per-element operation order as the unfused
// AddScaled/SqNorm/AddScaled sequence.
func fusedStep(w, g tensor.Vec, mu, lr float64) float64 {
	g = g[:len(w)]
	var sq float64
	for j := range w {
		gj := g[j] + float64(mu*w[j])
		sq += float64(gj * gj)
		w[j] -= float64(lr * gj)
	}
	return sq
}

// Both model families are linear score models sharing the flattened
// (weights row-major, then biases) layout, so the whole gradient path —
// batch draw, chunked batched kernels, fused step — is shared below and
// parameterized only by whether scores pass through a softmax (logistic
// regression) or are used raw as residuals (ridge).

// drawBatch validates the mini-batch arguments and fills the scratch index
// buffer with batchSize uniform draws (with replacement).
func drawBatch(ds *data.Dataset, batchSize int, r *stats.RNG, s *Scratch) ([]int, error) {
	if ds.Len() == 0 {
		return nil, errors.New("model: gradient on empty dataset")
	}
	if batchSize <= 0 {
		return nil, errors.New("model: non-positive batch size")
	}
	if batchSize > ds.Len() {
		batchSize = ds.Len()
	}
	idx := s.ensureIdx(batchSize)
	for i := range idx {
		idx[i] = r.Intn(ds.Len())
	}
	return idx, nil
}

// linearDataGradient accumulates the average data gradient (no L2 term)
// over n sample indices (the identity permutation when idx is nil). The
// mini-batch is processed through the batched kernels in gradChunk-sized
// blocks: one X·Wᵀ+b logits pass, an optional row-wise softmax, the onehot
// subtraction, and one Pᵀ·X accumulation per block, instead of per-sample
// dot products.
func linearDataGradient(
	w tensor.Vec, ds *data.Dataset, idx []int, n, dim, classes int,
	softmax bool, grad tensor.Vec, s *Scratch,
) error {
	params := classes*dim + classes
	if len(grad) != params {
		return errors.New("model: gradient buffer size mismatch")
	}
	if len(w) != params {
		return fmt.Errorf("model: params length %d, want %d", len(w), params)
	}
	grad.Zero()
	wRows := w[:classes*dim]
	bias := w[classes*dim:]
	gRows := grad[:classes*dim]
	gBias := grad[classes*dim:]
	inv := 1.0 / float64(n)
	s.ensureChunk(min(n, gradChunk), classes)
	for lo := 0; lo < n; lo += gradChunk {
		hi := min(lo+gradChunk, n)
		b := hi - lo
		rows := s.rows[:b]
		labels := s.labels[:b]
		for i := 0; i < b; i++ {
			j := lo + i
			if idx != nil {
				j = idx[lo+i]
			}
			rows[i] = ds.X[j]
			labels[i] = ds.Y[j]
		}
		probs := s.probs[:b*classes]
		if err := tensor.LogitsBatch(rows, wRows, bias, dim, classes, probs); err != nil {
			return err
		}
		if softmax {
			if err := tensor.SoftmaxRows(probs, b, classes); err != nil {
				return err
			}
		}
		for i := 0; i < b; i++ {
			probs[i*classes+labels[i]] -= 1 // scores (or softmax) - onehot
		}
		if err := tensor.AddScaledTMul(inv, rows, probs, classes, dim, gRows); err != nil {
			return err
		}
		for c := 0; c < classes; c++ {
			var sum float64
			for i := 0; i < b; i++ {
				sum += probs[i*classes+c]
			}
			gBias[c] += float64(inv * sum)
		}
	}
	return nil
}

// linearBatchGradient is linearDataGradient plus the L2 term.
func linearBatchGradient(
	w tensor.Vec, ds *data.Dataset, idx []int, n, dim, classes int,
	mu float64, softmax bool, grad tensor.Vec, s *Scratch,
) error {
	if err := linearDataGradient(w, ds, idx, n, dim, classes, softmax, grad, s); err != nil {
		return err
	}
	if mu > 0 {
		return grad.AddScaled(mu, w)
	}
	return nil
}

// linearStochasticGradient draws a batch and computes its full gradient.
func linearStochasticGradient(
	w tensor.Vec, ds *data.Dataset, batchSize int, r *stats.RNG,
	dim, classes int, mu float64, softmax bool, grad tensor.Vec, s *Scratch,
) error {
	if s == nil {
		s = new(Scratch)
	}
	idx, err := drawBatch(ds, batchSize, r, s)
	if err != nil {
		return err
	}
	return linearBatchGradient(w, ds, idx, len(idx), dim, classes, mu, softmax, grad, s)
}

// linearSGDStep draws a batch and takes one fused in-place SGD step,
// returning ‖∇F_B(w)‖².
func linearSGDStep(
	w tensor.Vec, ds *data.Dataset, batchSize int, lr float64, r *stats.RNG,
	dim, classes int, mu float64, softmax bool, s *Scratch,
) (float64, error) {
	if s == nil {
		s = new(Scratch)
	}
	idx, err := drawBatch(ds, batchSize, r, s)
	if err != nil {
		return 0, err
	}
	grad := s.ensureGrad(classes*dim + classes)
	if err := linearDataGradient(w, ds, idx, len(idx), dim, classes, softmax, grad, s); err != nil {
		return 0, err
	}
	return fusedStep(w, grad, mu, lr), nil
}

var (
	_ BatchGradienter = (*LogisticRegression)(nil)
	_ BatchGradienter = (*RidgeRegression)(nil)
	_ LocalStepper    = (*LogisticRegression)(nil)
	_ LocalStepper    = (*RidgeRegression)(nil)
)
