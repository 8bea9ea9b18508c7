package model

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
	"unbiasedfl/internal/testutil"
)

// randomDataset builds a dataset with standard-normal features and uniform
// labels, the raw material for kernel equivalence checks.
func randomDataset(r *stats.RNG, n, dim, classes int) *data.Dataset {
	ds := &data.Dataset{Dim: dim, Classes: classes}
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, r.Intn(classes))
	}
	return ds
}

func randomParams(r *stats.RNG, m Model) tensor.Vec {
	w := m.ZeroParams()
	for i := range w {
		w[i] = 0.3 * r.NormFloat64()
	}
	return w
}

// perSampleLogregGradient is the retired pre-batching gradient path, kept
// here as the reference implementation for equivalence tests: one logits
// dot-product pass and one outer-product accumulation per sample.
func perSampleLogregGradient(m *LogisticRegression, w tensor.Vec, ds *data.Dataset, idx []int, grad tensor.Vec) error {
	grad.Zero()
	probs := make(tensor.Vec, m.Classes)
	inv := 1.0 / float64(len(idx))
	for _, i := range idx {
		x := ds.X[i]
		if err := m.Logits(w, x, probs); err != nil {
			return err
		}
		if err := tensor.SoftmaxRows(probs, 1, m.Classes); err != nil {
			return err
		}
		probs[ds.Y[i]] -= 1
		for c := 0; c < m.Classes; c++ {
			pc := inv * probs[c]
			row := grad[c*m.Dim : (c+1)*m.Dim]
			for j := range row {
				row[j] += pc * x[j]
			}
			grad[m.Classes*m.Dim+c] += pc
		}
	}
	if m.Mu > 0 {
		return grad.AddScaled(m.Mu, w)
	}
	return nil
}

const batchTol = 1e-12

// gradShapes covers the blocking tails: class counts off the 4/2 blocks,
// batches off the 2/4-sample blocks, and batches larger than one chunk.
var gradShapes = []struct{ n, dim, classes, batch int }{
	{40, 7, 2, 5},
	{60, 12, 3, 16},
	{80, 9, 5, 17},
	{50, 16, 10, 24},
	{gradChunk + 37, 11, 6, gradChunk + 37}, // full-batch spanning two chunks
}

func TestLogregBatchedGradientMatchesPerSample(t *testing.T) {
	r := stats.NewRNG(11)
	for _, shape := range gradShapes {
		ds := randomDataset(r, shape.n, shape.dim, shape.classes)
		m, err := NewLogisticRegression(shape.dim, shape.classes, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		w := randomParams(r, m)
		idx := make([]int, shape.batch)
		for i := range idx {
			idx[i] = r.Intn(ds.Len())
		}
		got := m.ZeroParams()
		if err := m.batchGradient(w, ds, idx, len(idx), got, new(Scratch)); err != nil {
			t.Fatal(err)
		}
		want := m.ZeroParams()
		if err := perSampleLogregGradient(m, w, ds, idx, want); err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if math.Abs(got[j]-want[j]) > batchTol {
				t.Fatalf("%v: grad[%d] = %v, want %v (diff %g)",
					shape, j, got[j], want[j], got[j]-want[j])
			}
		}
	}
}

// sgdStepShapes are (n, dim, classes, batch) for TestSGDStepMatchesUnfusedStep.
// The dim-24 and dim-28 shapes take the vector logits tier where there is
// one; the other two decline it.
var sgdStepShapes = []struct{ n, dim, classes, batch int }{
	{120, 10, 4, 8},
	{200, 24, 10, 24},
	{300, 28, 62, 8},
	{90, 7, 3, 5},
}

// TestSGDStepMatchesUnfusedStep pins both local steps to the textbook
// StochasticGradient + AddScaled sequence, bit for bit: same RNG seed, same
// batch draw, the same bits in every parameter — SGDStep's and Step's — and
// in SGDStep's ‖g‖², on the vector and on the portable kernel tier, with and
// without L2.
func TestSGDStepMatchesUnfusedStep(t *testing.T) {
	for _, shape := range sgdStepShapes {
		for _, mu := range []float64{0, 0.02} {
			for _, vector := range []bool{true, false} {
				name := fmt.Sprintf("%dx%dx%d_b%d/mu%g/vector=%t",
					shape.n, shape.dim, shape.classes, shape.batch, mu, vector)
				t.Run(name, func(t *testing.T) {
					if !vector {
						declineVector(t)
					} else if !tensor.HasAVX2 {
						t.Skip("no AVX2: the vector tier does not exist on this host")
					}
					root := stats.NewRNG(13)
					ds := randomDataset(root, shape.n, shape.dim, shape.classes)
					m := mustLogreg(t, shape.dim, shape.classes, mu)
					w := randomParams(root, m)
					const lr = 0.05

					wFused := w.Clone()
					sq, err := m.SGDStep(wFused, ds, shape.batch, lr, stats.NewRNG(99), new(Scratch))
					if err != nil {
						t.Fatal(err)
					}

					wRef := w.Clone()
					grad := m.ZeroParams()
					if err := m.StochasticGradient(wRef, ds, shape.batch, stats.NewRNG(99), grad); err != nil {
						t.Fatal(err)
					}
					if err := wRef.AddScaled(-lr, grad); err != nil {
						t.Fatal(err)
					}

					if want := grad.SqNorm(); math.Float64bits(sq) != math.Float64bits(want) {
						t.Fatalf("fused ||g||² = %v, unfused %v", sq, want)
					}
					for j := range wFused {
						if math.Float64bits(wFused[j]) != math.Float64bits(wRef[j]) {
							t.Fatalf("w[%d] = %v, want %v", j, wFused[j], wRef[j])
						}
					}

					wStep := w.Clone()
					if err := m.Step(wStep, ds, shape.batch, lr, stats.NewRNG(99), new(Scratch)); err != nil {
						t.Fatal(err)
					}
					for j := range wStep {
						if math.Float64bits(wStep[j]) != math.Float64bits(wFused[j]) {
							t.Fatalf("Step: w[%d] = %v, SGDStep %v", j, wStep[j], wFused[j])
						}
					}
				})
			}
		}
	}
}

func mustLogreg(t *testing.T, dim, classes int, mu float64) *LogisticRegression {
	t.Helper()
	m, err := NewLogisticRegression(dim, classes, mu)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEvalDeterministicAcrossWorkers pins Loss and Accuracy to the same
// result whatever GOMAXPROCS is: the chunked reduction order is fixed.
func TestEvalDeterministicAcrossWorkers(t *testing.T) {
	r := stats.NewRNG(14)
	ds := randomDataset(r, 3*evalChunk+57, 9, 5) // several chunks plus a tail
	m := mustLogreg(t, 9, 5, 0.01)
	w := randomParams(r, m)

	prev := runtime.GOMAXPROCS(1)
	seqLoss, err := m.Loss(w, ds)
	if err != nil {
		t.Fatal(err)
	}
	seqAcc, err := m.Accuracy(w, ds)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	parLoss, err := m.Loss(w, ds)
	if err != nil {
		t.Fatal(err)
	}
	parAcc, err := m.Accuracy(w, ds)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(prev)

	if seqLoss != parLoss {
		t.Fatalf("loss differs across worker counts: %v vs %v", seqLoss, parLoss)
	}
	if seqAcc != parAcc {
		t.Fatalf("accuracy differs across worker counts: %v vs %v", seqAcc, parAcc)
	}
}

// TestSGDStepZeroAllocs is the allocation regression gate for the training
// hot path: once the scratch arena is warm, neither local step — Step, which
// training runs, nor SGDStep, which calibration runs — may touch the heap.
func TestSGDStepZeroAllocs(t *testing.T) {
	r := stats.NewRNG(15)
	ds := randomDataset(r, 200, 24, 10)
	m := mustLogreg(t, 24, 10, 0.01)
	w := randomParams(r, m)
	scratch := new(Scratch)
	rng := stats.NewRNG(7)
	// Warm the arena.
	if _, err := m.SGDStep(w, ds, 16, 1e-3, rng, scratch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.SGDStep(w, ds, 16, 1e-3, rng, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SGDStep allocates %v times per run", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if err := m.Step(w, ds, 16, 1e-3, rng, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %v times per run", allocs)
	}
}

// TestSGDUpdateMatchesFusedStep holds tensor.SGDUpdate, on both kernel
// tiers, to the w that fusedStep leaves, bit for bit and NaN payloads
// included: the table of the tensor package's kernel test — testutil's
// UpdateSizes × both L2 coefficients × two learning rates — on operands that
// pair every edge value with every other, carved inside guard words.
func TestSGDUpdateMatchesFusedStep(t *testing.T) {
	const guard = -0x1.deadbeefcafep+700
	for _, vector := range []bool{true, false} {
		t.Run(fmt.Sprintf("vector=%t", vector), func(t *testing.T) {
			if !vector {
				declineVector(t)
			} else if !tensor.HasAVX2 {
				t.Skip("no AVX2: the vector tier does not exist on this host")
			}
			for _, p := range testutil.UpdateSizes {
				for _, mu := range []float64{0, 0.02} {
					for _, lr := range []float64{0.1, 0x1.5p-9} {
						w, g, cw, cg := testutil.UpdateOperands(p, uint64(p), guard)
						want := tensor.Vec(w).Clone()
						fusedStep(want, g, mu, lr)
						if err := tensor.SGDUpdate(w, g, mu, lr); err != nil {
							t.Fatal(err)
						}
						for j := range want {
							if math.Float64bits(w[j]) != math.Float64bits(want[j]) {
								t.Fatalf("p=%d mu=%v lr=%v: w[%d] = %x, fusedStep %x",
									p, mu, lr, j, math.Float64bits(w[j]), math.Float64bits(want[j]))
							}
						}
						if !cw.Intact() || !cg.Intact() {
							t.Fatalf("p=%d: SGDUpdate wrote outside w or g", p)
						}
					}
				}
			}
		})
	}
}

// TestStochasticGradientScratchZeroAllocs covers the unfused scratch path.
func TestStochasticGradientScratchZeroAllocs(t *testing.T) {
	r := stats.NewRNG(16)
	ds := randomDataset(r, 200, 24, 10)
	m := mustLogreg(t, 24, 10, 0.01)
	w := randomParams(r, m)
	grad := m.ZeroParams()
	scratch := new(Scratch)
	rng := stats.NewRNG(7)
	if err := m.StochasticGradientScratch(w, ds, 16, rng, grad, scratch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.StochasticGradientScratch(w, ds, 16, rng, grad, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state scratch gradient allocates %v times per run", allocs)
	}
}

// benchShapes are the MNIST-like shape of the paper's Setup 2 at full size
// and the three shapes the benchmark workloads actually step on — the twins
// of their model.sgd_step_us: paper-train (Setup 2 at laptop scale),
// fleet-local/fleet-cluster (Setup 1) and session-durable (Setup 3).
var benchShapes = []struct {
	name                string
	dim, classes, batch int
}{
	{"784x10_b24", 784, 10, 24},
	{"64x10_b24", 64, 10, 24},
	{"60x10_b8", 60, 10, 8},
	{"64x26_b8", 64, 26, 8},
}

func benchTask(b *testing.B, dim, classes int) (*LogisticRegression, *data.Dataset, tensor.Vec) {
	b.Helper()
	r := stats.NewRNG(1)
	ds := randomDataset(r, 1600, dim, classes)
	m, err := NewLogisticRegression(dim, classes, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	return m, ds, randomParams(r, m)
}

// BenchmarkBatchGradient measures the batched mini-batch gradient kernel at
// the paper's batch size (24) on the MNIST-like shape.
func BenchmarkBatchGradient(b *testing.B) {
	m, ds, w := benchTask(b, 784, 10)
	grad := m.ZeroParams()
	scratch := new(Scratch)
	rng := stats.NewRNG(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.StochasticGradientScratch(w, ds, 24, rng, grad, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStep measures the training step: SGDStep's batch and gradient,
// the update without the norm.
func BenchmarkStep(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			m, ds, w := benchTask(b, shape.dim, shape.classes)
			scratch := new(Scratch)
			rng := stats.NewRNG(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Step(w, ds, shape.batch, 1e-6, rng, scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSGDStep measures the fused step calibration runs, which also
// reports ‖g‖².
func BenchmarkSGDStep(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			m, ds, w := benchTask(b, shape.dim, shape.classes)
			scratch := new(Scratch)
			rng := stats.NewRNG(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.SGDStep(w, ds, shape.batch, 1e-6, rng, scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvalLoss measures the sharded full-dataset evaluation.
func BenchmarkEvalLoss(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(fmt.Sprintf("%dx%d", shape.dim, shape.classes), func(b *testing.B) {
			m, ds, w := benchTask(b, shape.dim, shape.classes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Loss(w, ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
