package data

import (
	"context"
	"errors"
	"fmt"
	"math"

	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// SyntheticConfig parameterizes the Synthetic(α, β) generator from the FL
// literature (Li et al., "Federated Optimization in Heterogeneous Networks"),
// which the paper's Setup 1 uses with α = β = 1, 60-dimensional inputs,
// 22,377 samples, and power-law sizes across 40 devices.
type SyntheticConfig struct {
	NumClients   int
	TotalSamples int
	Dim          int
	Classes      int
	Alpha        float64 // controls how much local models differ across devices
	Beta         float64 // controls how much local data differs across devices
	PowerLawExp  float64 // exponent of the unbalanced size distribution
	MinPerClient int
	TestFraction float64 // share of each client's generated samples held out
}

// DefaultSyntheticConfig mirrors the paper's Setup 1 shape.
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		NumClients:   40,
		TotalSamples: 22377,
		Dim:          60,
		Classes:      10,
		Alpha:        1,
		Beta:         1,
		PowerLawExp:  1.2,
		MinPerClient: 20,
		TestFraction: 0.2,
	}
}

func (c SyntheticConfig) validate() error {
	switch {
	case c.NumClients <= 0:
		return errors.New("data: synthetic needs at least one client")
	case c.TotalSamples <= 0:
		return errors.New("data: synthetic needs samples")
	case c.Dim <= 0 || c.Classes <= 1:
		return errors.New("data: synthetic needs dim >= 1 and classes >= 2")
	case c.TestFraction < 0 || c.TestFraction >= 1:
		return errors.New("data: test fraction must be in [0, 1)")
	}
	return nil
}

// GenerateSynthetic builds a federated Synthetic(α, β) dataset. Each client k
// draws a private softmax model W_k, b_k ~ N(u_k, 1) with u_k ~ N(0, α) and a
// private input mean v_k ~ N(B_k, 1) with B_k ~ N(0, β); inputs have
// coordinate variances j^{-1.2} and labels come from the client's own model,
// so both the features and the conditional label distribution are non-i.i.d.
// across clients.
//
// Generation contract: the shard sizes come from r first; client k then
// draws everything — model, input mean, train samples, test samples — from
// the k-th Split of r. Every Gaussian is stats.RNG.NormFloat64's polar
// draw: u_k and B_k one call each, then W_k, b_k, v_k and each sample row
// one NormFloat64s call apiece, which returns the bits of that many
// NormFloat64 calls (a row: v_k + fl(√Σ_jj·z), the product rounded before
// the add). The shards are filled in parallel, on at most GOMAXPROCS
// workers, into storage allocated beforehand; each of a client's train and
// test parts keeps its rows in one block, every row capped at Dim. The bits
// are those of filling the clients one after another, for any worker count,
// and do not depend on whether the host has AVX2.
func GenerateSynthetic(r *stats.RNG, cfg SyntheticConfig) (*Federated, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sizes, err := stats.PowerLawSizes(r, cfg.NumClients, cfg.TotalSamples, cfg.MinPerClient, cfg.PowerLawExp)
	if err != nil {
		return nil, fmt.Errorf("synthetic sizes: %w", err)
	}

	// Shared coordinate standard deviations √Σ_jj, Σ_jj = j^{-1.2}.
	stddev := make([]float64, cfg.Dim)
	for j := range stddev {
		stddev[j] = math.Sqrt(tensor.Exp(-1.2 * tensor.Log(float64(j+1))))
	}

	streams := make([]*stats.RNG, cfg.NumClients)
	for k := range streams {
		streams[k] = r.Split()
	}
	clients := make([]*Dataset, cfg.NumClients)
	tests := make([]*Dataset, cfg.NumClients)
	for k := range clients {
		nTest := int(float64(sizes[k]) * cfg.TestFraction)
		clients[k] = newDataset(sizes[k]-nTest, cfg.Dim, cfg.Classes)
		tests[k] = newDataset(nTest, cfg.Dim, cfg.Classes)
	}
	err = stats.ParallelFor(context.Background(), cfg.NumClients, 0, func(_ context.Context, _ *struct{}, k int) error {
		return fillSynthetic(streams[k], cfg, stddev, clients[k], tests[k])
	})
	if err != nil {
		return nil, err
	}
	test, err := Concat(tests)
	if err != nil {
		return nil, err
	}
	return assemble(clients, test)
}

// fillSynthetic draws one client's model and input mean from cr, then fills
// its train and test parts, in that order, with samples labelled by that
// model: each part's rows are drawn first, then labelled (labelling draws
// nothing).
func fillSynthetic(cr *stats.RNG, cfg SyntheticConfig, stddev []float64, train, test *Dataset) error {
	uk := float64(math.Sqrt(cfg.Alpha) * cr.NormFloat64())
	bk := float64(math.Sqrt(cfg.Beta) * cr.NormFloat64())

	wk, err := tensor.NewMat(cfg.Classes, cfg.Dim)
	if err != nil {
		return err
	}
	bias := make(tensor.Vec, cfg.Classes)
	vk := make([]float64, cfg.Dim)
	normalsAround(cr, wk.Data, uk)
	normalsAround(cr, bias, uk)
	normalsAround(cr, vk, bk)

	logits := make(tensor.Vec, max(len(train.X), len(test.X))*cfg.Classes)
	for _, ds := range [2]*Dataset{train, test} {
		for _, x := range ds.X {
			cr.NormFloat64s(x)
			for j := range x {
				x[j] = vk[j] + float64(stddev[j]*x[j])
			}
		}
		if err := label(ds, wk, bias, logits[:len(ds.X)*cfg.Classes]); err != nil {
			return err
		}
	}
	return nil
}

// label sets each sample's label to the first maximum of its scores
// wk·x + bias, each score one sum of the products from +0, j ascending,
// then + bias: the order of MulVec and then the bias. With an even class
// count the sample pairs are scored by one tensor.LogitsBatch call, whose
// order for them is that one; an odd last sample, and every sample with an
// odd class count, is scored by MulVec. z holds the scores.
func label(ds *Dataset, wk *tensor.Mat, bias, z tensor.Vec) error {
	classes := wk.Rows
	pairs := len(ds.X) &^ 1
	if classes%2 != 0 {
		pairs = 0
	}
	if err := tensor.LogitsBatch(ds.X[:pairs], wk.Data, bias, wk.Cols, classes, z[:pairs*classes]); err != nil {
		return err
	}
	for i := pairs; i < len(ds.X); i++ {
		zi := z[i*classes : (i+1)*classes]
		if err := wk.MulVec(ds.X[i], zi); err != nil {
			return err
		}
		for c := range zi {
			zi[c] += bias[c]
		}
	}
	for i := range ds.Y {
		y, err := tensor.ArgMax(z[i*classes : (i+1)*classes])
		if err != nil {
			return err
		}
		ds.Y[i] = y
	}
	return nil
}

// normalsAround fills v with unit-variance normals about mean: standard
// normals from cr, each plus mean.
func normalsAround(cr *stats.RNG, v []float64, mean float64) {
	cr.NormFloat64s(v)
	for i := range v {
		v[i] += mean
	}
}
