package data

import (
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
func GenerateSynthetic(r *stats.RNG, cfg SyntheticConfig) (*Federated, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sizes, err := stats.PowerLawSizes(r, cfg.NumClients, cfg.TotalSamples, cfg.MinPerClient, cfg.PowerLawExp)
	if err != nil {
		return nil, fmt.Errorf("synthetic sizes: %w", err)
	}

	// Shared coordinate scales Σ_jj = j^{-1.2}.
	scales := make([]float64, cfg.Dim)
	for j := range scales {
		scales[j] = tensor.Exp(-1.2 * tensor.Log(float64(j+1)))
	}

	clients := make([]*Dataset, cfg.NumClients)
	var testParts []*Dataset
	for k := 0; k < cfg.NumClients; k++ {
		cr := r.Split()
		uk := float64(math.Sqrt(cfg.Alpha) * cr.NormFloat64())
		bk := float64(math.Sqrt(cfg.Beta) * cr.NormFloat64())

		wk, err := tensor.NewMat(cfg.Classes, cfg.Dim)
		if err != nil {
			return nil, err
		}
		for i := range wk.Data {
			wk.Data[i] = uk + cr.NormFloat64()
		}
		bias := make(tensor.Vec, cfg.Classes)
		for i := range bias {
			bias[i] = uk + cr.NormFloat64()
		}
		vk := make([]float64, cfg.Dim)
		for j := range vk {
			vk[j] = bk + cr.NormFloat64()
		}

		nTest := int(float64(sizes[k]) * cfg.TestFraction)
		nTrain := sizes[k] - nTest
		gen := func(n int) (*Dataset, error) {
			ds := &Dataset{Dim: cfg.Dim, Classes: cfg.Classes}
			logits := make(tensor.Vec, cfg.Classes)
			for i := 0; i < n; i++ {
				x := make([]float64, cfg.Dim)
				for j := range x {
					x[j] = vk[j] + float64(math.Sqrt(scales[j])*cr.NormFloat64())
				}
				if err := wk.MulVec(tensor.Vec(x), logits); err != nil {
					return nil, err
				}
				for c := range logits {
					logits[c] += bias[c]
				}
				y, err := tensor.ArgMax(logits)
				if err != nil {
					return nil, err
				}
				ds.X = append(ds.X, x)
				ds.Y = append(ds.Y, y)
			}
			return ds, nil
		}
		train, err := gen(nTrain)
		if err != nil {
			return nil, err
		}
		test, err := gen(nTest)
		if err != nil {
			return nil, err
		}
		clients[k] = train
		testParts = append(testParts, test)
	}
	test, err := Concat(testParts)
	if err != nil {
		return nil, err
	}
	return assemble(clients, test)
}
