package data

import (
	"errors"
	"fmt"
	"math"

	"unbiasedfl/internal/stats"
)

// ImageLikeConfig parameterizes the class-conditional Gaussian stand-ins for
// the paper's MNIST and EMNIST setups. Each class c has a fixed prototype
// mean μ_c in feature space; samples are μ_c + noise. Clients receive a
// restricted random label set (non-i.i.d.) and power-law sizes (unbalanced),
// exactly the partition statistics the paper reports.
type ImageLikeConfig struct {
	NumClients   int
	TotalSamples int
	Dim          int
	Classes      int
	MinClasses   int // fewest classes a client may hold
	MaxClasses   int // most classes a client may hold
	ClassSpread  float64
	NoiseStd     float64
	PowerLawExp  float64
	MinPerClient int
	TestFraction float64
	TestSamples  int // held-out i.i.d. test samples across all classes
}

// MNISTLikeConfig mirrors the paper's Setup 2: 14,463 samples, 10 classes,
// each device holding 1–6 classes, unbalanced power-law sizes. Feature
// dimension is 64 instead of 784 for laptop-scale runs (DESIGN.md §4).
func MNISTLikeConfig() ImageLikeConfig {
	return ImageLikeConfig{
		NumClients:   40,
		TotalSamples: 14463,
		Dim:          64,
		Classes:      10,
		MinClasses:   1,
		MaxClasses:   6,
		ClassSpread:  2.0,
		NoiseStd:     1.0,
		PowerLawExp:  1.2,
		MinPerClient: 20,
		TestSamples:  2000,
	}
}

// EMNISTLikeConfig mirrors the paper's Setup 3: 35,155 lowercase-letter
// samples, 26 classes, each device holding a random 1–10 classes.
func EMNISTLikeConfig() ImageLikeConfig {
	return ImageLikeConfig{
		NumClients:   40,
		TotalSamples: 35155,
		Dim:          64,
		Classes:      26,
		MinClasses:   1,
		MaxClasses:   10,
		ClassSpread:  2.0,
		NoiseStd:     1.2,
		PowerLawExp:  1.2,
		MinPerClient: 20,
		TestSamples:  3000,
	}
}

func (c ImageLikeConfig) validate() error {
	switch {
	case c.NumClients <= 0:
		return errors.New("data: image-like needs at least one client")
	case c.TotalSamples <= 0:
		return errors.New("data: image-like needs samples")
	case c.Dim <= 0 || c.Classes <= 1:
		return errors.New("data: image-like needs dim >= 1 and classes >= 2")
	case c.MinClasses < 1 || c.MaxClasses < c.MinClasses:
		return errors.New("data: invalid class range per client")
	case c.NoiseStd <= 0:
		return errors.New("data: noise std must be positive")
	case c.TestSamples < 0:
		return errors.New("data: negative test sample count")
	}
	return nil
}

// GenerateImageLike builds a federated class-conditional Gaussian dataset
// per cfg.
func GenerateImageLike(r *stats.RNG, cfg ImageLikeConfig) (*Federated, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sizes, err := stats.PowerLawSizes(r, cfg.NumClients, cfg.TotalSamples, cfg.MinPerClient, cfg.PowerLawExp)
	if err != nil {
		return nil, fmt.Errorf("image-like sizes: %w", err)
	}

	// Fixed class prototypes shared by every client.
	protos := make([][]float64, cfg.Classes)
	for c := range protos {
		p := make([]float64, cfg.Dim)
		for j := range p {
			p[j] = cfg.ClassSpread * r.NormFloat64()
		}
		protos[c] = p
	}

	sample := func(rr *stats.RNG, class int) []float64 {
		x := make([]float64, cfg.Dim)
		p := protos[class]
		for j := range x {
			x[j] = p[j] + float64(cfg.NoiseStd*rr.NormFloat64())
		}
		return x
	}

	clients := make([]*Dataset, cfg.NumClients)
	for k := 0; k < cfg.NumClients; k++ {
		cr := r.Split()
		labels := classesForClient(cr, cfg.Classes, cfg.MinClasses, cfg.MaxClasses)
		ds := &Dataset{Dim: cfg.Dim, Classes: cfg.Classes}
		for i := 0; i < sizes[k]; i++ {
			class := labels[cr.Intn(len(labels))]
			ds.X = append(ds.X, sample(cr, class))
			ds.Y = append(ds.Y, class)
		}
		clients[k] = ds
	}

	// I.i.d. test set over all classes, as the server-side evaluation set.
	tr := r.Split()
	test := &Dataset{Dim: cfg.Dim, Classes: cfg.Classes}
	for i := 0; i < cfg.TestSamples; i++ {
		class := tr.Intn(cfg.Classes)
		test.X = append(test.X, sample(tr, class))
		test.Y = append(test.Y, class)
	}
	// Guard against a configured-but-empty test set downstream; generation
	// above always matches cfg.TestSamples but keep the invariant explicit.
	if test.Len() == 0 && cfg.TestSamples > 0 {
		return nil, errors.New("data: empty test set")
	}
	return assemble(clients, test)
}

// LabelHistogram counts samples per class; useful for verifying the
// non-i.i.d. partition in tests and examples.
func LabelHistogram(d *Dataset) []int {
	h := make([]int, d.Classes)
	for _, y := range d.Y {
		h[y]++
	}
	return h
}

// SkewIndex measures label skew of a shard against uniform: 0 means the
// shard covers all classes uniformly, 1 means it is concentrated on a single
// class. Defined as half the L1 distance between the shard's label
// distribution and the uniform distribution, normalized to [0, 1].
func SkewIndex(d *Dataset) float64 {
	if d.Len() == 0 || d.Classes == 0 {
		return 0
	}
	h := LabelHistogram(d)
	uniform := 1.0 / float64(d.Classes)
	var l1 float64
	for _, c := range h {
		l1 += math.Abs(float64(c)/float64(d.Len()) - uniform)
	}
	max := 2 * (1 - uniform)
	if max == 0 {
		return 0
	}
	return l1 / max
}
