package data

import (
	"context"
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
// dimension is 64 instead of 784 for laptop-scale runs.
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
//
// Generation contract: the shard sizes and then the class prototypes come
// from r first; client k then draws its label set and samples from the k-th
// Split of r, and the i.i.d. test set from one more Split taken after the
// clients'. Every Gaussian is stats.RNG.NormFloat64's polar draw; each
// prototype and each sample row takes its Dim of them in one NormFloat64s
// call, which returns the bits of that many NormFloat64 calls, and then
// scales them (a row: prototype + fl(NoiseStd·z), the product rounded
// before the add). The shards and the test set are filled in parallel, on
// at most GOMAXPROCS workers, into storage allocated beforehand; each
// dataset keeps its rows in one block, every row capped at Dim. The bits are
// those of filling them one after another, for any worker count, and do not
// depend on whether the host has AVX2.
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
		r.NormFloat64s(p)
		for j := range p {
			p[j] *= cfg.ClassSpread
		}
		protos[c] = p
	}

	// Stream k < NumClients fills client k; the last fills the test set.
	streams := make([]*stats.RNG, cfg.NumClients+1)
	for k := range streams {
		streams[k] = r.Split()
	}
	clients := make([]*Dataset, cfg.NumClients)
	for k := range clients {
		clients[k] = newDataset(sizes[k], cfg.Dim, cfg.Classes)
	}
	// I.i.d. test set over all classes, as the server-side evaluation set.
	test := newDataset(cfg.TestSamples, cfg.Dim, cfg.Classes)
	allClasses := make([]int, cfg.Classes)
	for c := range allClasses {
		allClasses[c] = c
	}
	// Nothing fails and the context never ends, so there is no error.
	_ = stats.ParallelFor(context.Background(), len(streams), 0, func(_ context.Context, _ *struct{}, k int) error {
		if k == cfg.NumClients {
			fillImageLike(streams[k], cfg, protos, allClasses, test)
			return nil
		}
		labels := classesForClient(streams[k], cfg.Classes, cfg.MinClasses, cfg.MaxClasses)
		fillImageLike(streams[k], cfg, protos, labels, clients[k])
		return nil
	})
	return assemble(clients, test)
}

// fillImageLike fills ds from rr: each sample's class is uniform over labels,
// its features that class's prototype plus Gaussian noise.
func fillImageLike(rr *stats.RNG, cfg ImageLikeConfig, protos [][]float64, labels []int, ds *Dataset) {
	for i, x := range ds.X {
		class := labels[rr.Intn(len(labels))]
		p := protos[class]
		rr.NormFloat64s(x)
		for j := range x {
			x[j] = p[j] + float64(cfg.NoiseStd*x[j])
		}
		ds.Y[i] = class
	}
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
