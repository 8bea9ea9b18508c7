// Package data provides the dataset substrate for the reproduction: the
// Synthetic(α, β) generator used in the paper's Setup 1, and class-conditional
// Gaussian stand-ins for the MNIST (Setup 2) and EMNIST lowercase (Setup 3)
// datasets, all partitioned across clients in the unbalanced (power-law) and
// non-i.i.d. (restricted label set per client) fashion the paper describes.
//
// The module ships no image datasets. Class-conditional Gaussians preserve the
// behaviours the mechanism depends on: per-client sizes a_n and gradient-norm
// heterogeneity G_n under a convex multinomial logistic regression model.
package data

import (
	"errors"
	"fmt"

	"unbiasedfl/internal/stats"
)

// Dataset is a labelled design matrix: X[i] is the i-th feature vector and
// Y[i] its class in [0, Classes).
type Dataset struct {
	X       [][]float64
	Y       []int
	Dim     int
	Classes int
}

// newDataset allocates an n-sample dataset for a generator to fill. Its rows
// share one block, each capped at dim so that an append to a row reallocates
// instead of writing into the next; an empty dataset keeps nil X and Y.
func newDataset(n, dim, classes int) *Dataset {
	ds := &Dataset{Dim: dim, Classes: classes}
	if n == 0 {
		return ds
	}
	block := make([]float64, n*dim)
	ds.X = make([][]float64, n)
	for i := range ds.X {
		ds.X[i] = block[i*dim : (i+1)*dim : (i+1)*dim]
	}
	ds.Y = make([]int, n)
	return ds
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Validate checks internal consistency (shapes and label ranges).
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return errors.New("data: X/Y length mismatch")
	}
	for i, x := range d.X {
		if len(x) != d.Dim {
			return fmt.Errorf("data: sample %d has dim %d, want %d", i, len(x), d.Dim)
		}
		if d.Y[i] < 0 || d.Y[i] >= d.Classes {
			return fmt.Errorf("data: sample %d has label %d outside [0,%d)", i, d.Y[i], d.Classes)
		}
	}
	return nil
}

// Concat merges several datasets with identical shape metadata.
func Concat(parts []*Dataset) (*Dataset, error) {
	if len(parts) == 0 {
		return nil, errors.New("data: concat of zero datasets")
	}
	out := &Dataset{Dim: parts[0].Dim, Classes: parts[0].Classes}
	for _, p := range parts {
		if p.Dim != out.Dim || p.Classes != out.Classes {
			return nil, errors.New("data: concat shape mismatch")
		}
		out.X = append(out.X, p.X...)
		out.Y = append(out.Y, p.Y...)
	}
	return out, nil
}

// Federated bundles the per-client shards, the pooled train set, a held-out
// test set, and the normalized client weights a_n = d_n / Σ d_m from the
// paper's problem definition (Section III-A).
type Federated struct {
	Clients []*Dataset
	Train   *Dataset
	Test    *Dataset
	Weights []float64
}

// NumClients returns the number of client shards.
func (f *Federated) NumClients() int { return len(f.Clients) }

// ComputeWeights derives the a_n weights from the shard sizes.
func ComputeWeights(clients []*Dataset) ([]float64, error) {
	if len(clients) == 0 {
		return nil, errors.New("data: no clients")
	}
	total := 0
	for _, c := range clients {
		total += c.Len()
	}
	if total == 0 {
		return nil, errors.New("data: all client shards empty")
	}
	w := make([]float64, len(clients))
	for i, c := range clients {
		w[i] = float64(c.Len()) / float64(total)
	}
	return w, nil
}

// ReplicateClients synthesizes an n-client fleet from f's shards without
// materializing per-client training sets: client i of the result shares shard
// i mod S by pointer (S = f's client count), so the data footprint stays
// O(shards) however large the fleet. Clients sharing a shard are still
// distinct devices — the engine gives each its own RNG cursor, so their
// minibatch trajectories differ. Train and Test stay f's de-duplicated pooled
// sets (one copy of each shard), keeping evaluation O(samples), while the
// per-client weights a_n are recomputed over the replicated fleet so they sum
// to one.
func ReplicateClients(f *Federated, n int) (*Federated, error) {
	if f == nil || f.NumClients() == 0 {
		return nil, errors.New("data: replicate of empty federation")
	}
	if n < f.NumClients() {
		return nil, fmt.Errorf("data: cannot replicate %d shards down to %d clients", f.NumClients(), n)
	}
	if n == f.NumClients() {
		return f, nil
	}
	clients := make([]*Dataset, n)
	for i := range clients {
		clients[i] = f.Clients[i%f.NumClients()]
	}
	weights, err := ComputeWeights(clients)
	if err != nil {
		return nil, err
	}
	return &Federated{Clients: clients, Train: f.Train, Test: f.Test, Weights: weights}, nil
}

// assemble builds a Federated from finished shards plus a test set.
func assemble(clients []*Dataset, test *Dataset) (*Federated, error) {
	weights, err := ComputeWeights(clients)
	if err != nil {
		return nil, err
	}
	train, err := Concat(clients)
	if err != nil {
		return nil, err
	}
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("train set: %w", err)
	}
	if err := test.Validate(); err != nil {
		return nil, fmt.Errorf("test set: %w", err)
	}
	return &Federated{Clients: clients, Train: train, Test: test, Weights: weights}, nil
}

// classesForClient picks how many and which classes a client holds, for the
// non-i.i.d. label-restriction schemes ("each device has 1–6 classes").
func classesForClient(r *stats.RNG, totalClasses, minClasses, maxClasses int) []int {
	k := minClasses
	if maxClasses > minClasses {
		k += r.Intn(maxClasses - minClasses + 1)
	}
	if k > totalClasses {
		k = totalClasses
	}
	perm := r.Perm(totalClasses)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}
