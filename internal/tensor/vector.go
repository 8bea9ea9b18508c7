// Package tensor provides the dense linear-algebra substrate for the
// reproduction: float64 vectors and row-major matrices with the operations
// the logistic-regression model and the federated averaging steps need, and
// the module's exponential and logarithm. It is deliberately small,
// allocation-conscious, and stdlib-only.
//
// Its results are the same bits on every amd64 host. The batched kernels
// (kernels.go) and Exp and Log (exp.go) state their per-element operation
// sequences as contracts, and each contract has two tiers that honour it:
// portable Go, which runs everywhere and is the reference, and, where
// HasAVX2 (the module's one CPU probe), assembly whose four lanes each
// perform the same operations on an independent output, never a fused
// multiply-add. Exp and Log exist because math.Exp and math.Log are
// host-dependent assembly — everything in the module that feeds a model, a
// game or a trace calls them instead — and they round every product that
// feeds an addition explicitly, so that no compiler on any platform may fuse
// it. The portable kernels rely on the compiler: Go never fuses on amd64, at
// any GOAMD64 level, but does on arm64.
package tensor

import (
	"errors"
	"math"
)

// Vec is a dense float64 vector. Model parameters, gradients, and model
// deltas all flow through this type.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Zero sets every element to 0 in place.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// CopyFrom copies src into v; the lengths must match.
func (v Vec) CopyFrom(src Vec) error {
	if len(v) != len(src) {
		return errors.New("tensor: length mismatch in CopyFrom")
	}
	copy(v, src)
	return nil
}

// AddScaled performs v += s*u in place (axpy); the lengths must match.
func (v Vec) AddScaled(s float64, u Vec) error {
	if len(v) != len(u) {
		return errors.New("tensor: length mismatch in AddScaled")
	}
	for i := range v {
		v[i] += float64(s * u[i])
	}
	return nil
}

// Scale performs v *= s in place.
func (v Vec) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Dot returns the inner product of v and u; the lengths must match.
func Dot(v, u Vec) (float64, error) {
	if len(v) != len(u) {
		return 0, errors.New("tensor: length mismatch in Dot")
	}
	var s float64
	for i := range v {
		s += float64(v[i] * u[i])
	}
	return s, nil
}

// Norm2 returns the Euclidean norm of v.
func (v Vec) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// SqNorm returns the squared Euclidean norm of v.
func (v Vec) SqNorm() float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
	}
	return s
}

// Sub returns v - u as a new vector; the lengths must match.
func Sub(v, u Vec) (Vec, error) {
	if len(v) != len(u) {
		return nil, errors.New("tensor: length mismatch in Sub")
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - u[i]
	}
	return out, nil
}

// IsFinite reports whether every element is finite (no NaN/Inf). Training
// loops use it as a cheap divergence guard.
func (v Vec) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
