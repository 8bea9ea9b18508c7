package model

import (
	"unbiasedfl/internal/data"
	"unbiasedfl/internal/tensor"
)

// Model is the contract the FL engine, the calibration pass, and the TCP
// prototype require of a learning model. Multinomial logistic regression
// satisfies the paper's Assumption 1 (μ-strong convexity and L-smoothness)
// when its regularization is positive.
type Model interface {
	// LocalStepper is the one local-SGD step the engine runs.
	LocalStepper
	// NumParams returns the flattened parameter length.
	NumParams() int
	// ZeroParams returns the w0 = 0 initialization.
	ZeroParams() tensor.Vec
	// Loss evaluates the regularized objective on ds.
	Loss(w tensor.Vec, ds *data.Dataset) (float64, error)
	// Gradient computes the full-batch gradient into grad.
	Gradient(w tensor.Vec, ds *data.Dataset, grad tensor.Vec) error
	// Accuracy returns the classification accuracy of w on ds.
	Accuracy(w tensor.Vec, ds *data.Dataset) (float64, error)
	// EstimateSmoothness upper-bounds the smoothness constant L on ds.
	EstimateSmoothness(ds *data.Dataset) (float64, error)
	// StrongConvexity returns the strong-convexity modulus μ (the L2
	// regularization coefficient).
	StrongConvexity() float64
}

var _ Model = (*LogisticRegression)(nil)

// StrongConvexity implements Model.
func (m *LogisticRegression) StrongConvexity() float64 { return m.Mu }
