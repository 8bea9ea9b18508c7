//go:build !amd64

package model

import "testing"

// declineVector is a no-op off amd64: the portable tier is all there is.
func declineVector(testing.TB) {}
