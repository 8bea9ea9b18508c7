// Package stats provides the deterministic randomness and statistics
// substrate used throughout the reproduction: a seedable, splittable PRNG,
// the distributions the paper's experiments draw from (exponential local
// costs and intrinsic values, power-law data sizes), streaming summary
// statistics for averaging repeated runs, and ParallelFor, the repository's
// one index fan-out. Full-set evaluation, batch game solves, the Bayesian
// design, the retrained sweeps and data generation all run on it: each
// caller owns one index's result, so results do not depend on the worker
// count, and every caller gets the same error rule (the first failure stops
// new claims and cancels the in-flight calls' ctx; the lowest-index error
// that is not context.Canceled is returned).
//
// Everything in this package is pure computation with no global state, so
// every experiment in the repository is reproducible bit-for-bit from a seed.
package stats

import (
	"errors"
	"math"

	"unbiasedfl/internal/tensor"
)

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256** with a SplitMix64 seeding routine. It is self-contained so
// results do not depend on the Go runtime's math/rand implementation details
// across versions.
//
// RNG is not safe for concurrent use; use Split to derive independent
// generators for concurrent clients.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from a single 64-bit seed.
func NewRNG(seed uint64) *RNG { return &RNG{s: seedState(seed)} }

// seedState is NewRNG's state for seed: four SplitMix64 outputs.
func seedState(seed uint64) (s [4]uint64) {
	sm := seed
	for i := range s {
		sm = splitMix64Next(sm)
		s[i] = sm
	}
	// xoshiro must not start in the all-zero state.
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9E3779B97F4A7C15
	}
	return s
}

func splitMix64Next(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	var x uint64
	x, r.s[0], r.s[1], r.s[2], r.s[3] = xoshiro(r.s[0], r.s[1], r.s[2], r.s[3])
	return x
}

// xoshiro is one xoshiro256** step on the state words s0…s3: it returns the
// output and the next state.
func xoshiro(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	x = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return x, s0, s1, s2, rotl(s3, 45)
}

// Split derives an independent child generator. The child's stream is
// decorrelated from the parent's continued stream, which lets concurrent
// clients own private generators while the whole run stays reproducible.
func (r *RNG) Split() *RNG { return &RNG{s: r.SplitState()} }

// SplitState advances r exactly as Split does and returns the child's state
// without allocating the child, for a caller that keeps states, not
// generators: Split().State() in one step.
func (r *RNG) SplitState() [4]uint64 { return seedState(r.Uint64() ^ 0xA5A5A5A55A5A5A5A) }

// State exposes the generator's internal cursor — the full xoshiro256**
// word vector — so a checkpoint can persist a stream mid-flight and
// RestoreRNG can resume it bit-exactly.
func (r *RNG) State() [4]uint64 { return r.s }

// RestoreRNG reconstructs a generator at a cursor previously captured with
// State. The all-zero vector is not a reachable xoshiro state, so it is
// rejected rather than silently producing a degenerate stream.
func RestoreRNG(state [4]uint64) (*RNG, error) {
	var r RNG
	if err := r.Restore(state); err != nil {
		return nil, err
	}
	return &r, nil
}

// Restore repositions r in place at a cursor previously captured with State
// — RestoreRNG without the allocation, for a caller that restores one
// generator per client per round. A rejected state leaves r untouched.
func (r *RNG) Restore(state [4]uint64) error {
	if state[0]|state[1]|state[2]|state[3] == 0 {
		return errors.New("stats: all-zero RNG state")
	}
	r.s = state
	return nil
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return unit(r.Uint64()) }

// unit maps 64 random bits to Float64's uniform value in [0, 1).
func unit(x uint64) float64 { return float64(float64(x>>11) / (1 << 53)) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers validate n at the boundary.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be faster; for
	// our workloads simple modulo with rejection is sufficient and unbiased.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return float64(u * math.Sqrt(-2*tensor.Log(s)/s))
		}
	}
}

// normChunk is how many variates NormFloat64s walks before it transforms
// them: its stack buffer of s values.
const normChunk = 64

// NormFloat64s fills dst with the values len(dst) successive NormFloat64
// calls would return, bit for bit, and leaves r where those calls would. It
// works in chunks of up to normChunk values, in two passes: a walk of the
// stream that keeps each accepted pair's u and s = u² + v² and skips the
// rejected pairs, as NormFloat64 does, then tensor.PolarScale's transform
// u·√(−2·Log(s)/s) of the whole chunk, which runs four values at a time on
// an AVX2 host.
func (r *RNG) NormFloat64s(dst []float64) {
	var s [normChunk]float64
	for len(dst) > 0 {
		n := min(len(dst), normChunk)
		r.polarPairs(dst[:n], s[:n])
		// The lengths match, so there is no error.
		_ = tensor.PolarScale(dst[:n], s[:n])
		dst = dst[n:]
	}
}

// polarPairs is NormFloat64s's walk: it draws accepted polar pairs until u
// and s hold one each, with the state words in locals.
func (r *RNG) polarPairs(u, s []float64) {
	s = s[:len(u)]
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := 0; i < len(u); {
		var a, b uint64
		a, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		b, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		x := float64(2*unit(a)) - 1
		y := float64(2*unit(b)) - 1
		if sq := float64(x*x) + float64(y*y); sq > 0 && sq < 1 {
			u[i], s[i] = x, sq
			i++
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	// Inverse CDF; guard against log(0).
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -tensor.Log(1 - u)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
