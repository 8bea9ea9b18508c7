package testutil

import "math"

// UpdateSpecials are the edge values an element-wise update kernel is held
// to: signed zeros, infinities, subnormals, the extremes, and NaNs of four
// payloads — quiet, negative, signalling, and a quiet one with a longer
// payload — so that wherever an operation meets two NaNs, the result's bits
// tell which operand it came from.
var UpdateSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1040,
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
	math.NaN(),
	math.Float64frombits(0xfff8_0000_0000_0002),
	math.Float64frombits(0x7ff0_0000_0000_0003),
	math.Float64frombits(0x7ff8_dead_beef_0004),
}

// UpdateSizes are the parameter counts an update kernel is held to on
// UpdateOperands: around a four-lane block, and the three setups' models
// (610, 650 and 1 690 parameters).
var UpdateSizes = []int{1, 3, 4, 5, 7, 610, 650, 1690}

// UpdateOperands returns the parameters w and the gradient g of an update
// over p elements, each carved with guard (see Carve; g ends where its
// backing array does). Two of every three elements hold an ordered pair of
// UpdateSpecials, stepping through all of them as the index grows; the third
// holds finite values of either sign and magnitude 2^-12 … 2^12 drawn from
// seed.
func UpdateOperands(p int, seed uint64, guard float64) (w, g []float64, cw, cg Carved[float64]) {
	w, cw = Carve(p, false, guard)
	g, cg = Carve(p, true, guard)
	k := len(UpdateSpecials)
	s := seed
	finite := func() float64 {
		// splitmix64: a fresh stream per seed, no package state.
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		v := math.Ldexp(1+float64(z>>12)/(1<<52), int(z>>1%25)-12)
		if z&1 == 1 {
			v = -v
		}
		return v
	}
	for j := range w {
		if j%3 == 2 {
			w[j], g[j] = finite(), finite()
			continue
		}
		pair := (j/3*2 + j%3 + int(seed%uint64(k*k))) % (k * k)
		w[j], g[j] = UpdateSpecials[pair%k], UpdateSpecials[pair/k]
	}
	return w, g, cw, cg
}
