package game

import (
	"fmt"
	"math"
)

// marginalUtility is the Stage-II first-order condition (eq. 13):
// f(q) = P_n + v_n (α/R) a_n²G_n²/q² − 2 c_n q. It is strictly decreasing in
// q on (0, ∞), so the client's utility is strictly concave in q and the best
// response is the unique root clamped to [0, q_max].
func (p *Params) marginalUtility(n int, price, q float64) float64 {
	return price + p.intrinsicGain(n)/(q*q) - 2*p.C[n]*q
}

// BestResponse returns client n's optimal participation level under price
// Pn: the unique maximizer of U_n(q) = P q − c q² + v·(const − bound(q)) on
// [0, QMax].
func (p *Params) BestResponse(n int, price float64) (float64, error) {
	if n < 0 || n >= p.N() {
		return 0, fmt.Errorf("game: client index %d out of range", n)
	}
	return p.bestResponse(n, price), nil
}

// bestResponse is BestResponse for an index known to be in range.
func (p *Params) bestResponse(n int, price float64) float64 {
	k := p.intrinsicGain(n)
	if k == 0 {
		// No intrinsic value: U = Pq − cq², maximized at P/(2c).
		q := price / (2 * p.C[n])
		return clamp(q, 0, p.QMax)
	}
	return positiveRoot(price, k, 2*p.C[n], p.QMax)
}

// positiveRoot solves the Stage-II first-order condition
// price + k/q² − 2cq = 0 (k > 0) on (0, qMax], i.e. the unique positive
// root of the cubic h(q) = 2c q³ − price q² − k. h is increasing and convex
// to the right of its inflection point and the root lies in that region, so
// Newton iteration from qMax decreases monotonically onto the root without
// ever crossing it — guaranteed quadratic convergence in a handful of
// evaluations, replacing the historical ~55-probe bisection on the FL
// pricing hot path (best responses run once per client per scale probe in
// every scaled-pricing and Monte-Carlo calibration loop).
func positiveRoot(price, k, twoC, qMax float64) float64 {
	// f(0+) = +∞ and f is strictly decreasing, so a unique positive root
	// exists. If f(qMax) >= 0 the client saturates at the ceiling.
	if price+k/(qMax*qMax)-twoC*qMax >= 0 {
		return qMax
	}
	q, prev := qMax, math.Inf(1)
	for i := 0; i < 80; i++ {
		h := (twoC*q-price)*q*q - k
		d := q * (3*twoC*q - 2*price)
		next := q - h/d
		// Monotone convergence means a repeated or cycling iterate is the
		// floating-point fixed point.
		if next == q || next == prev {
			break
		}
		prev, q = q, next
	}
	return q
}

// BestResponseAll evaluates every client's best response to a price vector.
func (p *Params) BestResponseAll(prices []float64) ([]float64, error) {
	if len(prices) != p.N() {
		return nil, fmt.Errorf("game: %d prices for %d clients", len(prices), p.N())
	}
	q := make([]float64, p.N())
	for n := range q {
		q[n] = p.bestResponse(n, prices[n])
	}
	return q, nil
}

// PriceFor inverts the best response (eq. 17): the price that makes q the
// client's optimal interior choice, P_n(q) = 2 c_n q − v_n (α/R) a_n²G_n²/q².
func (p *Params) PriceFor(n int, q float64) (float64, error) {
	if n < 0 || n >= p.N() {
		return 0, fmt.Errorf("game: client index %d out of range", n)
	}
	if q <= 0 {
		return 0, fmt.Errorf("game: price undefined at q = %v", q)
	}
	return 2*p.C[n]*q - p.intrinsicGain(n)/(q*q), nil
}

// TotalPayment returns Σ P_n q_n.
func TotalPayment(prices, q []float64) (float64, error) {
	if len(prices) != len(q) {
		return 0, fmt.Errorf("game: %d prices for %d levels", len(prices), len(q))
	}
	var s float64
	for i := range prices {
		s += prices[i] * q[i]
	}
	return s, nil
}

// ClientUtility evaluates U_n at a full profile (prices, q). improvement is
// F(w*_n) − F* for client n (0 if unknown; it shifts utility by a
// scheme-independent constant). The bound term couples every client's
// utility to the whole q vector through the convergence bound.
func (p *Params) ClientUtility(n int, price float64, q []float64, improvement float64) (float64, error) {
	if n < 0 || n >= p.N() {
		return 0, fmt.Errorf("game: client index %d out of range", n)
	}
	bound, err := p.Bound(q)
	if err != nil {
		return 0, err
	}
	return p.clientUtility(n, price, q[n], improvement, bound), nil
}

// clientUtility is U_n given the convergence bound at the profile q_n is
// part of.
func (p *Params) clientUtility(n int, price, qn, improvement, bound float64) float64 {
	return price*qn - p.C[n]*qn*qn + p.V[n]*(improvement-bound)
}

// TotalClientUtility sums ClientUtility over all clients, in index order,
// with improvements (nil means zero for everyone). The bound is the same for
// every client and is evaluated once: the sum is O(N), and equal bit for bit
// to adding up N ClientUtility calls.
func (p *Params) TotalClientUtility(prices, q, improvements []float64) (float64, error) {
	if improvements != nil && len(improvements) != p.N() {
		return 0, fmt.Errorf("game: %d improvements for %d clients", len(improvements), p.N())
	}
	bound, err := p.Bound(q)
	if err != nil {
		return 0, err
	}
	var total float64
	for n := 0; n < p.N(); n++ {
		imp := 0.0
		if improvements != nil {
			imp = improvements[n]
		}
		total += p.clientUtility(n, prices[n], q[n], imp, bound)
	}
	return total, nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// cbrt is a sign-preserving cube root helper.
func cbrt(x float64) float64 { return math.Cbrt(x) }
