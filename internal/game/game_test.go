package game

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"unbiasedfl/internal/stats"
)

// testParams builds a heterogeneous N-client game mirroring the paper's
// Setup 1 scale (B=200, mean c=50, mean v=4000).
func testParams(t *testing.T, seed uint64, n int, meanC, meanV, budget float64) *Params {
	t.Helper()
	r := stats.NewRNG(seed)
	sizes, err := stats.PowerLawSizes(r, n, 20000, 20, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float64, n)
	for i, s := range sizes {
		a[i] = float64(s) / 20000
	}
	g, err := stats.UniformRange(r, n, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	c, err := stats.Exponential(r, n, meanC)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c {
		c[i] += 1 // keep costs strictly positive
	}
	v, err := stats.Exponential(r, n, meanV)
	if err != nil {
		t.Fatal(err)
	}
	// Alpha is calibrated so the intrinsic-value term (α/R)·v·a²G² and the
	// cost term 2c q are comparable, as in the paper's estimated setups.
	return &Params{
		A: a, G: g, C: c, V: v,
		Alpha: 1,
		R:     1000,
		B:     budget,
		QMax:  1,
		QMin:  DefaultQMin,
	}
}

func TestParamsValidate(t *testing.T) {
	p := testParams(t, 1, 5, 50, 4000, 200)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// want is a fragment the error must contain: it names what is wrong.
	cases := map[string]struct {
		mutate func(*Params)
		want   string
	}{
		"no clients":   {func(p *Params) { p.A = nil }, "no clients"},
		"len mismatch": {func(p *Params) { p.G = p.G[:1] }, "lengths differ"},
		"neg a":        {func(p *Params) { p.A[0] = -1 }, "a[0]"},
		"zero g":       {func(p *Params) { p.G[0] = 0 }, "G[0]"},
		"zero c":       {func(p *Params) { p.C[0] = 0 }, "c[0]"},
		"neg v":        {func(p *Params) { p.V[0] = -1 }, "v[0]"},
		"bad alpha":    {func(p *Params) { p.Alpha = 0 }, "alpha"},
		"neg beta":     {func(p *Params) { p.Beta = -1 }, "beta"},
		"bad R":        {func(p *Params) { p.R = 0 }, "R must"},
		"bad qmax":     {func(p *Params) { p.QMax = 1.5 }, "qmax"},
		"bad qmin":     {func(p *Params) { p.QMin = 0 }, "qmin"},
		"qmin>=qmax":   {func(p *Params) { p.QMin = p.QMax }, "qmin"},
		"a not normed": {func(p *Params) { p.A[0] += 0.5 }, "sum to"},
		"NaN a":        {func(p *Params) { p.A[1] = math.NaN() }, "client 1 has a non-finite"},
		"Inf a":        {func(p *Params) { p.A[1] = math.Inf(1) }, "client 1 has a non-finite"},
		"NaN g":        {func(p *Params) { p.G[0] = math.NaN() }, "client 0 has a non-finite"},
		"Inf g":        {func(p *Params) { p.G[0] = math.Inf(1) }, "client 0 has a non-finite"},
		"NaN c":        {func(p *Params) { p.C[2] = math.NaN() }, "client 2 has a non-finite"},
		"Inf c":        {func(p *Params) { p.C[2] = math.Inf(1) }, "client 2 has a non-finite"},
		"NaN v":        {func(p *Params) { p.V[0] = math.NaN() }, "client 0 has a non-finite"},
		"Inf v":        {func(p *Params) { p.V[0] = math.Inf(1) }, "client 0 has a non-finite"},
		"NaN alpha":    {func(p *Params) { p.Alpha = math.NaN() }, "alpha = NaN is not finite"},
		"Inf alpha":    {func(p *Params) { p.Alpha = math.Inf(1) }, "alpha = +Inf is not finite"},
		"NaN beta":     {func(p *Params) { p.Beta = math.NaN() }, "beta = NaN is not finite"},
		"Inf beta":     {func(p *Params) { p.Beta = math.Inf(1) }, "beta = +Inf is not finite"},
		"NaN R":        {func(p *Params) { p.R = math.NaN() }, "R = NaN is not finite"},
		"Inf R":        {func(p *Params) { p.R = math.Inf(1) }, "R = +Inf is not finite"},
		"NaN budget":   {func(p *Params) { p.B = math.NaN() }, "budget B = NaN is not finite"},
		"+Inf budget":  {func(p *Params) { p.B = math.Inf(1) }, "budget B = +Inf is not finite"},
		"-Inf budget":  {func(p *Params) { p.B = math.Inf(-1) }, "budget B = -Inf is not finite"},
		"NaN qmax":     {func(p *Params) { p.QMax = math.NaN() }, "qmax = NaN is not finite"},
		"NaN qmin":     {func(p *Params) { p.QMin = math.NaN() }, "qmin = NaN is not finite"},
		"-Inf qmin":    {func(p *Params) { p.QMin = math.Inf(-1) }, "qmin = -Inf is not finite"},
	}
	for name, tc := range cases {
		bad := p.Clone()
		tc.mutate(bad)
		err := bad.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got error %v, want one containing %q", name, err, tc.want)
		}
	}
	// The budget carries no sign rule: payments can be negative (Table V),
	// so whether a budget of zero or less is feasible is the solver's call.
	for _, b := range []float64{0, -5} {
		ok := p.Clone()
		ok.B = b
		if err := ok.Validate(); err != nil {
			t.Fatalf("budget %v: %v", b, err)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	p := testParams(t, 2, 4, 50, 4000, 200)
	c := p.Clone()
	c.V[0] = 12345
	c.B = 9
	if p.V[0] == 12345 || p.B == 9 {
		t.Fatal("clone shares state")
	}
}

func TestBoundMonotoneDecreasingInQ(t *testing.T) {
	p := testParams(t, 3, 6, 50, 4000, 200)
	q1 := make([]float64, p.N())
	q2 := make([]float64, p.N())
	for i := range q1 {
		q1[i] = 0.3
		q2[i] = 0.6
	}
	b1, err := p.Bound(q1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := p.Bound(q2)
	if err != nil {
		t.Fatal(err)
	}
	if b2 >= b1 {
		t.Fatalf("bound not decreasing in q: %v -> %v", b1, b2)
	}
}

func TestBoundZeroAtFullParticipation(t *testing.T) {
	p := testParams(t, 4, 5, 50, 4000, 200)
	q := make([]float64, p.N())
	for i := range q {
		q[i] = 1
	}
	v, err := p.VarianceTerm(q)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("variance term at q=1 is %v, want 0", v)
	}
	b, err := p.Bound(q)
	if err != nil {
		t.Fatal(err)
	}
	if b != p.Beta/p.R {
		t.Fatalf("bound at q=1 is %v, want beta/R", b)
	}
}

func TestBoundErrors(t *testing.T) {
	p := testParams(t, 5, 3, 50, 4000, 200)
	if _, err := p.Bound([]float64{0.5}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := p.Bound([]float64{0, 0.5, 0.5}); err == nil {
		t.Fatal("expected q=0 error")
	}
	if _, err := p.Bound([]float64{1.5, 0.5, 0.5}); err == nil {
		t.Fatal("expected q>1 error")
	}
}

func TestComputeBeta(t *testing.T) {
	in := BetaInputs{
		SigmaSq:   []float64{1, 2},
		A:         []float64{0.5, 0.5},
		G:         []float64{3, 4},
		L:         10,
		Mu:        0.5,
		E:         5,
		Gamma:     0.2,
		InitDist2: 1.5,
	}
	got, err := ComputeBeta(in)
	if err != nil {
		t.Fatal(err)
	}
	a0 := 0.25*1 + 0.25*2 + 8*(0.5*9+0.5*16)*16
	want := 2*10/(0.25*5)*a0 + 12*100/(0.25*5)*0.2 + 4*100/(0.5*5)*1.5
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("beta %v want %v", got, want)
	}
	bad := in
	bad.SigmaSq = []float64{1}
	if _, err := ComputeBeta(bad); err == nil {
		t.Fatal("expected length error")
	}
	bad = in
	bad.L = 0
	if _, err := ComputeBeta(bad); err == nil {
		t.Fatal("expected L error")
	}
	bad = in
	bad.SigmaSq = []float64{1, -1}
	if _, err := ComputeBeta(bad); err == nil {
		t.Fatal("expected negative sigma error")
	}
}

func TestRoundsToGap(t *testing.T) {
	p := testParams(t, 6, 4, 50, 4000, 200)
	q := []float64{0.5, 0.5, 0.5, 0.5}
	inf, err := p.RoundsToGap(q, 0)
	if err != nil || !math.IsInf(inf, 1) {
		t.Fatalf("RoundsToGap(0) = %v, %v", inf, err)
	}
	r1, err := p.RoundsToGap(q, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.RoundsToGap(q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if r1 <= r2 {
		t.Fatal("tighter gap should need more rounds")
	}
}

func TestBestResponseFirstOrderCondition(t *testing.T) {
	p := testParams(t, 7, 6, 50, 4000, 200)
	for n := 0; n < p.N(); n++ {
		for _, price := range []float64{-20, 0, 10, 100} {
			q, err := p.BestResponse(n, price)
			if err != nil {
				t.Fatal(err)
			}
			if q < 0 || q > p.QMax {
				t.Fatalf("client %d: q=%v outside box", n, q)
			}
			if q > 0 && q < p.QMax {
				// Interior: FOC must hold.
				if f := p.marginalUtility(n, price, q); math.Abs(f) > 1e-6*(1+math.Abs(price)) {
					t.Fatalf("client %d price %v: FOC residual %v at q=%v", n, price, f, q)
				}
			}
		}
	}
}

func TestBestResponseMonotoneInPrice(t *testing.T) {
	p := testParams(t, 8, 5, 50, 4000, 200)
	for n := 0; n < p.N(); n++ {
		prev := -1.0
		for _, price := range []float64{-50, -10, 0, 5, 20, 80, 320} {
			q, err := p.BestResponse(n, price)
			if err != nil {
				t.Fatal(err)
			}
			if q < prev-1e-12 {
				t.Fatalf("client %d: best response not monotone in price", n)
			}
			prev = q
		}
	}
}

func TestBestResponseNoIntrinsicValue(t *testing.T) {
	p := testParams(t, 9, 3, 50, 0, 200)
	for i := range p.V {
		p.V[i] = 0
	}
	q, err := p.BestResponse(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := clamp(10/(2*p.C[0]), 0, 1)
	if math.Abs(q-want) > 1e-12 {
		t.Fatalf("q=%v want %v", q, want)
	}
	qz, err := p.BestResponse(0, -5)
	if err != nil {
		t.Fatal(err)
	}
	if qz != 0 {
		t.Fatalf("negative price with no intrinsic value should give q=0, got %v", qz)
	}
}

func TestPriceForInvertsBestResponse(t *testing.T) {
	p := testParams(t, 10, 6, 50, 4000, 200)
	for n := 0; n < p.N(); n++ {
		for _, q := range []float64{0.05, 0.3, 0.7, 0.99} {
			price, err := p.PriceFor(n, q)
			if err != nil {
				t.Fatal(err)
			}
			back, err := p.BestResponse(n, price)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(back-q) > 1e-8 {
				t.Fatalf("client %d: PriceFor(%v) -> BestResponse %v", n, q, back)
			}
		}
	}
	if _, err := p.PriceFor(0, 0); err == nil {
		t.Fatal("expected error at q=0")
	}
	if _, err := p.PriceFor(-1, 0.5); err == nil {
		t.Fatal("expected index error")
	}
}

func TestSolveKKTBudgetTight(t *testing.T) {
	p := testParams(t, 11, 20, 50, 4000, 200)
	eq, err := p.SolveKKT()
	if err != nil {
		t.Fatal(err)
	}
	if !eq.BudgetTight {
		t.Fatal("expected binding budget at Setup-1 scale")
	}
	if err := p.VerifyLemma3(eq, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckConsistency(eq, 1e-6); err != nil {
		t.Fatal(err)
	}
	for n, q := range eq.Q {
		if q < p.QMin-1e-15 || q > p.QMax+1e-15 {
			t.Fatalf("q[%d]=%v outside box", n, q)
		}
	}
}

func TestSolveKKTBudgetSlack(t *testing.T) {
	p := testParams(t, 12, 5, 1, 4000, 1e12)
	eq, err := p.SolveKKT()
	if err != nil {
		t.Fatal(err)
	}
	if eq.BudgetTight {
		t.Fatal("expected slack budget")
	}
	for n, q := range eq.Q {
		if math.Abs(q-p.QMax) > 1e-12 {
			t.Fatalf("client %d: q=%v, want qmax under unlimited budget", n, q)
		}
	}
	if !math.IsInf(eq.Vt(), 1) {
		t.Fatal("slack budget should have infinite threshold")
	}
}

func TestSolveKKTTheorem2(t *testing.T) {
	p := testParams(t, 13, 25, 50, 4000, 200)
	eq, err := p.SolveKKT()
	if err != nil {
		t.Fatal(err)
	}
	interior, err := p.VerifyTheorem2(eq, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if interior < 2 {
		t.Skipf("only %d interior clients; invariant vacuous", interior)
	}
	// The shared invariant must equal 1/lambda.
	inv := p.Theorem2Invariant(eq)
	for n := range inv {
		if !p.Interior(eq, n, 1e-9) {
			continue
		}
		if math.Abs(inv[n]-1/eq.Lambda) > 1e-6/eq.Lambda {
			t.Fatalf("invariant %v != 1/lambda %v", inv[n], 1/eq.Lambda)
		}
	}
}

func TestSolveKKTTheorem3AndEq18(t *testing.T) {
	p := testParams(t, 14, 25, 50, 2000, 40) // spread-out intrinsic values, tight budget
	eq, err := p.SolveKKT()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyTheorem3(eq); err != nil {
		t.Fatal(err)
	}
	// Interior prices must match the closed form of eq. 18.
	for n := range eq.P {
		if !p.Interior(eq, n, 1e-9) {
			continue
		}
		closed, err := p.PriceEq18(n, eq.Lambda)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(closed-eq.P[n]) > 1e-6*math.Max(1, math.Abs(eq.P[n])) {
			t.Fatalf("client %d: eq18 price %v vs solver price %v", n, closed, eq.P[n])
		}
	}
}

func TestNegativePaymentsIncreaseWithV(t *testing.T) {
	// Table V's behaviour: more intrinsic value, more clients paying the
	// server.
	base := testParams(t, 15, 30, 50, 0, 200)
	counts := make([]int, 0, 3)
	for _, meanV := range []float64{0, 4000, 80000} {
		p := base.Clone()
		r := stats.NewRNG(77)
		v, err := stats.Exponential(r, p.N(), meanV)
		if err != nil {
			t.Fatal(err)
		}
		p.V = v
		eq, err := p.SolveKKT()
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, eq.NegativePayments())
	}
	if counts[0] != 0 {
		t.Fatalf("v=0 produced %d negative payments", counts[0])
	}
	if counts[2] < counts[1] {
		t.Fatalf("negative payments not increasing with v: %v", counts)
	}
	if counts[2] == 0 {
		t.Fatal("very high v should create at least one negative payment")
	}
}

func TestProposition1MonotoneInBudget(t *testing.T) {
	p := testParams(t, 16, 15, 50, 4000, 100)
	eqLow, err := p.SolveKKT()
	if err != nil {
		t.Fatal(err)
	}
	ph := p.Clone()
	ph.B = 400
	eqHigh, err := ph.SolveKKT()
	if err != nil {
		t.Fatal(err)
	}
	for n := range eqLow.Q {
		if eqHigh.Q[n] < eqLow.Q[n]-1e-9 {
			t.Fatalf("client %d: q decreased with budget (%v -> %v)",
				n, eqLow.Q[n], eqHigh.Q[n])
		}
	}
	objLow, _ := p.ServerObjective(eqLow.Q)
	objHigh, _ := ph.ServerObjective(eqHigh.Q)
	if objHigh > objLow+1e-12 {
		t.Fatalf("server objective worsened with budget: %v -> %v", objLow, objHigh)
	}
}

func TestTheorem2ComparativeStatics(t *testing.T) {
	// Clients identical except one parameter; check the predicted ordering.
	base := &Params{
		A:     []float64{0.5, 0.5},
		G:     []float64{10, 10},
		C:     []float64{50, 50},
		V:     []float64{1000, 1000},
		Alpha: 0.5, R: 1000, B: 50, QMax: 1, QMin: DefaultQMin,
	}

	t.Run("larger aG participates more", func(t *testing.T) {
		p := base.Clone()
		p.G = []float64{10, 20}
		eq, err := p.SolveKKT()
		if err != nil {
			t.Fatal(err)
		}
		if eq.Q[1] <= eq.Q[0] {
			t.Fatalf("larger G should yield larger q: %v", eq.Q)
		}
	})
	t.Run("larger c participates less", func(t *testing.T) {
		p := base.Clone()
		p.C = []float64{50, 200}
		eq, err := p.SolveKKT()
		if err != nil {
			t.Fatal(err)
		}
		if eq.Q[1] >= eq.Q[0] {
			t.Fatalf("larger c should yield smaller q: %v", eq.Q)
		}
	})
	t.Run("larger v participates less", func(t *testing.T) {
		p := base.Clone()
		p.V = []float64{1000, 3000}
		eq, err := p.SolveKKT()
		if err != nil {
			t.Fatal(err)
		}
		if eq.Q[1] >= eq.Q[0] {
			t.Fatalf("larger v should yield smaller q: %v", eq.Q)
		}
	})
	t.Run("larger c gets higher price", func(t *testing.T) {
		p := base.Clone()
		p.C = []float64{50, 200}
		eq, err := p.SolveKKT()
		if err != nil {
			t.Fatal(err)
		}
		if !p.Interior(eq, 0, 1e-9) || !p.Interior(eq, 1, 1e-9) {
			t.Skip("boundary solution; statics apply to interior clients")
		}
		if eq.P[1] <= eq.P[0] {
			t.Fatalf("larger c should get higher price (Theorem 3): %v", eq.P)
		}
	})
}

func TestSolveMSearchMatchesKKT(t *testing.T) {
	p := testParams(t, 17, 8, 50, 4000, 150)
	kkt, err := p.SolveKKT()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := p.SolveMSearch(DefaultMSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ms.ServerObj < kkt.ServerObj*(1-1e-9) {
		t.Fatalf("M-search beat the exact KKT optimum: %v < %v", ms.ServerObj, kkt.ServerObj)
	}
	if ms.ServerObj > kkt.ServerObj*1.10 {
		t.Fatalf("M-search objective %v too far above KKT %v", ms.ServerObj, kkt.ServerObj)
	}
	if _, err := p.SolveMSearch(MSearchOptions{}); err == nil {
		t.Fatal("expected error for invalid options")
	}
}

// priceBy prices p under the named registered scheme.
func priceBy(t *testing.T, p *Params, name string) *Outcome {
	t.Helper()
	ps, err := SchemeByName(name)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ps.Price(p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSchemeOrdering(t *testing.T) {
	// The proposed scheme must dominate both baselines on the server
	// objective under the same budget (the headline comparison of Fig. 4).
	p := testParams(t, 18, 30, 50, 4000, 200)
	opt := priceBy(t, p, SchemeNameProposed)
	uni := priceBy(t, p, SchemeNameUniform)
	wtd := priceBy(t, p, SchemeNameWeighted)
	if opt.ServerObj > uni.ServerObj+1e-9 {
		t.Fatalf("optimal %v worse than uniform %v", opt.ServerObj, uni.ServerObj)
	}
	if opt.ServerObj > wtd.ServerObj+1e-9 {
		t.Fatalf("optimal %v worse than weighted %v", opt.ServerObj, wtd.ServerObj)
	}
	for _, o := range []*Outcome{opt, uni, wtd} {
		if o.Spent > p.B*(1+1e-6) {
			t.Fatalf("%v overspent: %v > %v", o.Name, o.Spent, p.B)
		}
	}
}

// TestSchemeString pins the built-ins' registry names to their literal
// spellings: command-line flags, checkpoint file names and the per-scheme
// training seeds are all derived from them.
func TestSchemeString(t *testing.T) {
	if SchemeNameProposed != "proposed" ||
		SchemeNameUniform != "uniform" ||
		SchemeNameWeighted != "weighted" {
		t.Fatal("scheme names wrong")
	}
}

func TestClientUtilityHigherUnderOptimal(t *testing.T) {
	// Table IV's behaviour: total client utility under the proposed pricing
	// exceeds the baselines.
	p := testParams(t, 19, 30, 50, 4000, 200)
	opt := priceBy(t, p, SchemeNameProposed)
	uni := priceBy(t, p, SchemeNameUniform)
	uOpt, err := p.TotalClientUtility(opt.P, opt.Q, nil)
	if err != nil {
		t.Fatal(err)
	}
	uUni, err := p.TotalClientUtility(uni.P, uni.Q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if uOpt <= uUni {
		t.Fatalf("optimal total utility %v not above uniform %v", uOpt, uUni)
	}
}

// TestTotalClientUtilityIsTheSumOfClientUtilities: evaluating the bound once
// must not move a bit of the total — it is Σ ClientUtility in index order,
// with and without improvements.
func TestTotalClientUtilityIsTheSumOfClientUtilities(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		p := testParams(t, seed, 5+int(seed)*37, 50, 4000, 200)
		out := priceBy(t, p, SchemeNameProposed)
		r := stats.NewRNG(seed)
		imps := make([]float64, p.N())
		for i := range imps {
			imps[i] = r.Float64()
		}
		for _, improvements := range [][]float64{nil, imps} {
			var want float64
			for n := 0; n < p.N(); n++ {
				imp := 0.0
				if improvements != nil {
					imp = improvements[n]
				}
				u, err := p.ClientUtility(n, out.P[n], out.Q, imp)
				if err != nil {
					t.Fatal(err)
				}
				want += u
			}
			got, err := p.TotalClientUtility(out.P, out.Q, improvements)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d, improvements %v: total %v (%#x), Σ ClientUtility %v (%#x)",
					seed, improvements != nil, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		if _, err := p.TotalClientUtility(out.P, out.Q[:p.N()-1], nil); err == nil {
			t.Fatal("expected the bound's q-length error")
		}
	}
}

func TestUtilityErrors(t *testing.T) {
	p := testParams(t, 20, 3, 50, 4000, 200)
	q := []float64{0.5, 0.5, 0.5}
	if _, err := p.ClientUtility(9, 1, q, 0); err == nil {
		t.Fatal("expected index error")
	}
	if _, err := p.TotalClientUtility([]float64{1, 1, 1}, q, []float64{1}); err == nil {
		t.Fatal("expected improvements length error")
	}
	if _, err := TotalPayment([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := p.BestResponseAll([]float64{1}); err == nil {
		t.Fatal("expected price-count error")
	}
	if _, err := p.BestResponse(-1, 0); err == nil {
		t.Fatal("expected index error")
	}
	if _, err := p.PriceEq18(0, 0); err == nil {
		t.Fatal("expected lambda error")
	}
	if _, err := p.PriceEq18(-1, 1); err == nil {
		t.Fatal("expected index error")
	}
}

// TestStackelbergNoDeviation verifies Definition 1 directly: at the solved
// SE, no client can raise its utility by unilaterally deviating from q*_n
// (grid of deviations across the feasible box, all other clients held at
// equilibrium).
func TestStackelbergNoDeviation(t *testing.T) {
	p := testParams(t, 71, 12, 50, 4000, 200)
	eq, err := p.SolveKKT()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < p.N(); n++ {
		base, err := p.ClientUtility(n, eq.P[n], eq.Q, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, dev := range []float64{p.QMin, 0.1, 0.25, 0.5, 0.75, 0.9, p.QMax} {
			if dev == eq.Q[n] {
				continue
			}
			qDev := append([]float64(nil), eq.Q...)
			qDev[n] = dev
			u, err := p.ClientUtility(n, eq.P[n], qDev, 0)
			if err != nil {
				t.Fatal(err)
			}
			if u > base+1e-7*(1+math.Abs(base)) {
				t.Fatalf("client %d profits by deviating from q*=%v to %v: %v > %v",
					n, eq.Q[n], dev, u, base)
			}
		}
	}
}

func TestCheckConsistencyDetectsTampering(t *testing.T) {
	p := testParams(t, 21, 6, 50, 4000, 200)
	eq, err := p.SolveKKT()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckConsistency(nil, 1e-9); err == nil {
		t.Fatal("expected nil equilibrium error")
	}
	tampered := *eq
	tampered.Q = append([]float64(nil), eq.Q...)
	tampered.Q[0] = clamp(tampered.Q[0]+0.2, p.QMin, p.QMax-0.01)
	if err := p.CheckConsistency(&tampered, 1e-9); err == nil {
		t.Fatal("expected consistency failure for tampered q")
	}
}

func TestQuickKKTAlwaysConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 3 + int(seed%8)
		a := make([]float64, n)
		var asum float64
		for i := range a {
			a[i] = 0.1 + r.Float64()
			asum += a[i]
		}
		for i := range a {
			a[i] /= asum
		}
		g, _ := stats.UniformRange(r, n, 1, 50)
		c, _ := stats.UniformRange(r, n, 1, 100)
		v, _ := stats.UniformRange(r, n, 0, 5000)
		p := &Params{
			A: a, G: g, C: c, V: v,
			Alpha: 10, R: 1000,
			B:    10 + 500*r.Float64(),
			QMax: 1, QMin: DefaultQMin,
		}
		eq, err := p.SolveKKT()
		if err != nil {
			return false
		}
		if err := p.CheckConsistency(eq, 1e-5); err != nil {
			return false
		}
		return p.VerifyTheorem3(eq) == nil && p.VerifyLemma3(eq, 1e-4) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
