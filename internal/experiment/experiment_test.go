package experiment

import (
	"context"
	"math"
	"strings"
	"testing"

	"unbiasedfl/internal/game"
)

// tinyOptions keeps integration tests fast.
func tinyOptions() Options {
	return Options{
		NumClients:   6,
		TotalSamples: 720,
		Rounds:       40,
		LocalSteps:   5,
		BatchSize:    16,
		EvalEvery:    5,
		Calibration:  2,
		Seed:         3,
		Runs:         2,
	}
}

func TestTableI(t *testing.T) {
	b, c, v, err := TableI(Setup1)
	if err != nil || b != 200 || c != 50 || v != 4000 {
		t.Fatalf("setup1: %v %v %v %v", b, c, v, err)
	}
	b, c, v, err = TableI(Setup2)
	if err != nil || b != 40 || c != 20 || v != 30000 {
		t.Fatalf("setup2: %v %v %v %v", b, c, v, err)
	}
	b, c, v, err = TableI(Setup3)
	if err != nil || b != 500 || c != 80 || v != 10000 {
		t.Fatalf("setup3: %v %v %v %v", b, c, v, err)
	}
	if _, _, _, err := TableI(SetupID(9)); err == nil {
		t.Fatal("expected error for unknown setup")
	}
}

func TestSetupString(t *testing.T) {
	for _, id := range []SetupID{Setup1, Setup2, Setup3, SetupID(9)} {
		if id.String() == "" {
			t.Fatal("empty setup name")
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().validate(); err != nil {
		t.Fatal(err)
	}
	if err := PaperOptions().validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.NumClients = 1
	if err := bad.validate(); err == nil {
		t.Fatal("expected error for one client")
	}
	bad = DefaultOptions()
	bad.Runs = 0
	if err := bad.validate(); err == nil {
		t.Fatal("expected error for zero runs")
	}
	bad = DefaultOptions()
	bad.Calibration = 0
	if err := bad.validate(); err == nil {
		t.Fatal("expected error for zero calibration")
	}
}

func TestBuildSetupAllThree(t *testing.T) {
	for _, id := range []SetupID{Setup1, Setup2, Setup3} {
		env, err := BuildSetup(context.Background(), id, tinyOptions())
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if env.Fed.NumClients() != 6 {
			t.Fatalf("%v: clients %d", id, env.Fed.NumClients())
		}
		if err := env.Params.Validate(); err != nil {
			t.Fatalf("%v params: %v", id, err)
		}
		if env.Cal.Alpha <= 0 || env.Params.Alpha <= 0 {
			t.Fatalf("%v: non-positive alpha", id)
		}
		if len(env.Timing.Clients) != 6 {
			t.Fatalf("%v: timing fleet %d", id, len(env.Timing.Clients))
		}
		// The calibrated alpha must put intrinsic marginals on the cost
		// scale: (alpha/R)·v̄·meanD ≈ c̄.
		var meanD float64
		for i := 0; i < env.Params.N(); i++ {
			meanD += env.Params.DataQuality(i) / float64(env.Params.N())
		}
		got := env.Params.Alpha / env.Params.R * env.MeanV * meanD
		if got < env.MeanC*0.2 || got > env.MeanC*5 {
			t.Fatalf("%v: intrinsic scale %v far from mean cost %v", id, got, env.MeanC)
		}
	}
	if _, err := BuildSetup(context.Background(), SetupID(9), tinyOptions()); err == nil {
		t.Fatal("expected error for unknown setup")
	}
	bad := tinyOptions()
	bad.Rounds = 0
	if _, err := BuildSetup(context.Background(), Setup1, bad); err == nil {
		t.Fatal("expected options error")
	}
}

func TestBuildSetupDeterministic(t *testing.T) {
	a, err := BuildSetup(context.Background(), Setup1, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSetup(context.Background(), Setup1, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Params.C {
		if a.Params.C[i] != b.Params.C[i] || a.Params.V[i] != b.Params.V[i] {
			t.Fatal("economic draws differ across identical seeds")
		}
		if a.Params.G[i] != b.Params.G[i] {
			t.Fatal("calibrated G differs across identical seeds")
		}
	}
}

func TestRunSchemeAndCompare(t *testing.T) {
	env, err := BuildSetup(context.Background(), Setup1, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(context.Background(), env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Schemes) != 3 {
		t.Fatalf("schemes %d", len(cmp.Schemes))
	}
	var opt, uni *SchemeRun
	for _, s := range cmp.Schemes {
		if len(s.Points) == 0 {
			t.Fatalf("%v: no points", s.Scheme)
		}
		if s.Outcome.Spent > env.Params.B*(1+1e-6) {
			t.Fatalf("%v overspent", s.Scheme)
		}
		switch s.Scheme {
		case game.SchemeNameProposed:
			opt = s
		case game.SchemeNameUniform:
			uni = s
		}
	}
	if opt == nil || uni == nil {
		t.Fatal("missing schemes")
	}
	// The proposed scheme must attain a no-worse convergence bound.
	if opt.Outcome.ServerObj > uni.Outcome.ServerObj+1e-9 {
		t.Fatalf("optimal bound %v worse than uniform %v",
			opt.Outcome.ServerObj, uni.Outcome.ServerObj)
	}

	// Adaptive targets are reached by every scheme.
	for _, tt := range cmp.TimesToLoss(cmp.AdaptiveLossTarget()) {
		if !tt.OK {
			t.Fatalf("%v never reached adaptive loss target", tt.Scheme)
		}
	}
	for _, tt := range cmp.TimesToAccuracy(cmp.AdaptiveAccuracyTarget()) {
		if !tt.OK {
			t.Fatalf("%v never reached adaptive accuracy target", tt.Scheme)
		}
	}
	overU, overW, err := cmp.UtilityGains()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(overU) || math.IsNaN(overW) {
		t.Fatal("NaN utility gains")
	}
	// Table IV's sign: the proposed pricing yields higher client utility.
	if overU <= 0 {
		t.Fatalf("utility gain over uniform %v not positive", overU)
	}
}

func TestEquilibriumSweepTableV(t *testing.T) {
	env, err := BuildSetup(context.Background(), Setup1, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	points, err := EquilibriumSweep(context.Background(), env, SweepV, []float64{0, 4000, 80000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points %d", len(points))
	}
	if points[0].NegativePayments != 0 {
		t.Fatalf("v=0 produced %d negative payments", points[0].NegativePayments)
	}
	if points[2].NegativePayments < points[1].NegativePayments {
		t.Fatalf("negative payments not increasing: %d then %d",
			points[1].NegativePayments, points[2].NegativePayments)
	}
}

func TestEquilibriumSweepBudget(t *testing.T) {
	env, err := BuildSetup(context.Background(), Setup3, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	points, err := EquilibriumSweep(context.Background(), env, SweepB, []float64{100, 500, 2000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].MeanQ < points[i-1].MeanQ-1e-9 {
			t.Fatal("mean q not increasing in budget (Proposition 1)")
		}
		if points[i].ServerObj > points[i-1].ServerObj+1e-9 {
			t.Fatal("server bound not improving in budget")
		}
	}
}

func TestEquilibriumSweepCost(t *testing.T) {
	env, err := BuildSetup(context.Background(), Setup2, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	points, err := EquilibriumSweep(context.Background(), env, SweepC, []float64{10, 20, 80}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Higher costs depress participation (Fig. 6's message).
	if points[len(points)-1].MeanQ > points[0].MeanQ+1e-9 {
		t.Fatalf("mean q did not fall with cost: %v vs %v",
			points[0].MeanQ, points[len(points)-1].MeanQ)
	}
}

func TestSweepWithTraining(t *testing.T) {
	opts := tinyOptions()
	opts.Rounds = 20
	opts.Runs = 1
	env, err := BuildSetup(context.Background(), Setup1, opts)
	if err != nil {
		t.Fatal(err)
	}
	points, err := Sweep(context.Background(), env, game.SchemeNameProposed, SweepV, []float64{1000, 8000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.FinalLoss <= 0 || math.IsNaN(p.FinalLoss) {
			t.Fatalf("bad final loss %v", p.FinalLoss)
		}
		if p.FinalAccuracy < 0 || p.FinalAccuracy > 1 {
			t.Fatalf("bad accuracy %v", p.FinalAccuracy)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	env, err := BuildSetup(context.Background(), Setup1, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EquilibriumSweep(context.Background(), nil, SweepV, []float64{1}, nil); err == nil {
		t.Fatal("expected nil env error")
	}
	if _, err := EquilibriumSweep(context.Background(), env, SweepV, nil, nil); err == nil {
		t.Fatal("expected empty sweep error")
	}
	if _, err := EquilibriumSweep(context.Background(), env, SweepKind(9), []float64{1}, nil); err == nil {
		t.Fatal("expected unknown kind error")
	}
	if _, err := EquilibriumSweep(context.Background(), env, SweepC, []float64{0}, nil); err == nil {
		t.Fatal("expected non-positive cost error")
	}
	if _, err := EquilibriumSweep(context.Background(), env, SweepV, []float64{-1}, nil); err == nil {
		t.Fatal("expected negative value error")
	}
}

func TestReports(t *testing.T) {
	opts := tinyOptions()
	opts.Rounds = 20
	opts.Runs = 1
	env, err := BuildSetup(context.Background(), Setup1, opts)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(context.Background(), env, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteComparisonReport(&sb, cmp); err != nil {
		t.Fatal(err)
	}
	report := sb.String()
	for _, want := range []string{"Fig. 4", "Table II", "Table IV", "proposed", "uniform", "weighted"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q", want)
		}
	}

	points, err := EquilibriumSweep(context.Background(), env, SweepV, []float64{0, 4000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := WriteSweepReport(&sb, SweepV, points, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Impact of mean intrinsic value") {
		t.Fatal("sweep report missing title")
	}

	sb.Reset()
	if err := WriteSeriesCSV(&sb, cmp.Schemes[0]); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "time_s,loss,accuracy") {
		t.Fatal("CSV header missing")
	}
}
