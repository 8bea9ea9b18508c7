package fl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

func testFederation(t testing.TB, seed uint64, clients int) *data.Federated {
	t.Helper()
	cfg := data.MNISTLikeConfig()
	cfg.NumClients = clients
	cfg.TotalSamples = clients * 120
	cfg.TestSamples = 200
	cfg.Dim = 8
	cfg.Classes = 4
	cfg.MaxClasses = 3
	fed, err := data.GenerateImageLike(stats.NewRNG(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

func testModel(t testing.TB, fed *data.Federated) *model.LogisticRegression {
	t.Helper()
	m, err := model.NewLogisticRegression(fed.Train.Dim, fed.Train.Classes, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// defaultConfig is the paper's hyperparameters at reduced scale.
func defaultConfig() Config {
	return Config{
		Rounds:     150,
		LocalSteps: 10,
		BatchSize:  24,
		Schedule:   ExpDecay{Eta0: 0.1, Decay: 0.996},
		EvalEvery:  5,
		Seed:       1,
	}
}

// fullSampler is full participation over n clients: the Bernoulli sampler at
// q ≡ 1, which draws no coin.
func fullSampler(t testing.TB, n int) engine.Sampler {
	t.Helper()
	q := make([]float64, n)
	for i := range q {
		q[i] = 1
	}
	s, err := NewBernoulliSampler(q, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// specOf compiles a Config plus sampler and aggregator into the engine's run
// description — the one way this package's tests describe a run.
func specOf(m model.Model, fed *data.Federated, cfg Config, s engine.Sampler, agg engine.Aggregator) engine.Spec {
	return engine.Spec{
		Model:      m,
		Fed:        fed,
		Rounds:     cfg.Rounds,
		LocalSteps: cfg.LocalSteps,
		BatchSize:  cfg.BatchSize,
		Schedule:   cfg.Schedule,
		EvalEvery:  cfg.EvalEvery,
		Seed:       cfg.Seed,
		Sampler:    s,
		Aggregator: agg,
	}
}

// runLocal runs spec on the in-process backend, pooled or sequential.
func runLocal(ctx context.Context, spec engine.Spec, parallel bool) (*engine.RunResult, error) {
	return engine.Run(ctx, spec, engine.NewLocalBackend(engine.LocalOptions{Parallel: parallel}))
}

func TestSchedules(t *testing.T) {
	exp := ExpDecay{Eta0: 0.1, Decay: 0.996}
	if exp.LR(0) != 0.1 {
		t.Fatalf("lr(0) = %v", exp.LR(0))
	}
	if exp.LR(10) >= exp.LR(0) {
		t.Fatal("exp decay not decreasing")
	}
	thm := engine.TheoremDecay{L: 10, Mu: 0.1, E: 100}
	if thm.LR(100) >= thm.LR(0) {
		t.Fatal("theorem decay not decreasing")
	}
	want := 2 / (math.Max(80, 10) + 0.1*5)
	if math.Abs(thm.LR(5)-want) > 1e-12 {
		t.Fatalf("theorem lr %v want %v", thm.LR(5), want)
	}
}

func TestBernoulliSampler(t *testing.T) {
	q := []float64{0, 0.5, 1}
	s, err := NewBernoulliSampler(q, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumClients() != 3 {
		t.Fatalf("clients %d", s.NumClients())
	}
	counts := make([]int, 3)
	const rounds = 10000
	for r := 0; r < rounds; r++ {
		for _, n := range s.Sample(r) {
			counts[n]++
		}
	}
	if counts[0] != 0 {
		t.Fatalf("q=0 client participated %d times", counts[0])
	}
	if counts[2] != rounds {
		t.Fatalf("q=1 client participated %d/%d times", counts[2], rounds)
	}
	rate := float64(counts[1]) / rounds
	if math.Abs(rate-0.5) > 0.02 {
		t.Fatalf("q=0.5 client rate %v", rate)
	}
}

func TestBernoulliSamplerValidation(t *testing.T) {
	if _, err := NewBernoulliSampler(nil, stats.NewRNG(1)); err == nil {
		t.Fatal("expected error for empty q")
	}
	if _, err := NewBernoulliSampler([]float64{0.5}, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
	if _, err := NewBernoulliSampler([]float64{1.5}, stats.NewRNG(1)); err == nil {
		t.Fatal("expected error for q > 1")
	}
	if _, err := NewBernoulliSampler([]float64{-0.1}, stats.NewRNG(1)); err == nil {
		t.Fatal("expected error for q < 0")
	}
}

func TestBernoulliSamplerQIsCopy(t *testing.T) {
	orig := []float64{0.25, 0.75}
	s, err := NewBernoulliSampler(orig, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	orig[0] = 0.99
	if got := s.EffectiveQ(); got[0] != 0.25 {
		t.Fatal("sampler shares caller's slice")
	}
	q := s.EffectiveQ()
	q[1] = 0
	if got := s.EffectiveQ(); got[1] != 0.75 {
		t.Fatal("EffectiveQ() exposes internal slice")
	}
}

// TestFullAndFixedSamplers: full participation is the Bernoulli sampler at
// q ≡ 1, which picks every client in order and draws no coin. (The fixed
// subset sampler is gone: only an ablation benchmark used it, and it keeps a
// copy of its own.)
func TestFullAndFixedSamplers(t *testing.T) {
	rng := stats.NewRNG(1)
	before := rng.State()
	full, err := NewBernoulliSampler([]float64{1, 1, 1, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if got := full.Sample(round); len(got) != 4 || got[0] != 0 || got[3] != 3 {
			t.Fatalf("full sample %v", got)
		}
	}
	if rng.State() != before {
		t.Fatal("full participation drew a coin")
	}
}

// TestUnbiasedAggregationLemma1 is the core property test for Lemma 1: over
// many independent participation draws, the expected aggregated model equals
// the full-participation aggregate.
func TestUnbiasedAggregationLemma1(t *testing.T) {
	rng := stats.NewRNG(99)
	weights := []float64{0.5, 0.3, 0.2}
	q := []float64{0.9, 0.5, 0.2}
	deltas := []tensor.Vec{{1, 0}, {0, 1}, {2, 2}}

	// Full-participation target: Σ a_n Δ_n.
	target := tensor.NewVec(2)
	for n := range deltas {
		if err := target.AddScaled(weights[n], deltas[n]); err != nil {
			t.Fatal(err)
		}
	}

	const trials = 200000
	mean := tensor.NewVec(2)
	agg := engine.UnbiasedAggregator{}
	for trial := 0; trial < trials; trial++ {
		global := tensor.NewVec(2)
		var updates []engine.ClientUpdate
		for n := range deltas {
			if rng.Bernoulli(q[n]) {
				updates = append(updates, engine.ClientUpdate{Client: n, Delta: deltas[n]})
			}
		}
		if err := agg.Aggregate(global, updates, weights, q); err != nil {
			t.Fatal(err)
		}
		if err := mean.AddScaled(1.0/trials, global); err != nil {
			t.Fatal(err)
		}
	}
	for i := range target {
		if math.Abs(mean[i]-target[i]) > 0.02 {
			t.Fatalf("coord %d: E[agg]=%v, full=%v", i, mean[i], target[i])
		}
	}
}

// TestProportionalAggregationBiased verifies that the baseline is biased
// under heterogeneous q, motivating Lemma 1.
func TestProportionalAggregationBiased(t *testing.T) {
	rng := stats.NewRNG(100)
	weights := []float64{0.5, 0.5}
	q := []float64{1.0, 0.1} // client 1 rarely participates
	deltas := []tensor.Vec{{1}, {-1}}

	target := tensor.NewVec(1) // full participation: 0.5*1 + 0.5*(-1) = 0

	const trials = 100000
	mean := tensor.NewVec(1)
	agg := proportionalAggregator{}
	for trial := 0; trial < trials; trial++ {
		global := tensor.NewVec(1)
		var updates []engine.ClientUpdate
		for n := range deltas {
			if rng.Bernoulli(q[n]) {
				updates = append(updates, engine.ClientUpdate{Client: n, Delta: deltas[n]})
			}
		}
		if err := agg.Aggregate(global, updates, weights, q); err != nil {
			t.Fatal(err)
		}
		if err := mean.AddScaled(1.0/trials, global); err != nil {
			t.Fatal(err)
		}
	}
	// The biased mean must drift toward the always-participating client.
	if math.Abs(mean[0]-target[0]) < 0.3 {
		t.Fatalf("proportional aggregation unexpectedly unbiased: %v", mean[0])
	}
}

func TestAggregatorErrors(t *testing.T) {
	agg := engine.UnbiasedAggregator{}
	global := tensor.NewVec(2)
	if err := agg.Aggregate(global, []engine.ClientUpdate{{Client: 5, Delta: tensor.NewVec(2)}},
		[]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected unknown-client error")
	}
	if err := agg.Aggregate(global, []engine.ClientUpdate{{Client: 0, Delta: tensor.NewVec(3)}},
		[]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
	if err := agg.Aggregate(global, []engine.ClientUpdate{{Client: 0, Delta: tensor.NewVec(2)}},
		[]float64{1}, []float64{0}); err == nil {
		t.Fatal("expected non-positive q error")
	}
	if err := agg.Aggregate(global, nil, []float64{1}, []float64{1, 1}); err == nil {
		t.Fatal("expected weights/q mismatch error")
	}
	prop := proportionalAggregator{}
	if err := prop.Aggregate(global, nil, []float64{1}, []float64{1}); err != nil {
		t.Fatalf("empty round should be a no-op: %v", err)
	}
	naive := naiveInverseAggregator{}
	if err := naive.Aggregate(global, []engine.ClientUpdate{{Client: 0, Delta: tensor.NewVec(2)}},
		[]float64{1}, []float64{0}); err == nil {
		t.Fatal("expected non-positive q error from naive aggregator")
	}
}

func TestRunnerTrainsToUsefulModel(t *testing.T) {
	fed := testFederation(t, 1, 6)
	m := testModel(t, fed)
	q := make([]float64, fed.NumClients())
	for i := range q {
		q[i] = 0.7
	}
	sampler, err := NewBernoulliSampler(q, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.Rounds = 60
	cfg.LocalSteps = 8
	res, err := runLocal(context.Background(), specOf(m, fed, cfg, sampler, engine.UnbiasedAggregator{}), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != cfg.Rounds {
		t.Fatalf("history length %d", len(res.History))
	}
	zeroLoss, err := m.Loss(m.ZeroParams(), fed.Train)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= zeroLoss {
		t.Fatalf("training did not reduce loss: %v >= %v", res.FinalLoss, zeroLoss)
	}
	if res.FinalAcc < 0.5 {
		t.Fatalf("final accuracy %v too low", res.FinalAcc)
	}
}

func TestRunnerDeterministicAcrossParallelism(t *testing.T) {
	fed := testFederation(t, 3, 5)
	cfg := defaultConfig()
	cfg.Rounds = 12
	cfg.LocalSteps = 4

	run := func(parallel bool) tensor.Vec {
		m := testModel(t, fed)
		q := []float64{0.9, 0.6, 0.4, 0.8, 0.5}
		sampler, err := NewBernoulliSampler(q, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		res, err := runLocal(context.Background(), specOf(m, fed, cfg, sampler, engine.UnbiasedAggregator{}), parallel)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalModel
	}
	seq := run(false)
	par := run(true)
	diff, err := tensor.Sub(seq, par)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Norm2() > 1e-12 {
		t.Fatalf("parallel and sequential runs differ by %v", diff.Norm2())
	}
}

func TestRunnerOnRoundHook(t *testing.T) {
	fed := testFederation(t, 40, 3)
	m := testModel(t, fed)
	sampler := fullSampler(t, 3)
	cfg := defaultConfig()
	cfg.Rounds = 10
	cfg.LocalSteps = 2
	var seen []int
	spec := specOf(m, fed, cfg, sampler, engine.UnbiasedAggregator{})
	spec.OnRound = func(rm engine.RoundMetrics) { seen = append(seen, rm.Round) }
	if _, err := runLocal(context.Background(), spec, false); err != nil {
		t.Fatal(err)
	}
	if len(seen) != cfg.Rounds {
		t.Fatalf("hook fired %d times, want %d", len(seen), cfg.Rounds)
	}
	for i, r := range seen {
		if r != i {
			t.Fatalf("hook rounds out of order: %v", seen)
		}
	}
}

func TestRunnerValidation(t *testing.T) {
	fed := testFederation(t, 4, 3)
	m := testModel(t, fed)
	sampler := fullSampler(t, 3)
	good := specOf(m, fed, defaultConfig(), sampler, engine.UnbiasedAggregator{})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func(spec engine.Spec) error {
		_, err := runLocal(context.Background(), spec, false)
		return err
	}
	bad := good
	bad.Model = nil
	if run(bad) == nil {
		t.Fatal("expected nil-model error")
	}
	bad = good
	bad.Sampler = nil
	if run(bad) == nil {
		t.Fatal("expected nil-sampler error")
	}
	bad = good
	wrong := fullSampler(t, 7)
	bad.Sampler = wrong
	if run(bad) == nil {
		t.Fatal("expected client-count mismatch error")
	}
	// A nil aggregator is Lemma 1: the same run, bit for bit, as good's.
	lemma1 := good
	lemma1.Aggregator = nil
	want, err := runLocal(context.Background(), good, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runLocal(context.Background(), lemma1, false)
	if err != nil {
		t.Fatalf("nil aggregator: %v", err)
	}
	for j := range want.FinalModel {
		if math.Float64bits(got.FinalModel[j]) != math.Float64bits(want.FinalModel[j]) {
			t.Fatalf("nil aggregator: model[%d] = %v, Lemma 1 gives %v", j, got.FinalModel[j], want.FinalModel[j])
		}
	}
}

func TestCalibrate(t *testing.T) {
	fed := testFederation(t, 6, 5)
	m := testModel(t, fed)
	cfg := defaultConfig()
	cfg.LocalSteps = 6
	cal, err := Calibrate(context.Background(), m, fed, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.G) != fed.NumClients() {
		t.Fatalf("G length %d", len(cal.G))
	}
	for n, g := range cal.G {
		if g <= 0 || math.IsNaN(g) {
			t.Fatalf("G[%d] = %v", n, g)
		}
	}
	if cal.L <= 0 || cal.Alpha <= 0 {
		t.Fatalf("L=%v alpha=%v", cal.L, cal.Alpha)
	}
	wantAlpha := 8 * cal.L * float64(cfg.LocalSteps) / (cal.Mu * cal.Mu)
	if math.Abs(cal.Alpha-wantAlpha) > 1e-9 {
		t.Fatalf("alpha %v want %v", cal.Alpha, wantAlpha)
	}
	if _, err := Calibrate(context.Background(), m, fed, cfg, 0); err == nil {
		t.Fatal("expected error for zero calibration rounds")
	}
	if _, err := Calibrate(context.Background(), nil, fed, cfg, 1); err == nil {
		t.Fatal("expected error for nil model")
	}
	noreg, err := model.NewLogisticRegression(fed.Train.Dim, fed.Train.Classes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Calibrate(context.Background(), noreg, fed, cfg, 1); err == nil {
		t.Fatal("expected error for mu = 0")
	}
}

// TestUnbiasedBeatsBiasedUnderSkewedQ checks the paper's core training-side
// claim: with heterogeneous participation, the unbiased rule converges to a
// lower global loss than the proportional (biased) rule.
func TestUnbiasedBeatsBiasedUnderSkewedQ(t *testing.T) {
	fed := testFederation(t, 8, 6)
	// Highly skewed participation correlated with shard index.
	q := []float64{1.0, 0.9, 0.15, 0.1, 0.1, 0.1}

	finalLoss := func(agg engine.Aggregator, seed uint64) float64 {
		m := testModel(t, fed)
		sampler, err := NewBernoulliSampler(q, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		cfg := defaultConfig()
		cfg.Rounds = 80
		cfg.LocalSteps = 8
		cfg.Seed = seed
		res, err := runLocal(context.Background(), specOf(m, fed, cfg, sampler, agg), true)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalLoss
	}

	var unbiased, biased float64
	const reps = 3
	for s := uint64(0); s < reps; s++ {
		unbiased += finalLoss(engine.UnbiasedAggregator{}, 10+s) / reps
		biased += finalLoss(proportionalAggregator{}, 10+s) / reps
	}
	if unbiased >= biased {
		t.Fatalf("unbiased loss %v not better than biased %v", unbiased, biased)
	}
}

// proportionalAggregator is the biased baseline: participants' deltas are
// weighted by a_n renormalized over the participant set only, which is what
// a mechanism that ignores participation probabilities would do; the model
// drifts toward frequently participating clients' data.
type proportionalAggregator struct{}

func (proportionalAggregator) Aggregate(global tensor.Vec, updates []engine.ClientUpdate, weights, _ []float64) error {
	var total float64
	for _, u := range updates {
		total += weights[u.Client]
	}
	if len(updates) > 0 && total <= 0 {
		return errors.New("zero total weight among participants")
	}
	for _, u := range updates {
		if err := global.AddScaled(weights[u.Client]/total, u.Delta); err != nil {
			return err
		}
	}
	return nil
}

// naiveInverseAggregator is the scheme the paper's Lemma 1 remark warns
// about: inverse weighting renormalized by the participant count K,
// a_n/(K·q_n). It is unbiased only under uniform dependent sampling.
type naiveInverseAggregator struct{}

func (naiveInverseAggregator) Aggregate(global tensor.Vec, updates []engine.ClientUpdate, weights, q []float64) error {
	k := float64(len(updates))
	for _, u := range updates {
		if q[u.Client] <= 0 {
			return fmt.Errorf("participant %d has non-positive q", u.Client)
		}
		if err := global.AddScaled(weights[u.Client]/(k*q[u.Client]), u.Delta); err != nil {
			return err
		}
	}
	return nil
}
