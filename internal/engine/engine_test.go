package engine

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
	"unbiasedfl/internal/testutil"
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

// bernoulliSampler is the plain sampler over levels q, its coins drawn from
// a stream seeded with seed.
func bernoulliSampler(t testing.TB, q []float64, seed uint64) *BernoulliSampler {
	t.Helper()
	s, err := NewBernoulliSampler(q, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fullSampler is full participation over n clients: the sampler at q ≡ 1,
// which draws no coin.
func fullSampler(t testing.TB, n int) *BernoulliSampler {
	t.Helper()
	q := make([]float64, n)
	for i := range q {
		q[i] = 1
	}
	return bernoulliSampler(t, q, 1)
}

func testSpec(t testing.TB, fed *data.Federated, m model.Model, rounds int, sampler Sampler) Spec {
	t.Helper()
	return Spec{
		Model: m, Fed: fed,
		Rounds: rounds, LocalSteps: 4, BatchSize: 8,
		Schedule: ExpDecay{Eta0: 0.1, Decay: 0.996}, EvalEvery: rounds, Seed: 7,
		Sampler: sampler, Aggregator: UnbiasedAggregator{},
	}
}

// TestLocalDispatchZeroAllocs is the end-to-end allocation gate on the FL
// hot path: with the per-client scratch arenas warm, a full round dispatch
// through the local backend (batch draws, SGD steps, deltas for every
// participant) must perform zero heap allocations. The subtest keeps its name
// from when Spec had a gradient-norm flag; the step without norms it gated is
// the engine's one local step now.
func TestLocalDispatchZeroAllocs(t *testing.T) {
	t.Run("GradNorms=false", func(t *testing.T) {
		fed := testFederation(t, 21, 4)
		m := testModel(t, fed)
		spec := testSpec(t, fed, m, 4, fullSampler(t, 4))
		b := NewLocalBackend(LocalOptions{})
		if err := b.Open(context.Background(), &spec); err != nil {
			t.Fatal(err)
		}
		defer func() { _ = b.Close() }()
		global := m.ZeroParams()
		tasks := make([]ClientTask, fed.NumClients())
		for n := range tasks {
			tasks[n] = ClientTask{Client: n, LR: 0.01}
		}
		if _, err := b.Dispatch(context.Background(), 0, global, tasks); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := b.Dispatch(context.Background(), 0, global, tasks); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state local dispatch allocates %v times per run", allocs)
		}
	})
}

// TestLocalDispatchPartialsZeroAllocs is the grouped twin of
// TestLocalDispatchZeroAllocs, with a poison table in force: a round's
// DispatchPartials — every member trained in a worker's arena and folded
// straight from it, honest and poisoned factors alike — performs zero heap
// allocations once the workers are warm, serial and pooled.
func TestLocalDispatchPartialsZeroAllocs(t *testing.T) {
	for name, opts := range map[string]LocalOptions{"serial": {}, "pooled": {Parallel: true}} {
		t.Run(name, func(t *testing.T) {
			fed := testFederation(t, 21, 6)
			m := testModel(t, fed)
			spec := testSpec(t, fed, m, 4, fullSampler(t, 6))
			spec.GroupSize = 2
			spec.Poison = []Poison{{Client: 1, Factor: -2}, {Client: 4, Factor: 0.5}}
			b := NewLocalBackend(opts)
			if err := b.Open(context.Background(), &spec); err != nil {
				t.Fatal(err)
			}
			defer func() { _ = b.Close() }()
			global := m.ZeroParams()
			tasks := make([]ClientTask, fed.NumClients())
			ix := newPoisonIndex(spec.Poison)
			for n := range tasks {
				tasks[n] = ClientTask{Client: n, LR: 0.01, Scale: 1.5, Factor: ix.factor(n, 0)}
			}
			merged := 0
			sink := func(p Partial) error { merged += len(p.Clients); return nil }
			dispatch := func() {
				if err := b.DispatchPartials(context.Background(), 0, global, tasks, spec.GroupSize, sink); err != nil {
					t.Fatal(err)
				}
			}
			dispatch()
			if merged != len(tasks) {
				t.Fatalf("partials named %d members, %d were tasked", merged, len(tasks))
			}
			if allocs := testing.AllocsPerRun(100, dispatch); allocs != 0 {
				t.Fatalf("steady-state grouped dispatch allocates %v times per run", allocs)
			}
		})
	}
}

// TestSpecValidatePoisonTable: Validate refuses a poison table naming a
// client outside the fleet or twice, a non-finite factor, or a negative start
// round, and accepts the rest — zero, negative and amplifying factors
// included.
func TestSpecValidatePoisonTable(t *testing.T) {
	fed := testFederation(t, 21, 4)
	spec := testSpec(t, fed, testModel(t, fed), 4, fullSampler(t, 4))
	cases := []struct {
		name  string
		table []Poison
		edit  func(*Spec) // nil, or a change to the spec besides the table
		want  string      // "" when the spec is valid
	}{
		{"none", nil, nil, ""},
		{"sign flip, suppression and amplification", []Poison{{Client: 0, Factor: -2, FromRound: 3}, {Client: 1}, {Client: 3, Factor: 1e6}}, nil, ""},
		{"start past the horizon", []Poison{{Client: 2, Factor: 2, FromRound: 99}}, nil, ""},
		{"client past the fleet", []Poison{{Client: 4, Factor: 1}}, nil, "out of range"},
		{"negative client", []Poison{{Client: -1, Factor: 1}}, nil, "out of range"},
		{"NaN factor", []Poison{{Client: 0, Factor: math.NaN()}}, nil, "must be finite"},
		{"infinite factor", []Poison{{Client: 0, Factor: math.Inf(-1)}}, nil, "must be finite"},
		{"negative round", []Poison{{Client: 0, Factor: 1, FromRound: -1}}, nil, "non-negative"},
		{"client twice", []Poison{{Client: 2, Factor: -1}, {Client: 2, Factor: 3, FromRound: 2}}, nil, "appears twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := spec
			s.Poison = tc.table
			if tc.edit != nil {
				tc.edit(&s)
			}
			err := s.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// factorRecorder is a flat LocalBackend that records, per round, the factor
// the orchestrator stamped into each task, keyed by client.
type factorRecorder struct {
	*LocalBackend
	factors []map[int]float64
}

func (r *factorRecorder) Dispatch(ctx context.Context, round int, global tensor.Vec, tasks []ClientTask) ([]ClientUpdate, error) {
	seen := make(map[int]float64, len(tasks))
	for _, t := range tasks {
		seen[t.Client] = t.Factor
	}
	r.factors = append(r.factors, seen)
	return r.LocalBackend.Dispatch(ctx, round, global, tasks)
}

// TestPoisonFactorsStampOnlyThePoisonerFromItsRound: the orchestrator stamps
// a poisoner's factor into its task from FromRound on and 1 everywhere else,
// and the flat path scales exactly those deltas: the run equals one whose
// backend scales the poisoner's returned delta itself.
func TestPoisonFactorsStampOnlyThePoisonerFromItsRound(t *testing.T) {
	fed := testFederation(t, 21, 3)
	m := testModel(t, fed)
	spec := testSpec(t, fed, m, 6, fullSampler(t, 3))
	spec.Poison = []Poison{{Client: 1, Factor: -2, FromRound: 4}}
	rec := &factorRecorder{LocalBackend: NewLocalBackend(LocalOptions{})}
	poisoned, err := Run(context.Background(), spec, rec)
	if err != nil {
		t.Fatal(err)
	}
	for round, seen := range rec.factors {
		for n, f := range seen {
			want := 1.0
			if n == 1 && round >= 4 {
				want = -2
			}
			if f != want {
				t.Fatalf("round %d, client %d: factor %v, want %v", round, n, f, want)
			}
		}
	}
	spec.Poison = nil
	byHand, err := Run(context.Background(), spec, &scalingBackend{NewLocalBackend(LocalOptions{})})
	if err != nil {
		t.Fatal(err)
	}
	for j := range poisoned.FinalModel {
		if math.Float64bits(poisoned.FinalModel[j]) != math.Float64bits(byHand.FinalModel[j]) {
			t.Fatalf("parameter %d: poison table %v, delta scaled by hand %v", j, poisoned.FinalModel[j], byHand.FinalModel[j])
		}
	}
}

// scalingBackend scales client 1's returned delta by −2 from round 4 on: the
// poisoning the table in TestPoisonFactorsStampOnlyThePoisonerFromItsRound
// describes, done by hand.
type scalingBackend struct{ *LocalBackend }

func (b *scalingBackend) Dispatch(ctx context.Context, round int, global tensor.Vec, tasks []ClientTask) ([]ClientUpdate, error) {
	updates, err := b.LocalBackend.Dispatch(ctx, round, global, tasks)
	for _, u := range updates {
		if u.Client == 1 && round >= 4 {
			u.Delta.Scale(-2)
		}
	}
	return updates, err
}

// TestOrchestratorDeterministicAcrossWorkerCounts: the pooled local backend
// must produce a bit-identical model whether the pool has one worker or
// several.
func TestOrchestratorDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(procs int) tensor.Vec {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		fed := testFederation(t, 3, 5)
		m := testModel(t, fed)
		sampler := bernoulliSampler(t, []float64{0.9, 0.6, 0.4, 0.8, 0.5}, 5)
		spec := testSpec(t, fed, m, 12, sampler)
		res, err := Run(context.Background(), spec, NewLocalBackend(LocalOptions{Parallel: true}))
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalModel
	}
	one := run(1)
	four := run(4)
	for j := range one {
		if one[j] != four[j] {
			t.Fatalf("param %d differs across worker counts: %v vs %v", j, one[j], four[j])
		}
	}
}

// TestClusterBackendMatchesLocalBackend is the engine-level half of the
// backend-equivalence guarantee: the same spec through LocalBackend and
// through a real TCP ClusterBackend must produce byte-identical models and
// histories.
func TestClusterBackendMatchesLocalBackend(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	fed := testFederation(t, 13, 4)
	m := testModel(t, fed)
	mk := func() Spec {
		sampler := bernoulliSampler(t, []float64{0.9, 0.7, 0.8, 0.6}, 11)
		return testSpec(t, fed, m, 8, sampler)
	}
	local, err := Run(context.Background(), mk(), NewLocalBackend(LocalOptions{Parallel: true}))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := Run(context.Background(), mk(), NewClusterBackend(ClusterOptions{
		Timeout: 20 * time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	for j := range local.FinalModel {
		if math.Float64bits(local.FinalModel[j]) != math.Float64bits(cluster.FinalModel[j]) {
			t.Fatalf("model[%d]: local %v vs cluster %v — the wire changed the arithmetic",
				j, local.FinalModel[j], cluster.FinalModel[j])
		}
	}
	if len(local.History) != len(cluster.History) {
		t.Fatalf("history length %d vs %d", len(local.History), len(cluster.History))
	}
	for i := range local.History {
		lh, ch := local.History[i], cluster.History[i]
		if lh.Participants != ch.Participants ||
			math.Float64bits(lh.GlobalLoss) != math.Float64bits(ch.GlobalLoss) ||
			math.Float64bits(lh.TestAccuracy) != math.Float64bits(ch.TestAccuracy) {
			t.Fatalf("round %d metrics differ: %+v vs %+v", i, lh, ch)
		}
	}
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

// TestClusterBackendHonorsCancellation cancels mid-run and requires a prompt
// unwind with no leaked goroutines or sockets.
func TestClusterBackendHonorsCancellation(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	fed := testFederation(t, 17, 3)
	m := testModel(t, fed)
	spec := testSpec(t, fed, m, 500, fullSampler(t, 3))
	// A real per-round node stall keeps the run alive long enough for the
	// cancellation to land mid-flight.
	backend := NewClusterBackend(ClusterOptions{
		Timeout:   20 * time.Second,
		NodeDelay: func(int) time.Duration { return 10 * time.Millisecond },
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, spec, backend)
		done <- err
	}()
	time.Sleep(150 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("cancelled cluster run returned %v, want context.Canceled", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cluster run did not unwind after cancellation")
	}
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

// TestOrchestratorRejectsDuplicateParticipants pins the guard protecting the
// single-owner per-client state from samplers that draw with replacement.
func TestOrchestratorRejectsDuplicateParticipants(t *testing.T) {
	fed := testFederation(t, 30, 3)
	m := testModel(t, fed)
	spec := testSpec(t, fed, m, 2, dupSampler{n: 3})
	if _, err := Run(context.Background(), spec, NewLocalBackend(LocalOptions{})); err == nil {
		t.Fatal("expected duplicate-participant error")
	}
}

type dupSampler struct{ n int }

func (d dupSampler) Sample(int) []int { return []int{0, 1, 0} }
func (d dupSampler) NumClients() int  { return d.n }

// cancelAfterSteps is a model that cancels its context during its n-th Step.
type cancelAfterSteps struct {
	*model.LogisticRegression
	n, steps int
	cancel   context.CancelFunc
}

func (m *cancelAfterSteps) Step(w tensor.Vec, ds *data.Dataset, batch int, lr float64, r *stats.RNG, s *model.Scratch) error {
	if m.steps++; m.steps == m.n {
		m.cancel()
	}
	return m.LogisticRegression.Step(w, ds, batch, lr, r, s)
}

// TestTrainStopsWhenCanceled: a local update under a cancelled context
// returns context.Canceled without stepping, one cancelled during its steps
// stops at the next eighth step, and neither moves the client's cursor.
func TestTrainStopsWhenCanceled(t *testing.T) {
	fed := testFederation(t, 21, 4)
	global := testModel(t, fed).ZeroParams()
	delta := tensor.NewVec(len(global))
	for _, c := range []struct{ cancelAt, wantSteps int }{{0, 0}, {3, 7}} {
		ctx, cancel := context.WithCancel(context.Background())
		if c.cancelAt == 0 {
			cancel()
		}
		m := &cancelAfterSteps{LogisticRegression: testModel(t, fed), n: c.cancelAt, cancel: cancel}
		cur := initialCursors(7, 1)[0]
		want := cur
		var arena execArena
		err := arena.localUpdate(ctx, m, fed.Clients[0], 0, &cur, global, 20, 16, 0.01, delta)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at step %d: got %v, want context.Canceled", c.cancelAt, err)
		}
		if m.steps != c.wantSteps {
			t.Fatalf("cancelled at step %d: took %d steps, want %d", c.cancelAt, m.steps, c.wantSteps)
		}
		if cur != want {
			t.Fatalf("cancelled at step %d: the cursor moved", c.cancelAt)
		}
	}
}

// BenchmarkLocalUpdate measures one participant's full local update (E=10
// training steps at batch 16) through the shared execution arena.
func BenchmarkLocalUpdate(b *testing.B) {
	fed := testFederation(b, 21, 4)
	m := testModel(b, fed)
	c := initialCursors(7, 1)[0]
	global := m.ZeroParams()
	delta := tensor.NewVec(len(global))
	var arena execArena
	ctx := context.Background()
	if err := arena.localUpdate(ctx, m, fed.Clients[0], 0, &c, global, 10, 16, 0.01, delta); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := arena.localUpdate(ctx, m, fed.Clients[0], 0, &c, global, 10, 16, 0.01, delta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrchestratorRoundLocal measures whole training rounds through the
// orchestrator + pooled LocalBackend, aggregation included — the engine-side
// counterpart of fl.BenchmarkRunnerRound.
func BenchmarkOrchestratorRoundLocal(b *testing.B) {
	fed := testFederation(b, 21, 8)
	m := testModel(b, fed)
	full := fullSampler(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := Spec{
			Model: m, Fed: fed,
			Rounds: 1, LocalSteps: 8, BatchSize: 24,
			Schedule:  ExpDecay{Eta0: 0.1, Decay: 0.996},
			EvalEvery: 2, // skip evaluation; this measures the update path
			Seed:      1,
			Sampler:   full, Aggregator: UnbiasedAggregator{},
		}
		if _, err := Run(context.Background(), spec, NewLocalBackend(LocalOptions{Parallel: true})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrchestratorRoundCluster measures the same rounds through a real
// loopback TCP ClusterBackend: the cost of the wire relative to
// BenchmarkOrchestratorRoundLocal. The fleet boots once; the loop measures
// steady-state rounds.
func BenchmarkOrchestratorRoundCluster(b *testing.B) {
	fed := testFederation(b, 21, 8)
	m := testModel(b, fed)
	spec := Spec{
		Model: m, Fed: fed,
		Rounds: 1, LocalSteps: 8, BatchSize: 24,
		Schedule:  ExpDecay{Eta0: 0.1, Decay: 0.996},
		EvalEvery: 2,
		Seed:      1,
		Sampler:   fullSampler(b, 8), Aggregator: UnbiasedAggregator{},
	}
	backend := NewClusterBackend(ClusterOptions{Timeout: 20 * time.Second})
	if err := backend.Open(context.Background(), &spec); err != nil {
		b.Fatal(err)
	}
	defer func() { _ = backend.Close() }()
	global := m.ZeroParams()
	tasks := make([]ClientTask, fed.NumClients())
	for n := range tasks {
		tasks[n] = ClientTask{Client: n, LR: 0.05}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		updates, err := backend.Dispatch(context.Background(), 0, global, tasks)
		if err != nil {
			b.Fatal(err)
		}
		if err := (UnbiasedAggregator{}).Aggregate(global, updates, fed.Weights, specQ(fed.NumClients())); err != nil {
			b.Fatal(err)
		}
	}
}

func specQ(n int) []float64 {
	q := make([]float64, n)
	for i := range q {
		q[i] = 1
	}
	return q
}
