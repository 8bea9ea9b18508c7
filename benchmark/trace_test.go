package main

import (
	"context"
	"strings"
	"testing"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/fl"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// plainBackend has only the three mandatory methods.
type plainBackend struct{}

func (plainBackend) Open(context.Context, *engine.Spec) error { return nil }
func (plainBackend) Dispatch(context.Context, int, tensor.Vec, []engine.ClientTask) ([]engine.ClientUpdate, error) {
	return nil, nil
}
func (plainBackend) Close() error { return nil }

// partialOnlyBackend is a shape no engine backend has.
type partialOnlyBackend struct{ plainBackend }

func (partialOnlyBackend) DispatchPartials(context.Context, int, tensor.Vec, []engine.ClientTask, int, func(engine.Partial) error) error {
	return nil
}

// backendCaps is the set of optional interfaces the orchestrator (and the
// fleet bench) type-assert on a backend.
func backendCaps(b engine.ExecutionBackend) [4]bool {
	_, p := b.(engine.PartialBackend)
	_, s := b.(engine.StatefulBackend)
	_, e := b.(engine.EpochBackend)
	_, c := b.(socketCounter)
	return [4]bool{p, s, e, c}
}

// TestWrapBackendForwardsExactly: the traced backend offers PartialBackend,
// StatefulBackend, EpochBackend and Sockets() exactly when the wrapped one
// does, and an unknown shape is refused instead of approximated.
func TestWrapBackendForwardsExactly(t *testing.T) {
	tr := newTracer()
	for name, b := range map[string]engine.ExecutionBackend{
		"plain":   plainBackend{},
		"local":   engine.NewLocalBackend(engine.LocalOptions{}),
		"cluster": engine.NewClusterBackend(engine.ClusterOptions{}),
	} {
		w, err := wrapBackend(b, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := backendCaps(w), backendCaps(b); got != want {
			t.Errorf("%s: wrapper capabilities %v, backend has %v", name, got, want)
		}
	}
	if got := backendCaps(engine.NewClusterBackend(engine.ClusterOptions{})); got != [4]bool{true, true, true, true} {
		t.Errorf("cluster backend capabilities %v: the cluster shape no longer covers it", got)
	}
	if _, err := wrapBackend(partialOnlyBackend{}, tr); err == nil || !strings.Contains(err.Error(), "no traced wrapper") {
		t.Errorf("partial-only backend: got %v, want a refusal", err)
	}
}

type bareSampler struct{ n int }

func (s bareSampler) Sample(int) []int { return []int{0} }
func (s bareSampler) NumClients() int  { return s.n }

type levelsOnly struct{ bareSampler }

func (levelsOnly) EffectiveQ() []float64 { return []float64{0.25, 0.5} }

type statefulOnly struct{ bareSampler }

func (statefulOnly) SamplerState() []uint64             { return []uint64{7} }
func (statefulOnly) RestoreSamplerState([]uint64) error { return nil }

func samplerCaps(s engine.Sampler) [2]bool {
	_, l := s.(engine.LevelsSampler)
	_, st := s.(engine.StatefulSampler)
	return [2]bool{l, st}
}

// TestWrapSamplerForwardsExactly: hiding LevelsSampler would make the
// orchestrator aggregate with q = 1, hiding StatefulSampler would drop the
// coin streams from every commit.
func TestWrapSamplerForwardsExactly(t *testing.T) {
	bern, err := fl.NewBernoulliSampler([]float64{0.25, 0.5}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	fault := engine.NewFaultSampler([]float64{0.25, 0.5}, engine.NewFaultSchedule(2), stats.NewRNG(1), stats.NewRNG(2))
	tr := newTracer()
	for name, s := range map[string]engine.Sampler{
		"bare": bareSampler{2}, "levels": levelsOnly{bareSampler{2}}, "stateful": statefulOnly{bareSampler{2}},
		"bernoulli": bern, "fault": fault,
	} {
		w := wrapSampler(s, tr)
		if got, want := samplerCaps(w), samplerCaps(s); got != want {
			t.Errorf("%s: wrapper capabilities %v, sampler has %v", name, got, want)
		}
		if w.NumClients() != 2 {
			t.Errorf("%s: NumClients %d through the wrapper", name, w.NumClients())
		}
	}
	q := wrapSampler(bern, tr).(engine.LevelsSampler).EffectiveQ()
	if len(q) != 2 || q[0] != 0.25 || q[1] != 0.5 {
		t.Errorf("EffectiveQ through the wrapper = %v", q)
	}
	before := tr.sampled
	wrapSampler(bern, tr).Sample(0)
	if len(tr.spans) != 1 || tr.spans[0].Name != "fl.sample" || tr.sampled < before {
		t.Errorf("Sample left spans %+v", tr.spans)
	}
}

// TestInstrumentLeavesAggregatorAndModel: with GroupSize > 1 the
// orchestrator asserts engine.UnbiasedAggregator, so the aggregator must
// stay unwrapped (the sink is wrapped instead); the model is never wrapped,
// or the run would lose model.LocalStepper and leave its hot path.
func TestInstrumentLeavesAggregatorAndModel(t *testing.T) {
	m, err := model.NewLogisticRegression(4, 3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, groupSize := range []int{0, 1, 8} {
		spec := engine.Spec{Model: m, Sampler: bareSampler{2}, Aggregator: engine.UnbiasedAggregator{}, GroupSize: groupSize}
		if _, err := instrument(&spec, engine.NewLocalBackend(engine.LocalOptions{}), newTracer()); err != nil {
			t.Fatal(err)
		}
		_, unbiased := spec.Aggregator.(engine.UnbiasedAggregator)
		if grouped := groupSize > 1; unbiased != grouped {
			t.Errorf("GroupSize %d: aggregator is %T", groupSize, spec.Aggregator)
		}
		if spec.Model != model.Model(m) {
			t.Errorf("GroupSize %d: model was replaced by %T", groupSize, spec.Model)
		}
		if _, ok := spec.Model.(model.LocalStepper); !ok {
			t.Errorf("GroupSize %d: model lost LocalStepper", groupSize)
		}
	}
}

// TestSelfTime: a span's self time is its duration minus its children's.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "engine.round", Start: 0, End: 100, Parent: -1},
		{Name: "engine.dispatch", Start: 10, End: 70, Parent: 0},
		{Name: "engine.sink_merge", Start: 20, End: 30, Parent: 1},
		{Name: "engine.sink_merge", Start: 40, End: 45, Parent: 1},
	}
	tot := tr.totals()
	for name, want := range map[string]spanTotal{
		"engine.round":      {total: 100e-9, self: 40e-9, n: 1},
		"engine.dispatch":   {total: 60e-9, self: 45e-9, n: 1},
		"engine.sink_merge": {total: 15e-9, self: 15e-9, n: 2},
	} {
		got := tot[name]
		if got.n != want.n || !near(got.total, want.total) || !near(got.self, want.self) {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-15 && b-a < 1e-15 }
