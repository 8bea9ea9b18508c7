package sim

import (
	"context"
	"testing"
	"time"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/fl"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
)

func TestHeterogeneousTimings(t *testing.T) {
	r := stats.NewRNG(1)
	cfg := DefaultTimingConfig(40)
	tm, err := HeterogeneousTimings(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tm.Clients) != 40 {
		t.Fatalf("fleet size %d", len(tm.Clients))
	}
	var distinct bool
	for _, ct := range tm.Clients {
		if ct.ComputePerStep <= 0 || ct.CommPerRound <= 0 {
			t.Fatalf("non-positive timing %+v", ct)
		}
		if ct.ComputePerStep != tm.Clients[0].ComputePerStep {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("fleet is homogeneous despite sigma > 0")
	}
}

func TestHeterogeneousTimingsValidation(t *testing.T) {
	r := stats.NewRNG(1)
	bad := DefaultTimingConfig(0)
	if _, err := HeterogeneousTimings(r, bad); err == nil {
		t.Fatal("expected error for zero clients")
	}
	bad = DefaultTimingConfig(2)
	bad.ComputeMedian = 0
	if _, err := HeterogeneousTimings(r, bad); err == nil {
		t.Fatal("expected error for zero compute median")
	}
	bad = DefaultTimingConfig(2)
	bad.Sigma = -1
	if _, err := HeterogeneousTimings(r, bad); err == nil {
		t.Fatal("expected error for negative sigma")
	}
	bad = DefaultTimingConfig(2)
	bad.ServerOverhead = -time.Second
	if _, err := HeterogeneousTimings(r, bad); err == nil {
		t.Fatal("expected error for negative overhead")
	}
}

func TestRoundDuration(t *testing.T) {
	tm := &TimingModel{
		Clients: []ClientTiming{
			{ComputePerStep: 10 * time.Millisecond, CommPerRound: 100 * time.Millisecond},
			{ComputePerStep: 20 * time.Millisecond, CommPerRound: 50 * time.Millisecond},
		},
		ServerOverhead: 5 * time.Millisecond,
	}
	d, err := tm.RoundDuration([]int{0, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Client 0: 100+100=200ms; client 1: 200+50=250ms; +5ms overhead.
	if d != 255*time.Millisecond {
		t.Fatalf("round duration %v", d)
	}
	empty, err := tm.RoundDuration(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if empty != 5*time.Millisecond {
		t.Fatalf("empty round duration %v", empty)
	}
	if _, err := tm.RoundDuration([]int{7}, 10); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := tm.RoundDuration([]int{0}, 0); err == nil {
		t.Fatal("expected local-steps error")
	}
}

func TestTimeToTargets(t *testing.T) {
	points := []TimedPoint{
		{Elapsed: 1 * time.Second, Loss: 0.9, Accuracy: 0.3},
		{Elapsed: 2 * time.Second, Loss: 0.5, Accuracy: 0.6},
		{Elapsed: 3 * time.Second, Loss: 0.4, Accuracy: 0.8},
	}
	if d, ok := TimeToLoss(points, 0.5); !ok || d != 2*time.Second {
		t.Fatalf("time to loss %v %v", d, ok)
	}
	if _, ok := TimeToLoss(points, 0.1); ok {
		t.Fatal("unreachable loss reported reached")
	}
	if d, ok := TimeToAccuracy(points, 0.75); !ok || d != 3*time.Second {
		t.Fatalf("time to accuracy %v %v", d, ok)
	}
	if _, ok := TimeToAccuracy(points, 0.99); ok {
		t.Fatal("unreachable accuracy reported reached")
	}
}

func TestTimelineAlignment(t *testing.T) {
	tm := &TimingModel{
		Clients:        []ClientTiming{{ComputePerStep: time.Millisecond, CommPerRound: 10 * time.Millisecond}},
		ServerOverhead: time.Millisecond,
	}
	history := []engine.RoundMetrics{
		{Round: 0, Evaluated: false, ParticipantIDs: []int{0}},
		{Round: 1, Evaluated: true, GlobalLoss: 0.7, TestAccuracy: 0.5, ParticipantIDs: []int{0}},
	}
	points, err := tm.Timeline(history, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points %d", len(points))
	}
	// Each round: 5ms compute + 10ms comm + 1ms overhead = 16ms; two rounds.
	if points[0].Elapsed != 32*time.Millisecond {
		t.Fatalf("elapsed %v", points[0].Elapsed)
	}
	history[1].ParticipantIDs = []int{1}
	if _, err := tm.Timeline(history, 5); err == nil {
		t.Fatal("expected an error for a participant outside the timing model")
	}
}

func TestTimedRunEndToEnd(t *testing.T) {
	cfg := data.MNISTLikeConfig()
	cfg.NumClients = 4
	cfg.TotalSamples = 400
	cfg.TestSamples = 100
	cfg.Dim = 6
	cfg.Classes = 3
	cfg.MaxClasses = 2
	fed, err := data.GenerateImageLike(stats.NewRNG(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogisticRegression(cfg.Dim, cfg.Classes, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := fl.NewBernoulliSampler([]float64{0.8, 0.8, 0.8, 0.8}, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	runCfg := fl.DefaultConfig()
	spec := engine.Spec{
		Model:      m,
		Fed:        fed,
		Rounds:     20,
		LocalSteps: 5,
		BatchSize:  runCfg.BatchSize,
		Schedule:   runCfg.Schedule,
		EvalEvery:  runCfg.EvalEvery,
		Seed:       runCfg.Seed,
		Sampler:    sampler,
		Aggregator: engine.UnbiasedAggregator{},
	}
	tm, err := HeterogeneousTimings(stats.NewRNG(4), DefaultTimingConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	run, err := engine.Run(context.Background(), spec, engine.NewLocalBackend(engine.LocalOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	points, err := tm.Timeline(run.History, spec.LocalSteps)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no timed points")
	}
	var total time.Duration
	for _, m := range run.History {
		d, err := tm.RoundDuration(m.ParticipantIDs, spec.LocalSteps)
		if err != nil {
			t.Fatal(err)
		}
		total += d
	}
	prev := time.Duration(0)
	for _, pt := range points {
		if pt.Elapsed <= prev {
			t.Fatal("timeline not strictly increasing")
		}
		prev = pt.Elapsed
	}
	if points[len(points)-1].Elapsed > total {
		t.Fatal("last point beyond total duration")
	}
	small, err := HeterogeneousTimings(stats.NewRNG(5), DefaultTimingConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Timeline(run.History, spec.LocalSteps); err == nil {
		t.Fatal("expected an error for a timing model smaller than the fleet")
	}
}
