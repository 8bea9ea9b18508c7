package fl

import (
	"context"
	"errors"
	"testing"
	"time"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/testutil"
)

// cancelSpec builds a run big enough that it takes long enough to be
// cancelled mid-flight.
func cancelSpec(t *testing.T) engine.Spec {
	t.Helper()
	fed := testFederation(t, 3, 8)
	m := testModel(t, fed)
	q := make([]float64, fed.NumClients())
	for i := range q {
		q[i] = 0.9
	}
	sampler, err := NewBernoulliSampler(q, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.Rounds = 100000 // far more than any test will let finish
	cfg.LocalSteps = 8
	return specOf(m, fed, cfg, sampler, engine.UnbiasedAggregator{})
}

// TestRunContextCancelMidRound cancels a run in flight and asserts that it
// returns ctx.Err() promptly and leaves no pool goroutines behind.
func TestRunContextCancelMidRound(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	spec := cancelSpec(t)

	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		res *engine.RunResult
		err error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		res, err := runLocal(ctx, spec, true)
		done <- result{res, err}
	}()
	time.Sleep(30 * time.Millisecond) // let training get into its rounds
	cancel()
	select {
	case r := <-done:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", r.err)
		}
		if r.res != nil {
			t.Fatal("cancelled run returned a result")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	testutil.WaitNoLeaks(t, baseline, 5*time.Second)
}

// TestRunContextPreCancelled never starts training at all.
func TestRunContextPreCancelled(t *testing.T) {
	spec := cancelSpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runLocal(ctx, spec, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunContextDeadline exercises the deadline flavor of cancellation.
func TestRunContextDeadline(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	spec := cancelSpec(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := runLocal(ctx, spec, true)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	testutil.WaitNoLeaks(t, baseline, 5*time.Second)
}

// TestRunBackwardCompatible keeps the context-free path — a nil context —
// identical to a background-context run.
func TestRunBackwardCompatible(t *testing.T) {
	fed := testFederation(t, 5, 4)
	m := testModel(t, fed)
	sampler := fullSampler(t, fed.NumClients())
	cfg := defaultConfig()
	cfg.Rounds = 10
	cfg.LocalSteps = 3
	spec := specOf(m, fed, cfg, sampler, engine.UnbiasedAggregator{})
	var none context.Context
	a, err := runLocal(none, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runLocal(context.Background(), spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalLoss != b.FinalLoss {
		t.Fatalf("nil-context and background-context runs diverge: %v vs %v", a.FinalLoss, b.FinalLoss)
	}
}

// TestOnRoundStartHook checks the streaming hook fires once per round, in
// order, before the matching OnRound callback.
func TestOnRoundStartHook(t *testing.T) {
	fed := testFederation(t, 6, 4)
	m := testModel(t, fed)
	sampler := fullSampler(t, fed.NumClients())
	cfg := defaultConfig()
	cfg.Rounds = 7
	cfg.LocalSteps = 2
	var events []int // +round for starts, -(round+1) for ends
	spec := specOf(m, fed, cfg, sampler, engine.UnbiasedAggregator{})
	spec.OnRoundStart = func(round int) { events = append(events, round) }
	spec.OnRound = func(mtr engine.RoundMetrics) { events = append(events, -(mtr.Round + 1)) }
	if _, err := runLocal(context.Background(), spec, false); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2*cfg.Rounds {
		t.Fatalf("event count %d", len(events))
	}
	for r := 0; r < cfg.Rounds; r++ {
		if events[2*r] != r || events[2*r+1] != -(r+1) {
			t.Fatalf("round %d events out of order: %v", r, events)
		}
	}
}
