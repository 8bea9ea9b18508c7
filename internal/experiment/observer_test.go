package experiment

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"unbiasedfl/internal/game"
)

// recordingObserver flattens events into comparable strings.
type recordingObserver struct {
	events []string
}

func (r *recordingObserver) OnEvent(e Event) {
	switch ev := e.(type) {
	case SchemeSolved:
		r.events = append(r.events, fmt.Sprintf("solved:%s spend=%.6f", ev.Scheme, ev.Outcome.Spent))
	case RoundStart:
		r.events = append(r.events, fmt.Sprintf("start:%s r%d round%d", ev.Scheme, ev.Run, ev.Round))
	case RoundEnd:
		r.events = append(r.events, fmt.Sprintf("end:%s r%d round%d eval=%v loss=%.9f",
			ev.Scheme, ev.Run, ev.Round, ev.Evaluated, ev.Loss))
	case SchemeDone:
		r.events = append(r.events, fmt.Sprintf("done:%s final=%.9f", ev.Scheme, ev.Run.FinalLoss))
	case SweepPointDone:
		r.events = append(r.events, fmt.Sprintf("sweep:%v i%d v=%.1f loss=%.9f",
			ev.Kind, ev.Index, ev.Value, ev.Point.FinalLoss))
	default:
		r.events = append(r.events, fmt.Sprintf("unknown:%T", e))
	}
}

func fastObserverOptions() Options {
	o := tinyOptions()
	o.Rounds = 12
	o.EvalEvery = 4
	o.Runs = 2
	return o
}

// TestRunSchemeEventStream checks shape and internal consistency of the
// per-run event stream: solved first, then strictly alternating
// start/end per round per run, then done.
func TestRunSchemeEventStream(t *testing.T) {
	env, err := BuildSetup(context.Background(), Setup1, fastObserverOptions())
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingObserver{}
	if _, err := RunScheme(context.Background(), env, "proposed", rec); err != nil {
		t.Fatal(err)
	}
	wantLen := 1 + env.Opts.Runs*env.Opts.Rounds*2 + 1
	if len(rec.events) != wantLen {
		t.Fatalf("event count %d, want %d", len(rec.events), wantLen)
	}
	if rec.events[0][:7] != "solved:" {
		t.Fatalf("first event %q", rec.events[0])
	}
	if rec.events[len(rec.events)-1][:5] != "done:" {
		t.Fatalf("last event %q", rec.events[len(rec.events)-1])
	}
	i := 1
	for run := 0; run < env.Opts.Runs; run++ {
		for round := 0; round < env.Opts.Rounds; round++ {
			wantStart := fmt.Sprintf("start:proposed r%d round%d", run, round)
			if rec.events[i] != wantStart {
				t.Fatalf("event %d = %q, want %q", i, rec.events[i], wantStart)
			}
			i += 2 // the matching end: prefix-checked below
		}
	}
}

// TestObserverDeterministicOrder is the acceptance-criterion test: two
// identical comparisons and two identical parallel sweeps deliver exactly
// the same event sequence, event for event.
func TestObserverDeterministicOrder(t *testing.T) {
	opts := fastObserverOptions()
	stream := func() []string {
		env, err := BuildSetup(context.Background(), Setup1, opts)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingObserver{}
		if _, err := Compare(context.Background(), env, rec); err != nil {
			t.Fatal(err)
		}
		if _, err := Sweep(context.Background(), env, game.SchemeNameProposed, SweepV,
			[]float64{1000, 2000, 4000, 8000}, rec); err != nil {
			t.Fatal(err)
		}
		return rec.events
	}
	a := stream()
	b := stream()
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("event %d differs:\n  a: %q\n  b: %q", i, a[i], b[i])
			}
		}
		t.Fatalf("event streams differ in length: %d vs %d", len(a), len(b))
	}
}

// TestSweepEventsInOrder checks SweepPointDone indices arrive ascending
// even with many parallel workers racing to finish.
func TestSweepEventsInOrder(t *testing.T) {
	opts := tinyOptions()
	opts.Rounds = 8
	opts.Runs = 1
	env, err := BuildSetup(context.Background(), Setup1, opts)
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{500, 1000, 2000, 4000, 8000, 16000, 32000, 64000}
	rec := &recordingObserver{}
	if _, err := sweepParallel(context.Background(), env, game.SchemeNameProposed,
		SweepV, values, 8, rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != len(values) {
		t.Fatalf("event count %d", len(rec.events))
	}
	for i, e := range rec.events {
		want := fmt.Sprintf("i%d ", i)
		if !containsAt(e, want) {
			t.Fatalf("event %d out of order: %q", i, e)
		}
	}
}

func containsAt(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// constScheme is a minimal third-party pricing scheme for registry tests:
// it posts a constant price to everyone.
type constScheme struct {
	name  string
	price float64
}

func (c constScheme) Name() string { return c.name }

func (c constScheme) Price(p *game.Params) (*game.Outcome, error) {
	prices := make([]float64, p.N())
	for i := range prices {
		prices[i] = c.price
	}
	return p.OutcomeFor(c.name, prices)
}

// TestThirdPartySchemeParticipates is the acceptance-criterion test: a
// scheme registered from outside internal/game joins Compare and the
// scheme sweep with no game-layer changes.
func TestThirdPartySchemeParticipates(t *testing.T) {
	if err := game.RegisterScheme(constScheme{name: "const-test", price: 2}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if !game.UnregisterScheme("const-test") {
			t.Error("unregister failed")
		}
	}()

	opts := tinyOptions()
	opts.Rounds = 10
	opts.Runs = 1
	env, err := BuildSetup(context.Background(), Setup1, opts)
	if err != nil {
		t.Fatal(err)
	}

	cmp, err := Compare(context.Background(), env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Schemes) != 4 {
		t.Fatalf("schemes %d, want 4 (trio + const-test)", len(cmp.Schemes))
	}
	custom := cmp.Scheme("const-test")
	if custom == nil {
		t.Fatal("const-test missing from comparison")
	}
	if custom.FinalLoss <= 0 || len(custom.Points) == 0 {
		t.Fatalf("custom scheme did not train: %+v", custom)
	}
	// The built-in analytics still work with the extra scheme present.
	if _, _, err := cmp.UtilityGains(); err != nil {
		t.Fatal(err)
	}

	// The custom scheme drives a retraining sweep too.
	points, err := Sweep(context.Background(), env, "const-test",
		SweepB, []float64{20, 80}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("sweep points %d", len(points))
	}
	for _, p := range points {
		if p.FinalLoss <= 0 {
			t.Fatalf("sweep under custom scheme did not train: %+v", p)
		}
	}

	// Unknown names fail cleanly.
	if _, err := RunScheme(context.Background(), env, "no-such-scheme", nil); err == nil {
		t.Fatal("expected unknown-scheme error")
	}
	if _, err := Sweep(context.Background(), env, "no-such-scheme",
		SweepB, []float64{20}, nil); err == nil {
		t.Fatal("expected unknown-scheme error")
	}
}
