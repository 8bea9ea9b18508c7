package unbiasedfl_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"unbiasedfl"
)

// premiumScheme is a third-party pricing mechanism defined entirely outside
// internal/game: it pays a flat premium proportional to each client's
// gradient-quality estimate and lets the game evaluate the responses.
type premiumScheme struct{}

func (premiumScheme) Name() string { return "premium" }

func (premiumScheme) Price(p *unbiasedfl.GameParams) (*unbiasedfl.Outcome, error) {
	prices := make([]float64, p.N())
	for i := range prices {
		prices[i] = p.B * p.G[i] / float64(p.N()) / 10
	}
	return p.OutcomeFor("premium", prices)
}

// TestThirdPartySchemeViaPublicAPI is the acceptance criterion end-to-end:
// a scheme registered through the façade participates in CompareSchemes and
// RunSweep with no internal/game changes.
func TestThirdPartySchemeViaPublicAPI(t *testing.T) {
	ctx := context.Background()
	if err := unbiasedfl.RegisterScheme(premiumScheme{}); err != nil {
		t.Fatal(err)
	}
	defer unbiasedfl.UnregisterScheme("premium")

	sess, err := unbiasedfl.NewSession(ctx, unbiasedfl.Setup1,
		append(tinyFacadeOptions(),
			unbiasedfl.WithRounds(10),
			unbiasedfl.WithSweepScheme("premium"))...)
	if err != nil {
		t.Fatal(err)
	}

	cmp, err := sess.CompareSchemes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Schemes) != 4 {
		t.Fatalf("schemes %d, want builtin trio + premium", len(cmp.Schemes))
	}
	premium := cmp.Scheme("premium")
	if premium == nil || premium.FinalLoss <= 0 {
		t.Fatalf("premium scheme did not train: %+v", premium)
	}

	// RunSweep retrains under the session's sweep scheme — the third-party
	// one, via WithSweepScheme.
	points, err := sess.RunSweep(ctx, unbiasedfl.SweepB, []float64{20, 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].FinalLoss <= 0 {
		t.Fatalf("sweep under premium: %+v", points)
	}

	// Individual runs address it by name too.
	run, err := sess.RunScheme(ctx, "premium")
	if err != nil {
		t.Fatal(err)
	}
	if run.Scheme != "premium" {
		t.Fatalf("scheme name %q", run.Scheme)
	}
}

// TestSessionUnknownSweepScheme rejects a bad WithSweepScheme up front.
func TestSessionUnknownSweepScheme(t *testing.T) {
	_, err := unbiasedfl.NewSession(context.Background(), unbiasedfl.Setup1,
		append(tinyFacadeOptions(), unbiasedfl.WithSweepScheme("no-such"))...)
	if err == nil {
		t.Fatal("expected unknown-scheme error")
	}
}

// TestSessionCancellation is the façade-level cancellation check: a running
// comparison stops promptly with ctx.Err().
func TestSessionCancellation(t *testing.T) {
	sess, err := unbiasedfl.NewSession(context.Background(), unbiasedfl.Setup1,
		append(tinyFacadeOptions(), unbiasedfl.WithRounds(100000))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sess.CompareSchemes(ctx)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("comparison did not stop after cancellation")
	}
}

// TestSessionObserverStream smoke-tests the façade observer wiring and its
// determinism across identical sessions.
func TestSessionObserverStream(t *testing.T) {
	ctx := context.Background()
	stream := func() []string {
		var events []string
		sess, err := unbiasedfl.NewSession(ctx, unbiasedfl.Setup1,
			append(tinyFacadeOptions(),
				unbiasedfl.WithRounds(10),
				unbiasedfl.WithObserver(unbiasedfl.ObserverFunc(func(e unbiasedfl.Event) {
					switch ev := e.(type) {
					case unbiasedfl.SchemeSolved:
						events = append(events, "solved:"+ev.Scheme)
					case unbiasedfl.RoundEnd:
						events = append(events, fmt.Sprintf("round:%s:%d:%.9f", ev.Scheme, ev.Round, ev.Loss))
					case unbiasedfl.SchemeDone:
						events = append(events, "done:"+ev.Scheme)
					case unbiasedfl.SweepPointDone:
						events = append(events, fmt.Sprintf("sweep:%d:%.0f", ev.Index, ev.Value))
					}
				})))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.RunScheme(ctx, unbiasedfl.SchemeNameProposed); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.EquilibriumSweep(ctx, unbiasedfl.SweepV, []float64{1000, 4000}); err != nil {
			t.Fatal(err)
		}
		return events
	}
	a := stream()
	if len(a) == 0 {
		t.Fatal("no events")
	}
	b := stream()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("event streams differ:\n  a: %v\n  b: %v", a, b)
	}
}

// TestSessionBackendEquivalence is the façade-level backend contract: the
// same session configuration run on the in-process backend and on the TCP
// cluster backend must produce bit-identical scheme results — the unified
// engine runs one round protocol on both.
func TestSessionBackendEquivalence(t *testing.T) {
	ctx := context.Background()
	run := func(b unbiasedfl.Backend) *unbiasedfl.SchemeRun {
		sess, err := unbiasedfl.NewSession(ctx, unbiasedfl.Setup2,
			unbiasedfl.WithClients(4),
			unbiasedfl.WithTotalSamples(400),
			unbiasedfl.WithRounds(8),
			unbiasedfl.WithLocalSteps(2),
			unbiasedfl.WithRuns(1),
			unbiasedfl.WithRunConfig(unbiasedfl.RunConfig{Backend: b}),
		)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sess.RunScheme(ctx, unbiasedfl.SchemeNameProposed)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	local := run(unbiasedfl.BackendLocal)
	cluster := run(unbiasedfl.BackendCluster)
	if local.FinalLoss != cluster.FinalLoss || local.FinalAccuracy != cluster.FinalAccuracy {
		t.Fatalf("backends disagree: local loss/acc %v/%v, cluster %v/%v",
			local.FinalLoss, local.FinalAccuracy, cluster.FinalLoss, cluster.FinalAccuracy)
	}
	if !reflect.DeepEqual(local.Points, cluster.Points) {
		t.Fatal("timed trajectories differ across backends")
	}
}

// TestSessionDurableElasticEquivalence pins the scheme-run side of the one
// launch path: a two-leg session under a checkpoint prefix, cancelled from
// the observer part-way through the second leg and rerun with Resume, must
// return exactly what the uninterrupted session returns — for a fixed roster
// and for a plan with one join and one leave, flat and in groups of two —
// and the elastic run must not depend on the backend.
func TestSessionDurableElasticEquivalence(t *testing.T) {
	churn := &unbiasedfl.MembershipPlan{
		Initial: []int{0, 1, 2, 3, 5},
		Events: []unbiasedfl.MembershipEvent{
			{Round: 3, Join: []int{4}},
			{Round: 6, Leave: []int{1}},
		},
	}
	const rounds, cancelAt = 10, 5
	// run launches one session and returns its scheme run and how many
	// rounds it executed; with interrupt set it cancels the session when
	// round cancelAt of the second leg ends.
	run := func(t *testing.T, cfg unbiasedfl.RunConfig, plan *unbiasedfl.MembershipPlan, interrupt bool) (*unbiasedfl.SchemeRun, int, error) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		executed := 0
		sess, err := unbiasedfl.NewSession(ctx, unbiasedfl.Setup1,
			unbiasedfl.WithClients(6),
			unbiasedfl.WithTotalSamples(600),
			unbiasedfl.WithRounds(rounds),
			unbiasedfl.WithLocalSteps(2),
			unbiasedfl.WithEvalEvery(2),
			unbiasedfl.WithCalibrationRounds(2),
			unbiasedfl.WithRuns(2),
			unbiasedfl.WithMembership(plan),
			unbiasedfl.WithRunConfig(cfg),
			unbiasedfl.WithObserver(unbiasedfl.ObserverFunc(func(e unbiasedfl.Event) {
				if r, ok := e.(unbiasedfl.RoundEnd); ok {
					executed++
					if interrupt && r.Run == 1 && r.Round == cancelAt {
						cancel()
					}
				}
			})))
		if err != nil {
			t.Fatal(err)
		}
		sr, err := sess.RunScheme(ctx, unbiasedfl.SchemeNameProposed)
		return sr, executed, err
	}

	var elastic []*unbiasedfl.SchemeRun
	for _, tc := range []struct {
		name    string
		plan    *unbiasedfl.MembershipPlan
		backend unbiasedfl.Backend
		group   int
	}{
		{"fixed/flat", nil, unbiasedfl.BackendLocal, 0},
		{"fixed/group2", nil, unbiasedfl.BackendLocal, 2},
		{"elastic/flat", churn, unbiasedfl.BackendLocal, 0},
		{"elastic/group2", churn, unbiasedfl.BackendLocal, 2},
		{"elastic/cluster/flat", churn, unbiasedfl.BackendCluster, 0},
		{"elastic/cluster/group2", churn, unbiasedfl.BackendCluster, 2},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := unbiasedfl.RunConfig{Backend: tc.backend, GroupSize: tc.group}
			want, _, err := run(t, cfg, tc.plan, false)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Checkpoint.Path = filepath.Join(t.TempDir(), "leg")
			if _, _, err := run(t, cfg, tc.plan, true); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted session: got %v, want context.Canceled", err)
			}
			cfg.Checkpoint.Resume = true
			got, executed, err := run(t, cfg, tc.plan, false)
			if err != nil {
				t.Fatal(err)
			}
			// The finished first leg replays from its checkpoint and the second
			// picks up where it was cut: a rerun from scratch would execute
			// 2·rounds and prove nothing.
			if executed < 1 || executed > rounds-cancelAt {
				t.Fatalf("resumed session executed %d rounds, want the second leg's last %d or %d",
					executed, rounds-cancelAt-1, rounds-cancelAt)
			}
			if got.FinalLoss != want.FinalLoss || !reflect.DeepEqual(got.Points, want.Points) {
				t.Fatalf("resumed session differs from the uninterrupted one:\n got %v %v\nwant %v %v",
					got.FinalLoss, got.Points, want.FinalLoss, want.Points)
			}
			if tc.plan != nil {
				elastic = append(elastic, got)
			}
		})
	}
	for _, r := range elastic[1:] {
		if r.FinalLoss != elastic[0].FinalLoss || !reflect.DeepEqual(r.Points, elastic[0].Points) {
			t.Fatal("the elastic run depends on the backend or the group size")
		}
	}
}
