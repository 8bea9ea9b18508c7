package unbiasedfl_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"unbiasedfl"
)

// tinyFacadeOptions keeps the façade smoke tests fast.
func tinyFacadeOptions() []unbiasedfl.Option {
	return []unbiasedfl.Option{
		unbiasedfl.WithClients(5),
		unbiasedfl.WithTotalSamples(600),
		unbiasedfl.WithRounds(25),
		unbiasedfl.WithLocalSteps(5),
		unbiasedfl.WithBatchSize(16),
		unbiasedfl.WithEvalEvery(5),
		unbiasedfl.WithCalibrationRounds(2),
		unbiasedfl.WithSeed(2),
		unbiasedfl.WithRuns(1),
	}
}

func TestSessionEndToEnd(t *testing.T) {
	ctx := context.Background()
	sess, err := unbiasedfl.NewSession(ctx, unbiasedfl.Setup1, tinyFacadeOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Options().NumClients; got != 5 {
		t.Fatalf("functional options not applied: clients %d", got)
	}
	eq, err := sess.Equilibrium()
	if err != nil {
		t.Fatal(err)
	}
	if len(eq.Q) != 5 || len(eq.P) != 5 {
		t.Fatalf("equilibrium sizes %d/%d", len(eq.Q), len(eq.P))
	}
	run, err := sess.RunScheme(ctx, unbiasedfl.SchemeNameProposed)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Points) == 0 {
		t.Fatal("no trajectory points")
	}
	if run.FinalLoss <= 0 {
		t.Fatalf("final loss %v", run.FinalLoss)
	}
	if run.Scheme != unbiasedfl.SchemeNameProposed {
		t.Fatalf("scheme name %q", run.Scheme)
	}
}

func TestSessionCompareAndSweep(t *testing.T) {
	ctx := context.Background()
	sess, err := unbiasedfl.NewSession(ctx, unbiasedfl.Setup2, tinyFacadeOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := sess.CompareSchemes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Schemes) != 3 {
		t.Fatalf("schemes %d", len(cmp.Schemes))
	}
	if cmp.Scheme(unbiasedfl.SchemeNameProposed) == nil ||
		cmp.Scheme(unbiasedfl.SchemeNameUniform) == nil ||
		cmp.Scheme(unbiasedfl.SchemeNameWeighted) == nil {
		t.Fatal("missing built-in scheme in comparison")
	}
	points, err := sess.EquilibriumSweep(ctx, unbiasedfl.SweepB, []float64{10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("sweep points %d", len(points))
	}
	if points[1].MeanQ < points[0].MeanQ {
		t.Fatal("mean q should rise with budget")
	}
}

// TestDeprecatedFacade keeps the v0 package-level entry points (ctx-threaded
// now) working against the registry-backed internals.
func TestDeprecatedFacade(t *testing.T) {
	ctx := context.Background()
	opts := unbiasedfl.Options{
		NumClients:   5,
		TotalSamples: 600,
		Rounds:       25,
		LocalSteps:   5,
		BatchSize:    16,
		EvalEvery:    5,
		Calibration:  2,
		Seed:         2,
		Runs:         1,
	}
	env, err := unbiasedfl.NewSetup(ctx, unbiasedfl.Setup1, opts)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := unbiasedfl.SchemeByName(unbiasedfl.SchemeNameProposed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ps.Price(env.Params)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != unbiasedfl.SchemeNameProposed {
		t.Fatalf("outcome labelled %q", out.Name)
	}
	run, err := unbiasedfl.RunScheme(ctx, env, unbiasedfl.SchemeNameProposed)
	if err != nil {
		t.Fatal(err)
	}
	if run.FinalLoss <= 0 {
		t.Fatalf("final loss %v", run.FinalLoss)
	}
}

func TestFacadeDefaults(t *testing.T) {
	d := unbiasedfl.DefaultOptions()
	p := unbiasedfl.PaperOptions()
	if d.NumClients <= 1 || p.NumClients != 40 || p.Rounds != 1000 {
		t.Fatalf("unexpected defaults: %+v %+v", d, p)
	}
	if unbiasedfl.Setup1.String() == "" || unbiasedfl.BackendCluster.String() != "cluster" {
		t.Fatal("stringers broken")
	}
	names := unbiasedfl.SchemeNames()
	if len(names) < 3 || names[0] != unbiasedfl.SchemeNameProposed {
		t.Fatalf("registry names %v", names)
	}
}

// TestSessionIdentityAndClose pins the serving seam: every session gets a
// unique stable ID, Close is idempotent, and a closed session refuses all
// work with ErrSessionClosed.
func TestSessionIdentityAndClose(t *testing.T) {
	ctx := context.Background()
	a, err := unbiasedfl.NewSession(ctx, unbiasedfl.Setup1, tinyFacadeOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := unbiasedfl.NewSession(ctx, unbiasedfl.Setup1, tinyFacadeOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() == "" || b.ID() == "" {
		t.Fatalf("empty session IDs: %q, %q", a.ID(), b.ID())
	}
	if a.ID() == b.ID() {
		t.Fatalf("sessions share ID %q", a.ID())
	}
	if !strings.HasPrefix(a.ID(), "session-") {
		t.Fatalf("session ID %q, want session-N", a.ID())
	}

	if err := a.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	if a.ID() == "" {
		t.Fatal("ID lost after Close")
	}

	if _, err := a.Equilibrium(); !errors.Is(err, unbiasedfl.ErrSessionClosed) {
		t.Fatalf("Equilibrium after Close: %v, want ErrSessionClosed", err)
	}
	if _, err := a.RunScheme(ctx, "proposed"); !errors.Is(err, unbiasedfl.ErrSessionClosed) {
		t.Fatalf("RunScheme after Close: %v, want ErrSessionClosed", err)
	}

	// The sibling session is unaffected.
	if _, err := b.Equilibrium(); err != nil {
		t.Fatalf("open session Equilibrium: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}
