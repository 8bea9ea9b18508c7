package unbiasedfl_test

import (
	"context"
	"errors"
	"math"
	"reflect"
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
	if got := sess.Environment().Opts.NumClients; got != 5 {
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

// TestRegistryPricingThroughSession prices the proposed scheme through the
// façade's registry lookup on a session's game and trains under it.
func TestRegistryPricingThroughSession(t *testing.T) {
	ctx := context.Background()
	sess, err := unbiasedfl.NewSession(ctx, unbiasedfl.Setup1, tinyFacadeOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := unbiasedfl.SchemeByName(unbiasedfl.SchemeNameProposed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ps.Price(sess.Environment().Params)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != unbiasedfl.SchemeNameProposed {
		t.Fatalf("outcome labelled %q", out.Name)
	}
	run, err := sess.RunScheme(ctx, unbiasedfl.SchemeNameProposed)
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

// TestFacadeScenarioAndBackendEntryPoints covers the façade's scenario
// library and generator, the fleet-shard option and the backend parser, one
// row each, refusals included.
func TestFacadeScenarioAndBackendEntryPoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"Scenarios and ScenarioByName", func(t *testing.T) {
			all := unbiasedfl.Scenarios()
			if len(all) == 0 {
				t.Fatal("empty scenario library")
			}
			for _, sc := range all {
				got, err := unbiasedfl.ScenarioByName(sc.Name)
				if err != nil {
					t.Fatalf("%s: %v", sc.Name, err)
				}
				if !reflect.DeepEqual(got, sc) {
					t.Fatalf("ScenarioByName(%q) = %+v, the library holds %+v", sc.Name, got, sc)
				}
			}
			if _, err := unbiasedfl.ScenarioByName("no-such-scenario"); err == nil {
				t.Fatal("ScenarioByName accepted an unknown name")
			}
		}},
		{"GenerateScenario", func(t *testing.T) {
			a := unbiasedfl.GenerateScenario([]byte("facade-seed"))
			if err := a.Validate(); err != nil {
				t.Fatalf("generated scenario invalid: %v", err)
			}
			if b := unbiasedfl.GenerateScenario([]byte("facade-seed")); !reflect.DeepEqual(a, b) {
				t.Fatalf("one seed, two worlds: %+v vs %+v", a, b)
			}
			if c := unbiasedfl.GenerateScenario([]byte("other-seed")); reflect.DeepEqual(a, c) {
				t.Fatal("two seeds, one world")
			}
		}},
		{"WithFleetShards", func(t *testing.T) {
			opts := append(tinyFacadeOptions(), unbiasedfl.WithClients(6), unbiasedfl.WithFleetShards(2))
			sess, err := unbiasedfl.NewSession(context.Background(), unbiasedfl.Setup1, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			fed := sess.Environment().Fed
			for n := range fed.Clients {
				if fed.Clients[n] != fed.Clients[n%2] {
					t.Fatalf("client %d does not share shard %d", n, n%2)
				}
			}
			eq, err := sess.Equilibrium()
			if err != nil {
				t.Fatal(err)
			}
			if len(fed.Clients) != 6 || len(eq.Q) != 6 {
				t.Fatalf("%d clients, %d priced, want 6 of each", len(fed.Clients), len(eq.Q))
			}
			opts = append(tinyFacadeOptions(), unbiasedfl.WithClients(6), unbiasedfl.WithFleetShards(7))
			if _, err := unbiasedfl.NewSession(context.Background(), unbiasedfl.Setup1, opts...); err == nil {
				t.Fatal("NewSession accepted more fleet shards than clients")
			}
		}},
		{"ParseBackend", func(t *testing.T) {
			for name, want := range map[string]unbiasedfl.Backend{
				"": unbiasedfl.BackendLocal, "local": unbiasedfl.BackendLocal, "cluster": unbiasedfl.BackendCluster,
			} {
				if got, err := unbiasedfl.ParseBackend(name); err != nil || got != want {
					t.Fatalf("ParseBackend(%q) = %v, %v; want %v", name, got, err, want)
				}
			}
			if _, err := unbiasedfl.ParseBackend("grpc"); err == nil {
				t.Fatal("ParseBackend accepted an unknown backend")
			}
		}},
	} {
		t.Run(tc.name, tc.run)
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

// TestSessionBoundFidelity drives Session.BoundFidelity at the smallest
// scale: one Theorem-1 bound and one trained loss per profile, both finite
// and positive, the profiles ordered from low to high participation so the
// bound falls overall, and a Kendall tau in [−1, 1].
func TestSessionBoundFidelity(t *testing.T) {
	ctx := context.Background()
	sess, err := unbiasedfl.NewSession(ctx, unbiasedfl.Setup1, tinyFacadeOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.BoundFidelity(ctx, 1); err == nil {
		t.Fatal("one profile accepted")
	}
	const profiles = 4
	res, err := sess.BoundFidelity(ctx, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bounds) != profiles || len(res.Losses) != profiles {
		t.Fatalf("%d bounds and %d losses for %d profiles", len(res.Bounds), len(res.Losses), profiles)
	}
	for i := range res.Bounds {
		if b, l := res.Bounds[i], res.Losses[i]; !(b > 0) || math.IsInf(b, 0) || !(l > 0) || math.IsInf(l, 0) {
			t.Fatalf("profile %d: bound %v, loss %v", i, b, l)
		}
	}
	if first, last := res.Bounds[0], res.Bounds[profiles-1]; !(last < first) {
		t.Fatalf("bound %v at the lowest participation, %v at the highest", first, last)
	}
	if tau := res.KendallTau; !(tau >= -1 && tau <= 1) {
		t.Fatalf("Kendall tau %v", tau)
	}
	t.Logf("bounds %v, losses %v, tau %v", res.Bounds, res.Losses, res.KendallTau)
}

// TestSessionConvergenceRate drives Session.ConvergenceRate at the smallest
// scale: one gap per horizon, in ascending order of rounds whatever order
// they were asked in, none negative, and the gap falling as R grows.
func TestSessionConvergenceRate(t *testing.T) {
	ctx := context.Background()
	sess, err := unbiasedfl.NewSession(ctx, unbiasedfl.Setup1, tinyFacadeOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ConvergenceRate(ctx, nil); err == nil {
		t.Fatal("no horizons accepted")
	}
	points, err := sess.ConvergenceRate(ctx, []int{160, 10, 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points for 3 horizons", len(points))
	}
	for i, want := range []int{10, 40, 160} {
		if points[i].Rounds != want || !(points[i].Gap >= 0) {
			t.Fatalf("point %d: %+v, want %d rounds and a gap >= 0", i, points[i], want)
		}
		if i > 0 && !(points[i].Gap < points[i-1].Gap) {
			t.Fatalf("gap %v at R=%d does not fall below %v at R=%d",
				points[i].Gap, points[i].Rounds, points[i-1].Gap, points[i-1].Rounds)
		}
	}
	t.Logf("gaps %+v", points)
}
