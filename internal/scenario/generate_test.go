package scenario

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/tensor"
	"unbiasedfl/internal/testutil"
)

// genSeed derives a deterministic, varied byte seed for table-driven
// generation: a few words of splitmix output plus a variable-length tail, so
// the generator sees short, long, and oddly sized inputs.
func genSeed(i int) []byte {
	n := 8 + (i*7)%25 // 8..32 bytes
	out := make([]byte, n)
	x := uint64(i)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	for off := 0; off < n; off += 8 {
		x = splitmix(x)
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], x)
		copy(out[off:], word[:])
	}
	return out
}

// TestGenerateAlwaysValid is the generator's core property: every seed —
// empty, short, long, degenerate — yields a scenario that passes Validate,
// and the same seed always yields the same scenario.
func TestGenerateAlwaysValid(t *testing.T) {
	seeds := [][]byte{nil, {}, {0}, {0xFF}, []byte("a"), make([]byte, 1024)}
	for i := 0; i < 300; i++ {
		seeds = append(seeds, genSeed(i))
	}
	kinds := map[FaultKind]int{}
	for i, seed := range seeds {
		sc := Generate(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d (%x): generated invalid scenario: %v\n%+v", i, seed, err, sc)
		}
		if again := Generate(seed); !reflect.DeepEqual(sc, again) {
			t.Fatalf("seed %d: generation is not deterministic", i)
		}
		for _, f := range sc.Faults {
			kinds[f.Kind]++
		}
	}
	// The pool must actually exercise every fault kind, adversaries included —
	// a generator that never draws a poisoner is not fuzzing the theorem.
	for _, k := range []FaultKind{
		FaultStraggler, FaultDropout, FaultFlaky, FaultJoin, FaultLeave,
		FaultMisreport, FaultDeviate, FaultPoison,
	} {
		if kinds[k] == 0 {
			t.Errorf("300+ generated scenarios never drew a %v fault", k)
		}
	}
}

// TestGenerateRespectsOptions: the restriction knobs metamorphic relations
// rely on must actually restrict.
func TestGenerateRespectsOptions(t *testing.T) {
	opts := GenOptions{MaxClients: 5, MaxRounds: 8, NoMembership: true, NoAdversaries: true}
	for i := 0; i < 200; i++ {
		sc := GenerateWith(genSeed(i), opts)
		if sc.Clients > 5 || sc.Rounds > 8 {
			t.Fatalf("seed %d: %d clients / %d rounds exceed the caps", i, sc.Clients, sc.Rounds)
		}
		for _, f := range sc.Faults {
			switch f.Kind {
			case FaultJoin, FaultLeave:
				t.Fatalf("seed %d: membership fault despite NoMembership", i)
			case FaultMisreport, FaultDeviate, FaultPoison:
				t.Fatalf("seed %d: adversarial fault despite NoAdversaries", i)
			}
		}
	}
}

// checkReplayUnbiased funnels one replay's evidence through the z-test: per
// probe, the sample mean of the projected aggregates must be statistically
// consistent with the analytic expectation from Lemma 1. The z statistic
// divides by the ANALYTIC standard error (VarProj is exact — the coins'
// probabilities and the deltas are all known), not the sample's own spread:
// a finite sample in which a near-clamp client happened never to flip its
// coin underestimates its variance badly enough to manufacture z ≈ 10 from a
// perfectly unbiased estimator, a false positive the fuzzer actually found
// (corpus entry f304f090aba4eabe). With the exact spread in the denominator
// the test is immune to that, and a genuinely mis-weighted rule still drifts
// z → ∞ as reps grow.
func checkReplayUnbiased(t *testing.T, rep *Replay, zmax float64) {
	t.Helper()
	for k, xs := range rep.Samples {
		var w testutil.Welford
		for _, x := range xs {
			w.Add(x)
		}
		tol := 1e-9 * math.Max(1, math.Abs(rep.TargetProj[k]))
		se := math.Sqrt(rep.VarProj[k] / float64(w.Count()))
		diff := math.Abs(w.Mean() - rep.TargetProj[k])
		if se == 0 {
			// Every coin is clamped (p ∈ {0,1}): the aggregate is
			// deterministic and must hit the target exactly.
			if diff > tol {
				t.Errorf("%s round %d probe %d: deterministic aggregate %.7g != target %.7g",
					rep.Scenario, rep.Round, k, w.Mean(), rep.TargetProj[k])
			}
			continue
		}
		if diff > tol && diff/se > zmax {
			t.Errorf("%s round %d probe %d: biased estimator: mean %.7g vs target %.7g (z=%.2f over %d reps, analytic se=%.3g, |z|max %.2f)",
				rep.Scenario, rep.Round, k, w.Mean(), rep.TargetProj[k], diff/se, w.Count(), se, zmax)
		}
	}
}

// TestGeneratedScenariosUnbiased is the tentpole property: for 110 generated
// worlds — random fleets, economics skew, fault schedules, membership churn,
// strategic deviation, any registered scheme — the engine's sampling/weighting
// estimator stays an unbiased estimator of Lemma 1's analytic expectation.
// Everything is seeded; a failure reproduces from the subtest name alone.
func TestGeneratedScenariosUnbiased(t *testing.T) {
	const worlds = 110
	ctx := context.Background()
	for i := 0; i < worlds; i++ {
		i := i
		t.Run(fmt.Sprintf("world-%03d", i), func(t *testing.T) {
			t.Parallel()
			sc := GenerateWith(genSeed(i), GenOptions{MaxClients: 8, MaxRounds: 12})
			// Replay a mid-run round too, not just round 0: dropouts and
			// membership events only bite after they fire.
			for _, round := range []int{0, sc.Rounds / 2} {
				rep, err := ReplayAggregate(ctx, sc, ReplayConfig{Reps: 200, Round: round, Probes: 3})
				if err != nil {
					t.Fatalf("replay round %d: %v", round, err)
				}
				checkReplayUnbiased(t, rep, 4.5)
			}
		})
	}
}

// TestNaiveInverseAggregatorFailsZTest proves the checker has teeth: the
// deliberately biased aggregation rule (which divides by the participant
// count) must be flagged on a scenario where participation is genuinely
// random. A checker that passes both the unbiased and the naive rule measures
// nothing.
func TestNaiveInverseAggregatorFailsZTest(t *testing.T) {
	ctx := context.Background()
	// Generated worlds occasionally price every q to 1 (no randomness, both
	// rules coincide), so scan a few seeds for one with interior q and assert
	// the naive rule fails there.
	for i := 0; i < 40; i++ {
		sc := GenerateWith(genSeed(1000+i), GenOptions{MaxClients: 8, MaxRounds: 12, NoAdversaries: true, NoMembership: true})
		rep, err := ReplayAggregate(ctx, sc, ReplayConfig{Reps: 300, Aggregator: naiveInverseAggregator{}})
		if err != nil {
			t.Fatal(err)
		}
		interior := false
		for n, qn := range rep.PricedQ {
			if rep.Active[n] && qn > 0.05 && qn < 0.95 {
				interior = true
			}
		}
		if !interior {
			continue
		}
		biased := false
		for k, xs := range rep.Samples {
			var w testutil.Welford
			for _, x := range xs {
				w.Add(x)
			}
			tol := 1e-9 * math.Max(1, math.Abs(rep.TargetProj[k]))
			if testutil.CheckUnbiased(&w, rep.TargetProj[k], 4.5, tol) != nil {
				biased = true
			}
		}
		if !biased {
			t.Fatalf("world %d: NaiveInverseAggregator slipped past the z-test (q=%v): the checker has no teeth",
				i, rep.PricedQ)
		}
		return // one genuine detection is the proof
	}
	t.Fatal("no generated world had interior participation probabilities to test against")
}

// TestDeviationShiftsTarget pins the metamorphic split the adversary
// introduces: with a strategic deviator the estimator's expectation moves away
// from the full-participation gradient (TargetProj ≠ FullProj) — and the
// z-test must still accept the sampled aggregates against the *shifted*
// target, because Lemma 1's expectation formula holds for any true p.
func TestDeviationShiftsTarget(t *testing.T) {
	ctx := context.Background()
	base := Scenario{
		Name:    "deviation-split",
		Setup:   experiment.Setup2,
		Clients: 5, TotalSamples: 500,
		Rounds: 8, LocalSteps: 2, BatchSize: 8,
		EvalEvery: 8, Calibration: 1,
		Seed: 424242,
		Faults: []ClientFault{
			{Client: 1, Kind: FaultDeviate, Factor: 0.4},
		},
	}
	rep, err := ReplayAggregate(ctx, base, ReplayConfig{Reps: 250})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrueP[1] >= rep.PricedQ[1] {
		t.Fatalf("deviator's true p %v not depressed below priced q %v", rep.TrueP[1], rep.PricedQ[1])
	}
	shifted := false
	for k := range rep.TargetProj {
		if !testutil.AlmostEqual(rep.TargetProj[k], rep.FullProj[k], 1e-6) {
			shifted = true
		}
	}
	if !shifted {
		t.Fatal("deviation left the analytic target equal to the full-participation step on every probe")
	}
	checkReplayUnbiased(t, rep, 4.5)
}

// TestGeneratedFaultFreeTwinRelation is the fault-free-twin metamorphic
// relation on generated worlds: strip the fault schedule and the healthy
// clients' participation pattern must not move — the stream-discipline
// invariant the sampler promises, now under generated economics and fleets.
func TestGeneratedFaultFreeTwinRelation(t *testing.T) {
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		i := i
		t.Run(fmt.Sprintf("world-%d", i), func(t *testing.T) {
			t.Parallel()
			sc := GenerateWith(genSeed(2000+i), GenOptions{MaxClients: 6, MaxRounds: 10, NoMembership: true, NoAdversaries: true})
			faulted := map[int]bool{}
			for _, f := range sc.Faults {
				faulted[f.Client] = true
			}
			twin := sc
			twin.Faults = nil
			got, err := RunWith(ctx, sc, RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunWith(ctx, twin, RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n < sc.Clients; n++ {
				if faulted[n] {
					continue
				}
				if got.Participation[n] != want.Participation[n] {
					t.Errorf("healthy client %d participation %d != fault-free twin's %d: fault coins displaced the willingness stream",
						n, got.Participation[n], want.Participation[n])
				}
			}
		})
	}
}

// traceAtParallelism runs the scenario with GOMAXPROCS pinned and returns the
// canonical trace bytes.
func traceAtParallelism(t *testing.T, ctx context.Context, sc Scenario, procs int) []byte {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	trace, err := RunWith(ctx, sc, RunConfig{})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	b, err := trace.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGeneratedGOMAXPROCSEquality replays generated worlds at parallelism 1
// and 4: the canonical trace must be byte-identical — the determinism
// guarantee, extended from the curated library to arbitrary generated worlds
// (adversaries included).
func TestGeneratedGOMAXPROCSEquality(t *testing.T) {
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		sc := GenerateWith(genSeed(3000+i), GenOptions{MaxClients: 6, MaxRounds: 10})
		a := traceAtParallelism(t, ctx, sc, 1)
		b := traceAtParallelism(t, ctx, sc, 4)
		if string(a) != string(b) {
			t.Fatalf("world %d (%s): GOMAXPROCS 1 and 4 traces differ", i, sc.Name)
		}
	}
}

// TestGeneratedBackendEquality runs generated worlds — adversaries included —
// on the in-process backend and on a real loopback TCP cluster: the canonical
// traces must be byte-identical, extending the backend-equivalence matrix
// from the curated library to arbitrary generated worlds.
func TestGeneratedBackendEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster boot in -short mode")
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		sc := GenerateWith(genSeed(4000+i), GenOptions{MaxClients: 5, MaxRounds: 8})
		local, err := RunWith(ctx, sc, RunConfig{})
		if err != nil {
			t.Fatalf("world %d local: %v", i, err)
		}
		cluster, err := RunWith(ctx, sc, RunConfig{
			Backend: BackendCluster, Cluster: ClusterConfig{Timeout: 30 * time.Second},
		})
		if err != nil {
			t.Fatalf("world %d cluster: %v", i, err)
		}
		a, err := local.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		b, err := cluster.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("world %d (%s): local and cluster traces differ", i, sc.Name)
		}
	}
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
