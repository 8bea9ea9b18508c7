package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/testutil"
)

// TestGoldenTraces is the standing regression suite: every library scenario
// replays through the full pipeline at GOMAXPROCS 1 and GOMAXPROCS 4, the
// two traces must be byte-identical to each other, and the result must match
// the committed golden file byte-for-byte. Regenerate with
//
//	go test ./internal/scenario/ -run TestGoldenTraces -update
func TestGoldenTraces(t *testing.T) {
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			traces := make(map[int][]byte, 2)
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				trace, err := RunWith(context.Background(), sc, RunConfig{})
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				b, err := trace.Canonical()
				if err != nil {
					t.Fatal(err)
				}
				traces[procs] = b
			}
			if !bytes.Equal(traces[1], traces[4]) {
				t.Fatal("trace differs between GOMAXPROCS 1 and 4: the pipeline lost bit-determinism")
			}
			testutil.Golden(t, sc.Name+".json", traces[4], *testutil.Update)
		})
	}
}

// TestTraceRoundTripsThroughJSON pins that a committed golden file decodes
// back into the trace that produced it.
func TestTraceRoundTripsThroughJSON(t *testing.T) {
	sc, err := ByName("baseline")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := RunWith(context.Background(), sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := back.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("trace does not round-trip through its canonical JSON")
	}
}

// TestStragglersStretchTimeNotParticipation compares a faulted scenario with
// its fault-free twin at the same seed: straggler delays must stretch the
// simulated wall clock while leaving the participation pattern — whose coin
// streams are drawn identically either way — untouched.
func TestStragglersStretchTimeNotParticipation(t *testing.T) {
	faulted, err := ByName("straggler-heavy")
	if err != nil {
		t.Fatal(err)
	}
	clean := faulted
	clean.Faults = nil

	ft, err := RunWith(context.Background(), faulted, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := RunWith(context.Background(), clean, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ft.SimTimeS <= ct.SimTimeS {
		t.Fatalf("straggler run simulated %.3fs, clean run %.3fs: stragglers must stretch the clock",
			ft.SimTimeS, ct.SimTimeS)
	}
	for n := range ft.Participation {
		if ft.Participation[n] != ct.Participation[n] {
			t.Fatalf("client %d participation changed %d -> %d: stragglers must not perturb sampling",
				n, ct.Participation[n], ft.Participation[n])
		}
	}
	if ft.FinalLoss != ct.FinalLoss {
		t.Fatal("straggler delays changed the trained model: timing must stay out of the training path")
	}
}

// TestDropoutSilencesClient verifies the dropout fault: the scheduled client
// participates in no round at or after its dropout round, and the trace
// records the schedule.
func TestDropoutSilencesClient(t *testing.T) {
	sc, err := ByName("adversarial-dropout")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := RunWith(context.Background(), sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	drops := map[int]int{}
	for _, f := range sc.Faults {
		if f.Kind == FaultDropout {
			drops[f.Client] = f.Round
		}
	}
	if len(drops) == 0 {
		t.Fatal("scenario lost its dropout schedule")
	}
	for n, round := range drops {
		if trace.DroppedAt[n] != round {
			t.Fatalf("trace.DroppedAt[%d] = %d, want %d", n, trace.DroppedAt[n], round)
		}
		if max := trace.Participation[n]; max > round {
			t.Fatalf("client %d joined %d rounds but dropped at round %d", n, max, round)
		}
	}
	// The fault-free twin must see strictly more participation from the
	// dropped clients (they had q near qmax in this scenario).
	clean := sc
	clean.Faults = nil
	ct, err := RunWith(context.Background(), clean, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for n := range drops {
		if ct.Participation[n] <= trace.Participation[n] {
			t.Fatalf("client %d: clean run joined %d rounds, faulted %d — dropout had no bite",
				n, ct.Participation[n], trace.Participation[n])
		}
	}
}

// TestChurnDepressesEmpiricalQ checks the flaky fault: intermittent
// availability must pull the empirical participation rate below the priced
// belief for afflicted clients.
func TestChurnDepressesEmpiricalQ(t *testing.T) {
	sc, err := ByName("churn")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := RunWith(context.Background(), sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	clean := sc
	clean.Faults = nil
	ct, err := RunWith(context.Background(), clean, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	flaky := map[int]bool{}
	var faultedJoins, cleanJoins int
	for _, f := range sc.Faults {
		flaky[f.Client] = true
		faultedJoins += trace.Participation[f.Client]
		cleanJoins += ct.Participation[f.Client]
	}
	if faultedJoins >= cleanJoins {
		t.Fatalf("flaky clients joined %d rounds vs %d clean: churn had no bite", faultedJoins, cleanJoins)
	}
	// Healthy clients draw their willingness coins from a stream the fault
	// process never touches: their participation must be identical.
	for n := range trace.Participation {
		if flaky[n] {
			continue
		}
		if trace.Participation[n] != ct.Participation[n] {
			t.Fatalf("healthy client %d participation changed %d -> %d under churn: fault coins leaked into the willingness stream",
				n, ct.Participation[n], trace.Participation[n])
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	base := Scenario{
		Name:    "v",
		Setup:   experiment.Setup2,
		Clients: 4, Rounds: 4, LocalSteps: 2, BatchSize: 4,
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"empty name", func(s *Scenario) { s.Name = "" }, "empty name"},
		{"one client", func(s *Scenario) { s.Clients = 1 }, "two clients"},
		{"no rounds", func(s *Scenario) { s.Rounds = 0 }, "training scale"},
		{"negative spread", func(s *Scenario) { s.CostSpread = -1 }, "spread"},
		{"bad scheme", func(s *Scenario) { s.Scheme = "no-such-scheme" }, "no-such-scheme"},
		{"fault out of range", func(s *Scenario) {
			s.Faults = []ClientFault{{Client: 9, Kind: FaultDropout, Round: 1}}
		}, "out of range"},
		{"straggler needs factor", func(s *Scenario) {
			s.Faults = []ClientFault{{Client: 0, Kind: FaultStraggler}}
		}, "delay factor"},
		{"flaky needs availability", func(s *Scenario) {
			s.Faults = []ClientFault{{Client: 0, Kind: FaultFlaky, Availability: 1.5}}
		}, "availability"},
		{"duplicate fault", func(s *Scenario) {
			s.Faults = []ClientFault{
				{Client: 0, Kind: FaultDropout, Round: 1},
				{Client: 0, Kind: FaultDropout, Round: 2},
			}
		}, "duplicate"},
		{"unknown kind", func(s *Scenario) {
			s.Faults = []ClientFault{{Client: 0, Kind: FaultKind(99)}}
		}, "unknown fault kind"},
		{"negative delay factor", func(s *Scenario) {
			s.Faults = []ClientFault{{Client: 0, Kind: FaultStraggler, DelayFactor: -2}}
		}, "delay factor"},
		{"NaN delay factor", func(s *Scenario) {
			s.Faults = []ClientFault{{Client: 0, Kind: FaultStraggler, DelayFactor: math.NaN()}}
		}, "delay factor"},
		{"infinite delay factor", func(s *Scenario) {
			s.Faults = []ClientFault{{Client: 0, Kind: FaultStraggler, DelayFactor: math.Inf(1)}}
		}, "delay factor"},
		{"NaN availability", func(s *Scenario) {
			s.Faults = []ClientFault{{Client: 0, Kind: FaultFlaky, Availability: math.NaN()}}
		}, "availability"},
		{"dropout past horizon", func(s *Scenario) {
			s.Faults = []ClientFault{{Client: 0, Kind: FaultDropout, Round: 4}}
		}, "past the 4-round horizon"},
		{"misreport needs positive factor", func(s *Scenario) {
			s.Faults = []ClientFault{{Client: 0, Kind: FaultMisreport, Factor: 0}}
		}, "cost factor"},
		{"misreport NaN factor", func(s *Scenario) {
			s.Faults = []ClientFault{{Client: 0, Kind: FaultMisreport, Factor: math.NaN()}}
		}, "cost factor"},
		{"deviate negative factor", func(s *Scenario) {
			s.Faults = []ClientFault{{Client: 0, Kind: FaultDeviate, Factor: -0.5}}
		}, "willingness factor"},
		{"deviate infinite factor", func(s *Scenario) {
			s.Faults = []ClientFault{{Client: 0, Kind: FaultDeviate, Factor: math.Inf(1)}}
		}, "willingness factor"},
		{"poison NaN factor", func(s *Scenario) {
			s.Faults = []ClientFault{{Client: 0, Kind: FaultPoison, Factor: math.NaN()}}
		}, "delta factor"},
		{"poison round past horizon", func(s *Scenario) {
			s.Faults = []ClientFault{{Client: 0, Kind: FaultPoison, Factor: 2, Round: 4}}
		}, "start round"},
		{"NaN cost scale", func(s *Scenario) {
			s.CostScale = math.NaN()
		}, "non-finite economics"},
		{"infinite budget scale", func(s *Scenario) {
			s.BudgetScale = math.Inf(1)
		}, "non-finite economics"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base
			tc.mutate(&sc)
			err := sc.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestLibraryWellFormed(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("library has %d scenarios, want at least 8", len(names))
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Fatalf("duplicate scenario name %q", name)
		}
		seen[name] = true
		sc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("library scenario %q invalid: %v", name, err)
		}
		if sc.Description == "" {
			t.Fatalf("library scenario %q has no description", name)
		}
	}
	if _, err := ByName("definitely-not-a-scenario"); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestFaultSamplerEffectiveQIsPricedBelief(t *testing.T) {
	q := []float64{0.5, 0.8}
	sch := compileSchedule(2, []ClientFault{{Client: 1, Kind: FaultFlaky, Availability: 0.1}})
	s := engine.NewFaultSampler(q, sch, stats.NewRNG(1), stats.NewRNG(2))
	eff := s.EffectiveQ()
	for i := range q {
		if eff[i] != q[i] {
			t.Fatalf("EffectiveQ[%d] = %v, want the priced %v: the server must not observe the fault process",
				i, eff[i], q[i])
		}
	}
}
