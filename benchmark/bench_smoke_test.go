package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/testutil"
)

// toyWorkloads are the six workloads at toy scale: the same code paths, a
// few clients, a few rounds.
func toyWorkloads() []workload {
	toyFleet := func(cluster bool) trainSpec {
		return trainSpec{setup: experiment.Setup1, clients: 120, shards: 6, groupSize: 20,
			rounds: 2, localSteps: 1, batch: 4, evalEvery: 2, cluster: cluster}
	}
	toySession := sessionSpec{setup: experiment.Setup3, clients: 5, rounds: 4, localSteps: 1, batch: 4}
	return []workload{
		trainWorkload("paper-train", "", trainSpec{setup: experiment.Setup2, clients: 6, rounds: 4,
			localSteps: 3, batch: 8, evalEvery: 2, target: 2, participants: 4}),
		trainWorkload("fleet-local", "", toyFleet(false)),
		trainWorkload("fleet-cluster", "", toyFleet(true)),
		{"session-durable", "",
			func(ctx context.Context, cfg runConfig, r *report) error { return runSession(ctx, toySession, cfg, r) },
			func(ctx context.Context, cfg runConfig, r *report) error {
				return traceSession(ctx, toySession, cfg, r)
			},
		},
		quoteWorkload("quote-hot", "", quoteSpec{clients: 6, pool: 8, warm: 8}),
		quoteWorkload("quote-cold", "", quoteSpec{clients: 16, pool: 8, cold: true, warm: 16}),
	}
}

// TestSmoke runs every workload, untraced and traced, at toy scale: every
// check passes, every declared metric comes out, and no goroutine, socket
// or temporary file outlives the run.
func TestSmoke(t *testing.T) {
	base := testutil.GoroutineBaseline()
	toys := toyWorkloads()
	if len(toys) != len(workloads) {
		t.Fatalf("%d toy workloads for %d real ones", len(toys), len(workloads))
	}
	for i, w := range toys {
		if w.name != workloads[i].name {
			t.Fatalf("toy workload %d is %q, want %q", i, w.name, workloads[i].name)
		}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 7, seconds: 0.05, setups: 2, batch: 20 * time.Microsecond, tmp: t.TempDir()}
			res, err := runOne(context.Background(), w, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d operations failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in %q", w.name, traced, d.Name, v.Unit)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v.Value)
				}
			}
			if traced && !(res.Metrics["job.run_s"].Value > 0) {
				t.Errorf("%s: traced pass reports no job.run_s", w.name)
			}
			if traced && i < 3 {
				spansAddUp(t, w.name, res)
			}
		}
	}
	testutil.WaitNoLeaks(t, base, 5*time.Second)
}

// TestGenerateDataMatchesBuildSetup pins generateData, the copy of
// experiment.BuildSetup's unexported data step that data.generate_s times,
// to what BuildSetup generates.
func TestGenerateDataMatchesBuildSetup(t *testing.T) {
	const clients, seed = 6, 11
	for _, id := range []experiment.SetupID{experiment.Setup1, experiment.Setup2, experiment.Setup3} {
		ts := trainSpec{setup: id, clients: clients, rounds: 2, localSteps: 1, batch: 4, evalEvery: 2}
		env, err := experiment.BuildSetup(context.Background(), id, ts.buildOptions(seed))
		if err != nil {
			t.Fatal(err)
		}
		fed, err := generateData(id, clients, stats.NewRNG(seed^(uint64(id)<<32)).Split())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fed, env.Fed) {
			t.Errorf("setup %d: generateData differs from BuildSetup's data", int(id))
		}
	}
}

// spansAddUp: on a traced training job the per-round child spans plus
// engine.other_s_per_round are the traced round time.
func spansAddUp(t *testing.T, name string, res resultLine) {
	t.Helper()
	var sum float64
	for _, part := range []string{"fl.sample_s_per_round", "engine.dispatch_s_per_round",
		"engine.sink_merge_s_per_round", "engine.aggregate_s_per_round", "engine.other_s_per_round"} {
		sum += res.Metrics[part].Value
	}
	if round := res.Metrics["engine.round_s"].Value; sum < 0.98*round || sum > 1.02*round {
		t.Errorf("%s: spans sum to %v, round is %v", name, sum, round)
	}
}

// TestDeclarationMatchesBenchmarkJSON pins BENCHMARK.json to the tables the
// program emits from: same workloads and rationales, same metrics, units,
// directions and bounds, and well-formed names.
func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"benchmark"}) || !reflect.DeepEqual(decl.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v, paths %v", decl.Command, decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d", decl.RunSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(decl.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	wellFormed := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d declared as %+v, runs as %q: %q", i, decl.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: rationale is %d characters", w.name, len(w.why))
		}
		wellFormed(w.name)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end declared as %+v, emitted as %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer declared differs from the perLayer table")
	}
	setup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		wellFormed(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if !setup || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("contract limits: setup_s=%v, %d workloads, %d end-to-end, %d per-layer", setup, len(workloads), len(endToEnd), len(perLayer))
	}
}
