// Command benchmark is the repository's one measurement spine: six named
// workloads over the priced-federation stack, a handful of end-to-end
// metrics with regression bounds, and a traced pass that splits each
// workload's time by layer. BENCHMARK.json at the repository root declares
// it; README.md in this directory explains how to run it and read it.
//
// Everything is measured from outside the program under test: by timing
// calls into the layers' exported functions and by decorating the engine's
// exported seams. No file outside this directory is edited.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"unbiasedfl/internal/experiment"
)

// runConfig is one benchmark process's inputs.
type runConfig struct {
	seed    uint64
	seconds float64
	// setups is how many set-up samples a run takes at least, spread over the
	// whole run; the run reports their fast decile. Set-up is one long
	// allocation-heavy operation with no short samples to fall back on, so a
	// single sample moves with the box by up to 1.5x.
	setups int
	// batch is how long one timed batch of a direct-call section lasts.
	batch time.Duration
	// tmp is where checkpoints go; it lives inside the working directory and
	// is removed before the process exits.
	tmp string
	// spans, when set, is where a traced run writes its span list.
	spans string
}

// workload is one named set of inputs. run measures it untraced, trace is
// the traced pass.
type workload struct {
	name, why string
	run       func(context.Context, runConfig, *report) error
	trace     func(context.Context, runConfig, *report) error
}

func trainWorkload(name, why string, ts trainSpec) workload {
	return workload{name, why,
		func(ctx context.Context, cfg runConfig, r *report) error { return runTrain(ctx, ts, cfg, r) },
		func(ctx context.Context, cfg runConfig, r *report) error { return traceTrain(ctx, ts, cfg, r) },
	}
}

func quoteWorkload(name, why string, qs quoteSpec) workload {
	return workload{name, why,
		func(_ context.Context, cfg runConfig, r *report) error { return runQuotes(qs, cfg, false, r) },
		func(_ context.Context, cfg runConfig, r *report) error { return runQuotes(qs, cfg, true, r) },
	}
}

// fleet is the one spec of the two fleet workloads: Setup 1, 10^5 clients on
// 40 data shards, 100 groups of 1000, one local step on a batch of 8, six
// rounds a job, evaluation after the last. At the Table-I budget nearly
// eight clients in ten take part in a round, which then lasts 0.65 s.
func fleet(cluster bool) trainSpec {
	return trainSpec{
		setup: experiment.Setup1, clients: 100000, shards: 40, groupSize: 1000,
		rounds: 6, localSteps: 1, batch: 8, evalEvery: 6, cluster: cluster,
	}
}

var session = sessionSpec{setup: experiment.Setup3, clients: 64, rounds: 100, localSteps: 1, batch: 8}

// workloads is the benchmark. The rationale strings are BENCHMARK.json's.
var workloads = []workload{
	trainWorkload("paper-train",
		"the paper's regime (Setup 2, 40 clients, E=50, batch 24, flat fold): SGD kernels and full-set eval do the work, fold and wire almost none",
		trainSpec{
			setup: experiment.Setup2, clients: 40, rounds: 20, localSteps: 50, batch: 24, evalEvery: 5,
			target: 0.023, participants: 30,
		}),
	trainWorkload("fleet-local",
		"1e5 clients on 40 shards, 100 groups of 1000, E=1, batch 8, local backend: sampling, cursor restore and the fixed-point fold dominate, no sockets",
		fleet(false)),
	trainWorkload("fleet-cluster",
		"the fleet-local spec and seed over 100 loopback group sockets: its delta to fleet-local is socket boot, gob batches and partials, coordinator memory",
		fleet(true)),
	{"session-durable",
		"one flserve session, 64 clients on flat per-client sockets, checkpoint every round, SSE read to the end: wire, commit and event encoding dominate tiny rounds",
		func(ctx context.Context, cfg runConfig, r *report) error { return runSession(ctx, session, cfg, r) },
		func(ctx context.Context, cfg runConfig, r *report) error { return traceSession(ctx, session, cfg, r) },
	},
	quoteWorkload("quote-hot",
		"2 keep-alive connections cycling 64 primed 12-client games: HTTP, JSON, fingerprint and a cache hit; the solver is bypassed",
		quoteSpec{clients: 12, pool: 64, warm: 64}),
	quoteWorkload("quote-cold",
		"same daemon and connections, every request a never-seen 256-client game against a full cache: JSON decode, cold KKT solve, insert and FIFO evict",
		quoteSpec{clients: 256, pool: 256, cold: true, warm: quoteCache + 64}),
}

// runSeconds is BENCHMARK.json's run_seconds and the default window.
const runSeconds = 12

// printDeclaration writes BENCHMARK.json from the tables the program emits
// from, so the two cannot drift (the smoke test compares them).
func printDeclaration(w io.Writer, seconds int) error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	decl := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []named     `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: seconds,
		EndToEnd:   endToEnd,
	}
	for _, wl := range workloads {
		decl.Workloads = append(decl.Workloads, named{wl.name, wl.why})
	}
	for _, d := range perLayer {
		decl.PerLayer = append(decl.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(decl, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne measures one workload in this process and folds it into the
// contract's result.
func runOne(ctx context.Context, w workload, cfg runConfig, traced bool) (resultLine, error) {
	r := &report{}
	fn := w.run
	if traced {
		fn = w.trace
	}
	if err := fn(ctx, cfg, r); err != nil {
		return resultLine{}, err
	}
	if bad := r.unknownLayers(); len(bad) > 0 {
		return resultLine{}, fmt.Errorf("benchmark: undeclared per-layer metrics %v", bad)
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", w.name, f)
	}
	return r.result(traced, peakRSSMB()), nil
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "", "run this workload in-process and end with the result line (default: run them all, each in a child process)")
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", runSeconds, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		spans   = flag.String("spans", "", "with -trace 1, write the span list to this file")
		reps    = flag.Int("reps", 3, "all-workloads mode: untraced runs per workload")
		out     = flag.String("out", "", "all-workloads mode: write every run's numbers to this file")
		pair    = flag.String("pair", "", "all-workloads mode: a second benchmark binary to run alternately with this one")
		pairOut = flag.String("pairout", "", "all-workloads mode: write the -pair binary's numbers to this file")
		compare = flag.String("compare", "", "compare two -out files: -compare a.json b.json")
		declare = flag.Bool("declare", false, "print BENCHMARK.json as this program's tables have it")
	)
	flag.Parse()
	if *declare {
		return printDeclaration(os.Stdout, int(*seconds))
	}
	if *compare != "" {
		if flag.NArg() != 1 {
			return errors.New("usage: -compare a.json b.json")
		}
		return compareFiles(os.Stdout, *compare, flag.Arg(0))
	}
	if *name == "" {
		return runAll(allOptions{seed: *seed, seconds: *seconds, reps: *reps, traced: *trace == 1,
			spans: *spans, out: *out, pair: *pair, pairOut: *pairOut})
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}

	// Checkpoints stay inside the checkout.
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg := runConfig{seed: *seed, seconds: *seconds, setups: 12, batch: 5 * time.Millisecond, tmp: tmp, spans: *spans}
	res, err := runOne(context.Background(), w, cfg, *trace == 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: seed %d, %gs window, GOMAXPROCS %d, %s\n",
		w.name, cfg.seed, cfg.seconds, runtime.GOMAXPROCS(0), runtime.Version())
	return res.print(os.Stdout, w.name, *trace == 1)
}
