// Command flbench regenerates the paper's tables and figures. Each
// experiment id maps to one artifact of the evaluation section (see
// README.md for the artifact mapping):
//
//	fig4   — loss/accuracy vs time for all three pricing schemes
//	table2 — time to target loss per scheme
//	table3 — time to target accuracy per scheme
//	table4 — total client-utility gains of the proposed scheme
//	table5 — negative-payment counts vs mean intrinsic value
//	fig5   — impact of mean intrinsic value v (Setup 1)
//	fig6   — impact of mean local cost c (Setup 2)
//	fig7   — impact of budget B (Setup 3)
//	rate   — empirical O(1/R) convergence-rate validation (DESIGN.md X9)
//	fidelity — Theorem-1 bound vs training rank agreement (DESIGN.md X6)
//	bayes  — Bayesian incomplete-information pricing (DESIGN.md X1)
//	all    — everything above (paper artifacts only)
//
// Usage:
//
//	flbench -experiment all [-setup 1] [-clients 12] [-rounds 120] [-runs 3]
//	flbench -experiment fig4 -setup 2 -paper   # full paper scale (slow)
//	flbench -experiment fig4 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"unbiasedfl/internal/cli"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/game"
	"unbiasedfl/internal/stats"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "flbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		exp     = flag.String("experiment", "all", "experiment id (fig4..fig7, table2..table5, rate, fidelity, bayes, all)")
		setup   = flag.Int("setup", 0, "restrict to one setup (0 = the paper's setup for that artifact)")
		clients = flag.Int("clients", 12, "number of clients")
		rounds  = flag.Int("rounds", 120, "training rounds R")
		steps   = flag.Int("steps", 10, "local SGD steps E")
		runs    = flag.Int("runs", 3, "independent runs to average")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("out", "", "directory to persist CSV/markdown artifacts (optional)")
		paper   = flag.Bool("paper", false, "use the paper's full scale (40 clients, R=1000, E=100, 20 runs)")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "flbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "flbench: memprofile:", err)
			}
		}()
	}

	opts := experiment.DefaultOptions()
	if *paper {
		opts = experiment.PaperOptions()
	} else {
		opts.NumClients = *clients
		opts.Rounds = *rounds
		opts.LocalSteps = *steps
		opts.Runs = *runs
	}
	opts.Seed = *seed

	h := &harness{ctx: ctx, opts: opts, out: os.Stdout, onlySetup: experiment.SetupID(*setup)}
	if *out != "" {
		artifacts, err := experiment.NewArtifacts(*out)
		if err != nil {
			return err
		}
		h.artifacts = artifacts
		defer func() {
			if err := artifacts.Finalize(); err != nil {
				fmt.Fprintln(os.Stderr, "flbench: finalize artifacts:", err)
			}
		}()
	}
	switch *exp {
	case "fig4", "table2", "table3", "table4":
		return h.comparisons()
	case "table5":
		return h.table5()
	case "fig5":
		return h.sweep(experiment.Setup1, experiment.SweepV, []float64{0, 1000, 4000, 16000, 80000})
	case "fig6":
		return h.sweep(experiment.Setup2, experiment.SweepC, []float64{5, 10, 20, 40, 80})
	case "fig7":
		return h.sweep(experiment.Setup3, experiment.SweepB, []float64{100, 250, 500, 1000, 2000})
	case "rate":
		return h.rate()
	case "fidelity":
		return h.fidelity()
	case "bayes":
		return h.bayes()
	case "all":
		if err := h.comparisons(); err != nil {
			return err
		}
		if err := h.table5(); err != nil {
			return err
		}
		if err := h.sweep(experiment.Setup1, experiment.SweepV, []float64{0, 1000, 4000, 16000, 80000}); err != nil {
			return err
		}
		if err := h.sweep(experiment.Setup2, experiment.SweepC, []float64{5, 10, 20, 40, 80}); err != nil {
			return err
		}
		return h.sweep(experiment.Setup3, experiment.SweepB, []float64{100, 250, 500, 1000, 2000})
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
}

type harness struct {
	ctx       context.Context
	opts      experiment.Options
	out       *os.File
	onlySetup experiment.SetupID
	artifacts *experiment.Artifacts
}

func (h *harness) setups() []experiment.SetupID {
	if h.onlySetup != 0 {
		return []experiment.SetupID{h.onlySetup}
	}
	return []experiment.SetupID{experiment.Setup1, experiment.Setup2, experiment.Setup3}
}

// comparisons produces Fig. 4 plus Tables II, III, and IV for each setup.
func (h *harness) comparisons() error {
	for _, id := range h.setups() {
		fmt.Fprintln(h.out, experiment.Banner(id.String()))
		env, err := experiment.BuildSetup(h.ctx, id, h.opts)
		if err != nil {
			return err
		}
		cmp, err := experiment.Compare(h.ctx, env)
		if err != nil {
			return err
		}
		if err := experiment.WriteComparisonReport(h.out, cmp); err != nil {
			return err
		}
		if h.artifacts != nil {
			name := fmt.Sprintf("setup%d_fig4", int(id))
			if err := h.artifacts.SaveComparison(name, cmp); err != nil {
				return err
			}
		}
	}
	return nil
}

// table5 reproduces the negative-payment counts of Table V on Setup 1.
func (h *harness) table5() error {
	fmt.Fprintln(h.out, experiment.Banner("Table V — negative payments vs v (Setup 1)"))
	env, err := experiment.BuildSetup(h.ctx, experiment.Setup1, h.opts)
	if err != nil {
		return err
	}
	points, err := experiment.EquilibriumSweep(h.ctx, env, experiment.SweepV, []float64{0, 4000, 80000})
	if err != nil {
		return err
	}
	fmt.Fprintln(h.out, "| mean v | clients with P_n < 0 |")
	fmt.Fprintln(h.out, "|---:|---:|")
	for _, p := range points {
		fmt.Fprintf(h.out, "| %.0f | %d |\n", p.Value, p.NegativePayments)
	}
	fmt.Fprintln(h.out)
	if h.artifacts != nil {
		return h.artifacts.SaveSweep("setup1_table5", experiment.Setup1, experiment.SweepV, points, false)
	}
	return nil
}

// sweep produces one of Figs. 5–7 with full retraining at each point.
func (h *harness) sweep(id experiment.SetupID, kind experiment.SweepKind, values []float64) error {
	fmt.Fprintf(h.out, "%s\n", experiment.Banner(fmt.Sprintf("%v — %v", id, kind)))
	env, err := experiment.BuildSetup(h.ctx, id, h.opts)
	if err != nil {
		return err
	}
	points, err := experiment.Sweep(h.ctx, env, kind, values)
	if err != nil {
		return err
	}
	if err := experiment.WriteSweepReport(h.out, kind, points, true); err != nil {
		return err
	}
	if h.artifacts != nil {
		name := fmt.Sprintf("setup%d_%d_sweep", int(id), int(kind))
		return h.artifacts.SaveSweep(name, id, kind, points, true)
	}
	return nil
}

// rate validates the O(1/R) decay of Theorem 1 empirically.
func (h *harness) rate() error {
	fmt.Fprintln(h.out, experiment.Banner("Convergence rate — empirical O(1/R) check"))
	env, err := experiment.BuildSetup(h.ctx, experiment.Setup2, h.opts)
	if err != nil {
		return err
	}
	horizons := []int{h.opts.Rounds / 4, h.opts.Rounds, h.opts.Rounds * 4}
	points, err := experiment.ConvergenceRate(h.ctx, env, horizons, h.opts.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(h.out, "| rounds R | optimality gap |")
	fmt.Fprintln(h.out, "|---:|---:|")
	for _, p := range points {
		fmt.Fprintf(h.out, "| %d | %.6f |\n", p.Rounds, p.Gap)
	}
	if p, err := experiment.FitRateExponent(points); err == nil {
		fmt.Fprintf(h.out, "\nfitted decay exponent: %.3f (Theorem 1 predicts about -1)\n\n", p)
	}
	return nil
}

// fidelity reports the rank agreement between the bound and training.
func (h *harness) fidelity() error {
	fmt.Fprintln(h.out, experiment.Banner("Bound fidelity — surrogate vs training"))
	env, err := experiment.BuildSetup(h.ctx, experiment.Setup2, h.opts)
	if err != nil {
		return err
	}
	res, err := experiment.BoundFidelity(h.ctx, env, 6, h.opts.Seed+99)
	if err != nil {
		return err
	}
	fmt.Fprintln(h.out, "| profile | Theorem-1 bound | final training loss |")
	fmt.Fprintln(h.out, "|---:|---:|---:|")
	for i := range res.Bounds {
		fmt.Fprintf(h.out, "| %d | %.6g | %.6f |\n", i, res.Bounds[i], res.Losses[i])
	}
	fmt.Fprintf(h.out, "\nKendall tau: %.3f (1 = the bound ranks profiles exactly like training)\n\n",
		res.KendallTau)
	return nil
}

// bayes contrasts complete-information pricing with the Bayesian design.
func (h *harness) bayes() error {
	fmt.Fprintln(h.out, experiment.Banner("Bayesian incomplete information"))
	env, err := experiment.BuildSetup(h.ctx, experiment.Setup1, h.opts)
	if err != nil {
		return err
	}
	complete, err := env.Params.SolveKKT()
	if err != nil {
		return err
	}
	prior := game.Prior{MeanC: env.MeanC, MeanV: env.MeanV}
	bayes, err := env.Params.SolveBayesian(prior, 800, stats.NewRNG(h.opts.Seed+7))
	if err != nil {
		return err
	}
	_, spend, obj, err := env.Params.EvaluateRealized(bayes.P)
	if err != nil {
		return err
	}
	uniform, err := game.SchemeByName(game.SchemeNameUniform)
	if err != nil {
		return err
	}
	uni, err := uniform.Price(env.Params)
	if err != nil {
		return err
	}
	fmt.Fprintln(h.out, "| design | realized bound | realized spend |")
	fmt.Fprintln(h.out, "|---|---:|---:|")
	fmt.Fprintf(h.out, "| complete information | %.6g | %.2f |\n", complete.ServerObj, complete.Spent)
	fmt.Fprintf(h.out, "| bayesian posted prices | %.6g | %.2f |\n", obj, spend)
	fmt.Fprintf(h.out, "| uniform posted price | %.6g | %.2f |\n\n", uni.ServerObj, uni.Spent)
	return nil
}
