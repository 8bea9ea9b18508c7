// Command flgame solves the CPL Stackelberg game for one of the paper's
// setups and prints the equilibrium: per-client participation levels,
// customized prices (including negative, bi-directional payments), the
// payment-direction threshold v_t, and the Theorem-2 invariant. Ctrl-C
// cancels a long setup build cleanly.
//
// Usage:
//
//	flgame -setup 1 [-clients 12] [-budget 200] [-meanv 4000] [-seed 1] [-json]
//	flgame -setup 1 -clients 1000 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"

	"unbiasedfl"
	"unbiasedfl/internal/cli"
	"unbiasedfl/internal/game"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "flgame:", err)
		os.Exit(1)
	}
}

// equilibriumJSON is flgame's machine-readable result shape.
type equilibriumJSON struct {
	Setup            string       `json:"setup"`
	Clients          int          `json:"clients"`
	Budget           float64      `json:"budget"`
	Alpha            float64      `json:"alpha"`
	Rounds           float64      `json:"rounds"`
	Lambda           float64      `json:"lambda"`
	BudgetTight      bool         `json:"budget_tight"`
	PaymentThreshold float64      `json:"payment_threshold_vt"`
	Spend            float64      `json:"spend"`
	ServerBound      float64      `json:"server_bound"`
	NegativePayments int          `json:"negative_payments"`
	PerClient        []clientJSON `json:"per_client"`
}

type clientJSON struct {
	Client  int     `json:"client"`
	A       float64 `json:"a"`
	G       float64 `json:"g"`
	C       float64 `json:"c"`
	V       float64 `json:"v"`
	Q       float64 `json:"q"`
	P       float64 `json:"p"`
	Payment float64 `json:"payment"`
}

func run(ctx context.Context) error {
	var (
		setup    = flag.Int("setup", 1, "experimental setup (1=Synthetic, 2=MNIST-like, 3=EMNIST-like)")
		clients  = flag.Int("clients", 12, "number of clients")
		budget   = flag.Float64("budget", -1, "override server budget B (-1 = Table I value)")
		meanV    = flag.Float64("meanv", -1, "override mean intrinsic value (-1 = Table I value)")
		seed     = flag.Uint64("seed", 1, "random seed")
		jsonFlag = flag.Bool("json", false, "emit machine-readable JSON instead of tables")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	for _, f := range []struct {
		name string
		v    float64
	}{{"budget", *budget}, {"meanv", *meanV}} {
		if f.v != -1 && !(f.v >= 0 && f.v <= math.MaxFloat64) { // NaN fails both
			return fmt.Errorf("-%s %v: want a finite value >= 0, or -1 for the Table I value", f.name, f.v)
		}
	}

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
				fmt.Fprintln(os.Stderr, "flgame: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "flgame: memprofile:", err)
			}
		}()
	}

	sess, err := unbiasedfl.NewSession(ctx, unbiasedfl.SetupID(*setup),
		unbiasedfl.WithClients(*clients),
		unbiasedfl.WithSeed(*seed),
	)
	if err != nil {
		return err
	}
	env := sess.Environment()
	params := env.Params
	if *budget >= 0 {
		params = params.Clone()
		params.B = *budget
	}
	if *meanV >= 0 && env.MeanV > 0 {
		params = params.Clone()
		scale := *meanV / env.MeanV
		for i := range params.V {
			params.V[i] *= scale
		}
	}

	eq, err := params.SolveKKT()
	if err != nil {
		return err
	}

	if *jsonFlag {
		out := equilibriumJSON{
			Setup:            env.ID.String(),
			Clients:          params.N(),
			Budget:           params.B,
			Alpha:            params.Alpha,
			Rounds:           params.R,
			Lambda:           eq.Lambda,
			BudgetTight:      eq.BudgetTight,
			PaymentThreshold: eq.Vt(),
			Spend:            eq.Spent,
			ServerBound:      eq.ServerObj,
			NegativePayments: eq.NegativePayments(),
		}
		for n := 0; n < params.N(); n++ {
			out.PerClient = append(out.PerClient, clientJSON{
				Client: n, A: params.A[n], G: params.G[n], C: params.C[n],
				V: params.V[n], Q: eq.Q[n], P: eq.P[n], Payment: eq.P[n] * eq.Q[n],
			})
		}
		return cli.WriteJSON(os.Stdout, out)
	}

	fmt.Printf("%v — Stackelberg equilibrium (N=%d, B=%.2f, alpha=%.4g, R=%.0f)\n\n",
		env.ID, params.N(), params.B, params.Alpha, params.R)
	fmt.Printf("budget multiplier lambda* = %.6g  (tight: %v)\n", eq.Lambda, eq.BudgetTight)
	fmt.Printf("payment threshold v_t = %.4g — clients with v_n above this PAY the server\n", eq.Vt())
	fmt.Printf("total spend = %.4f of budget %.4f\n", eq.Spent, params.B)
	fmt.Printf("server bound term g(q*) = %.6g\n\n", eq.ServerObj)

	fmt.Println("client |     a_n |     G_n |     c_n |       v_n |    q*_n |     P*_n | payment")
	fmt.Println("-------+---------+---------+---------+-----------+---------+----------+---------")
	for n := 0; n < params.N(); n++ {
		fmt.Printf("%6d | %.5f | %7.3f | %7.2f | %9.1f | %.5f | %8.3f | %8.3f\n",
			n, params.A[n], params.G[n], params.C[n], params.V[n],
			eq.Q[n], eq.P[n], eq.P[n]*eq.Q[n])
	}
	fmt.Printf("\nnegative-payment clients: %d of %d\n", eq.NegativePayments(), params.N())

	if interior, err := params.VerifyTheorem2(eq, 1e-6); err != nil {
		fmt.Printf("Theorem 2 check: FAILED (%v)\n", err)
	} else {
		fmt.Printf("Theorem 2 invariant verified across %d interior clients\n", interior)
	}
	if err := params.VerifyTheorem3(eq); err != nil {
		fmt.Printf("Theorem 3 check: FAILED (%v)\n", err)
	} else {
		fmt.Println("Theorem 3 payment-direction threshold verified")
	}

	// Cross-check with the paper's M-search method. The KKT solution is the
	// exact optimum and the M-search's grid gets within a few percent of it,
	// so a ratio below 1 or above 1.10 (NaN included) is a wrong solve. The
	// one exception is a slack budget: every client then sits at QMax, both
	// objectives are exactly 0, and their ratio 0/0 says nothing.
	ms, err := params.SolveMSearch(game.DefaultMSearchOptions())
	if err != nil {
		return fmt.Errorf("m-search cross-check: %w", err)
	}
	ratio := ms.ServerObj / eq.ServerObj
	verdict := ""
	switch {
	case ms.ServerObj == 0 && eq.ServerObj == 0 && !eq.BudgetTight:
		verdict = ", both 0: the budget is slack"
	case !(ratio >= 1-1e-9 && ratio <= 1.10):
		verdict = " FAILED (want a ratio in [1, 1.10])"
	}
	fmt.Printf("M-search cross-check: bound %.6g (KKT %.6g, ratio %.4f)%s\n",
		ms.ServerObj, eq.ServerObj, ratio, verdict)

	// Marginal analysis: what one more unit of budget buys.
	sens, err := params.AnalyzeSensitivity(game.SensitivityOptions{})
	if err != nil {
		return fmt.Errorf("sensitivity: %w", err)
	}
	fmt.Printf("marginal value of budget: dBound/dB = %.4g (bound units per currency unit)\n",
		sens.DBoundDBudget)
	if err := params.CheckPredictedSigns(sens, 1e-3); err != nil {
		fmt.Printf("comparative-statics sign check: FAILED (%v)\n", err)
	} else {
		fmt.Println("comparative-statics signs match Proposition 1, Theorems 2-3, Corollary 1")
	}
	return nil
}
