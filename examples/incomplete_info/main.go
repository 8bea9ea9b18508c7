// Incomplete information: the paper's future-work extension. The server no
// longer observes each client's private cost c_n and intrinsic value v_n —
// only their prior distributions — and designs Bayesian posted prices via a
// certainty-equivalent KKT solve calibrated by Monte Carlo to meet the
// budget in expectation. The example quantifies the price of incomplete
// information against the complete-information equilibrium and the uniform
// posted-price fallback.
package main

import (
	"context"
	"fmt"
	"os"

	"unbiasedfl"
	"unbiasedfl/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "incomplete_info:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	sess, err := unbiasedfl.NewSession(ctx, unbiasedfl.Setup1,
		unbiasedfl.WithClients(16))
	if err != nil {
		return err
	}
	env := sess.Environment()
	p := env.Params

	// Complete information: the paper's mechanism.
	complete, err := p.SolveKKT()
	if err != nil {
		return err
	}

	// Incomplete information: Bayesian posted prices from the prior only.
	prior := unbiasedfl.Prior{MeanC: env.MeanC, MeanV: env.MeanV}
	bayes, err := p.SolveBayesian(prior, 800, stats.NewRNG(42))
	if err != nil {
		return err
	}
	_, bSpend, bObj, err := p.EvaluateRealized(bayes.P)
	if err != nil {
		return err
	}

	// Uniform posted price: the least-informed fallback, resolved through
	// the open pricing registry.
	uniScheme, err := unbiasedfl.SchemeByName(unbiasedfl.SchemeNameUniform)
	if err != nil {
		return err
	}
	uni, err := uniScheme.Price(p)
	if err != nil {
		return err
	}

	fmt.Printf("price of incomplete information on %v (N=%d, B=%.1f)\n\n",
		env.ID, p.N(), p.B)
	fmt.Println("design                    | realized bound g(q) | realized spend")
	fmt.Println("--------------------------+---------------------+---------------")
	fmt.Printf("complete information (SE) | %19.6g | %14.2f\n", complete.ServerObj, complete.Spent)
	fmt.Printf("bayesian posted prices    | %19.6g | %14.2f\n", bObj, bSpend)
	fmt.Printf("uniform posted price      | %19.6g | %14.2f\n", uni.ServerObj, uni.Spent)

	fmt.Printf("\nbayesian expected spend (calibrated): %.2f of budget %.2f over %d scenarios\n",
		bayes.ExpectedSpend, p.B, bayes.Scenarios)
	fmt.Printf("cost of incomplete information: %.1f%% worse bound than complete information\n",
		100*(bObj/complete.ServerObj-1))
	if bObj <= uni.ServerObj {
		fmt.Println("the Bayesian design recovers part of the gap: it beats uniform pricing")
	} else {
		fmt.Println("note: uniform pricing happened to win at this draw (possible when the")
		fmt.Println("realized spend of the Bayesian design lands under budget)")
	}
	return nil
}
