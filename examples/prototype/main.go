// Prototype: run the paper's cross-device hardware prototype in miniature —
// a coordinator and a fleet of device nodes talking over real TCP sockets on
// localhost, with pricing-induced Bernoulli(q_n) participation and unbiased
// aggregation (Lemma 1). It is one session on the cluster backend: the same
// coordinator and device loop cmd/flnode runs as separate processes, here
// spawned in-process. On real hardware, run cmd/flnode on each device.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"time"

	"unbiasedfl"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "prototype:", err)
		os.Exit(1)
	}
}

func run() error {
	// Ctrl-C cancels the whole federation — coordinator and every device
	// node unwind through their contexts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sess, err := unbiasedfl.NewSession(ctx, unbiasedfl.Setup2,
		unbiasedfl.WithClients(8),
		unbiasedfl.WithRounds(30),
		unbiasedfl.WithLocalSteps(5),
		unbiasedfl.WithRuns(1),
		unbiasedfl.WithRunConfig(unbiasedfl.RunConfig{
			Backend: unbiasedfl.BackendCluster,
			// A device that crashes or stalls past the deadline forfeits its
			// round — which the unbiased estimator already prices — and is
			// revived.
			Cluster: unbiasedfl.ClusterConfig{RoundTimeout: time.Minute},
		}),
		unbiasedfl.WithObserver(unbiasedfl.ObserverFunc(func(e unbiasedfl.Event) {
			if r, ok := e.(unbiasedfl.RoundEnd); ok {
				fmt.Printf("round %2d: %d of 8 devices joined", r.Round, r.Participants)
				if r.Evaluated {
					fmt.Printf(", global loss %.4f, test accuracy %.4f", r.Loss, r.Accuracy)
				}
				fmt.Println()
			}
		})),
	)
	if err != nil {
		return err
	}
	defer func() { _ = sess.Close() }()

	// Price the market with the proposed mechanism; the equilibrium q* is
	// each device's participation probability.
	eq, err := sess.Equilibrium()
	if err != nil {
		return err
	}
	for n, q := range eq.Q {
		fmt.Printf("device %d: q* = %.3f at price %.2f\n", n, q, eq.P[n])
	}

	fmt.Println("\ncoordinator and 8 device nodes on loopback TCP:")
	sr, err := sess.RunScheme(ctx, unbiasedfl.SchemeNameProposed)
	if err != nil {
		return err
	}
	fmt.Printf("\nTCP training complete: global loss %.4f, test accuracy %.4f\n", sr.FinalLoss, sr.FinalAccuracy)
	return nil
}
