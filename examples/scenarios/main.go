// Scenarios: tour the scenario engine. Replays a library scenario and its
// fault-free twin to show what the fault schedule does to participation and
// wall clock, defines a custom scenario from scratch, and finishes by
// running the same custom world as a real multi-node TCP federation through
// the cluster harness.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"unbiasedfl"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scenarios:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()

	// 1. The named library: every entry is a complete, replayable world.
	fmt.Println("scenario library:")
	for _, sc := range unbiasedfl.Scenarios() {
		fmt.Printf("  %-20s %s\n", sc.Name, sc.Description)
	}

	// 2. Replay "churn" and its fault-free twin at the same seed. The only
	// difference is the fault schedule, so the participation gap below is
	// exactly what intermittent availability costs the server.
	faulted, err := unbiasedfl.ScenarioByName("churn")
	if err != nil {
		return err
	}
	clean := faulted
	clean.Faults = nil
	ft, err := unbiasedfl.RunScenarioWith(ctx, faulted, unbiasedfl.RunConfig{})
	if err != nil {
		return err
	}
	ct, err := unbiasedfl.RunScenarioWith(ctx, clean, unbiasedfl.RunConfig{})
	if err != nil {
		return err
	}
	fmt.Printf("\n%q vs its fault-free twin (seed %d):\n", faulted.Name, faulted.Seed)
	fmt.Println("client | priced q | joined (faulted) | joined (clean)")
	for n := range ft.Participation {
		fmt.Printf("%6d | %8.3f | %16d | %d\n",
			n, ft.Equilibrium.Q[n], ft.Participation[n], ct.Participation[n])
	}
	fmt.Printf("faulted final loss %.4f vs clean %.4f\n", ft.FinalLoss, ct.FinalLoss)

	// 3. A custom scenario is just a struct: pick a setup, scale the
	// economics, and schedule faults. Anything a library entry can do, a
	// custom world can too — including third-party pricing schemes
	// registered via RegisterScheme.
	custom := unbiasedfl.Scenario{
		Name:        "flash-crowd",
		Description: "cheap fleet, tight budget, and the fastest client drops out early",
		Setup:       unbiasedfl.Setup1,
		Clients:     5, TotalSamples: 500,
		Rounds: 12, LocalSteps: 3, BatchSize: 8,
		Seed:        2024,
		BudgetScale: 0.5,
		CostSpread:  0.8,
		Faults: []unbiasedfl.ClientFault{
			{Client: 0, Kind: unbiasedfl.FaultDropout, Round: 4},
			{Client: 3, Kind: unbiasedfl.FaultStraggler, DelayFactor: 5},
		},
	}
	trace, err := unbiasedfl.RunScenarioWith(ctx, custom, unbiasedfl.RunConfig{})
	if err != nil {
		return err
	}
	fmt.Printf("\ncustom %q: spent %.2f, sim clock %.1fs, final loss %.4f\n",
		trace.Scenario, trace.Equilibrium.Spent, trace.SimTimeS, trace.FinalLoss)

	// 4. The same world as a real federation: the unified engine points the
	// identical orchestrated run at its cluster backend — a TCP coordinator
	// and five socket nodes on loopback — and the resulting trace is
	// byte-identical to the in-process one.
	res, err := unbiasedfl.RunScenarioWith(ctx, custom, unbiasedfl.RunConfig{
		Backend: unbiasedfl.BackendCluster,
		Cluster: unbiasedfl.ClusterConfig{Timeout: 30 * time.Second},
	})
	if err != nil {
		return err
	}
	fmt.Println("\nsame scenario over TCP loopback:")
	for n, cnt := range res.Participation {
		status := "ok"
		if res.DroppedAt[n] >= 0 {
			status = fmt.Sprintf("dropped at round %d", res.DroppedAt[n])
		}
		fmt.Printf("  client %d: joined %2d rounds (%s)\n", n, cnt, status)
	}
	inb, err := trace.Canonical()
	if err != nil {
		return err
	}
	clb, err := res.Canonical()
	if err != nil {
		return err
	}
	fmt.Printf("cluster trace identical to in-process trace: %v\n", string(inb) == string(clb))
	return nil
}
