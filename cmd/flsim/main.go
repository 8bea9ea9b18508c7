// Command flsim runs one federated training simulation for a setup under a
// chosen pricing scheme and prints the timed loss/accuracy trajectory — one
// curve of the paper's Fig. 4. Any scheme registered in the pricing
// registry is accepted; Ctrl-C cancels mid-round.
//
// With -scenario it instead replays a named scenario from the library —
// fleet, faults, economics and all — and prints its canonical trace
// (-scenario list enumerates the library).
//
// With -generate it derives a scenario from an arbitrary byte seed through
// the property-based generator — the same worlds the fuzz harness explores —
// and runs it. The seed is taken literally, as hex after a "hex:" prefix, or
// from a Go fuzz corpus file with "@path".
//
// Durability, in every mode: -checkpoint commits the run state every round;
// a process killed mid-run (even with SIGKILL — try -kill-after) rerun with
// -resume finishes from the last committed round and prints output
// byte-identical to an uninterrupted run. -round-timeout puts cluster rounds
// under a self-healing deadline.
//
// Usage:
//
//	flsim -setup 2 -scheme proposed [-rounds 120] [-clients 12] [-runs 3] [-backend local|cluster] [-json] [-progress]
//	flsim -scenario straggler-heavy [-backend local|cluster] [-json]
//	flsim -generate hex:deadbeef [-json]
//	flsim -generate @internal/scenario/testdata/fuzz/FuzzScenario/seed-ascii
//	flsim -scenario baseline -checkpoint run.ckpt [-kill-after 5]
//	flsim -scenario baseline -checkpoint run.ckpt -resume -json
//	flsim -setup 1 -runs 2 -checkpoint leg [-kill-after 5 | -resume -json]
//	flsim -scenario list
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"unbiasedfl"
	"unbiasedfl/internal/cli"
	"unbiasedfl/internal/experiment"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "flsim:", err)
		os.Exit(1)
	}
}

// schemeRunJSON is flsim's machine-readable result shape.
type schemeRunJSON struct {
	Setup              string      `json:"setup"`
	Scheme             string      `json:"scheme"`
	Budget             float64     `json:"budget"`
	Spend              float64     `json:"spend"`
	ServerBound        float64     `json:"server_bound"`
	FinalLoss          float64     `json:"final_loss"`
	FinalAccuracy      float64     `json:"final_accuracy"`
	TotalClientUtility float64     `json:"total_client_utility"`
	NegativePayments   int         `json:"negative_payments"`
	Points             []pointJSON `json:"points"`
}

type pointJSON struct {
	TimeS    float64 `json:"time_s"`
	Loss     float64 `json:"loss"`
	Accuracy float64 `json:"accuracy"`
}

func run(ctx context.Context) error {
	var (
		setup    = flag.Int("setup", 1, "experimental setup (1, 2, or 3)")
		scheme   = flag.String("scheme", "proposed", "pricing scheme (any registered name; built-ins: proposed, uniform, weighted)")
		scenario = flag.String("scenario", "", "replay a named scenario instead of a plain run ('list' enumerates the library)")
		generate = flag.String("generate", "", "run a generated scenario derived from this byte seed (literal bytes, 'hex:<digits>', or '@path' to a Go fuzz corpus file)")
		clients  = flag.Int("clients", 12, "number of clients (with -fleet: the number of distinct data shards)")
		fleet    = flag.Int("fleet", 0, "synthesize a fleet of this many clients sharing the -clients distinct data shards by pointer (0 = every client gets its own shard); clients sharing a shard keep distinct minibatch trajectories and are priced individually")
		group    = flag.Int("group", 0, "hierarchical aggregation group size K: clients fold in groups of K and only group partials reach the coordinator; on the cluster backend each group shares one socket (0 = flat); results are bit-identical at any K")
		rounds   = flag.Int("rounds", 120, "training rounds R")
		steps    = flag.Int("steps", 10, "local SGD steps E")
		runs     = flag.Int("runs", 3, "independent runs to average")
		seed     = flag.Uint64("seed", 1, "random seed")
		backend  = flag.String("backend", "local", "execution backend: local (in-process pool) or cluster (one TCP socket node per client on loopback)")
		csv      = flag.Bool("csv", false, "emit CSV instead of a table")
		jsonFlag = flag.Bool("json", false, "emit machine-readable JSON instead of a table")
		progress = flag.Bool("progress", false, "stream per-round progress to stderr while training")

		joinFlag  = flag.String("join", "", "membership churn: comma-separated client@round admissions (e.g. '5@3'); joined clients are absent until their epoch")
		leaveFlag = flag.String("leave", "", "membership churn: comma-separated client@round graceful departures (e.g. '2@6')")

		ckpt      = flag.String("checkpoint", "", "checkpoint path (scenario mode) or path prefix (scheme mode): commit run state every round so a killed run can resume")
		resume    = flag.Bool("resume", false, "resume from the checkpoint at -checkpoint instead of starting fresh; the finished trace is byte-identical to an uninterrupted run")
		roundTO   = flag.Duration("round-timeout", 0, "cluster backend: per-round deadline with self-healing degradation (0 = strict)")
		killAfter = flag.Int("kill-after", 0, "SIGKILL this process right after round N commits (crash/resume testing; requires -checkpoint)")
	)
	flag.Parse()

	if *resume && *ckpt == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	if *killAfter > 0 && *ckpt == "" {
		return fmt.Errorf("-kill-after needs -checkpoint (a kill without a committed state cannot be resumed)")
	}

	exec, err := unbiasedfl.ParseBackend(*backend)
	if err != nil {
		return err
	}
	joins, err := cli.ParseChurn(*joinFlag)
	if err != nil {
		return fmt.Errorf("-join: %w", err)
	}
	leaves, err := cli.ParseChurn(*leaveFlag)
	if err != nil {
		return fmt.Errorf("-leave: %w", err)
	}
	// One run configuration for all three modes; in scheme mode -checkpoint
	// is the per-leg path prefix.
	cfg := unbiasedfl.RunConfig{
		Backend:   exec,
		Cluster:   unbiasedfl.ClusterConfig{RoundTimeout: *roundTO},
		GroupSize: *group,
		Checkpoint: unbiasedfl.CheckpointConfig{
			Path:        *ckpt,
			Resume:      *resume,
			AfterCommit: killAfterHook(*killAfter),
		},
	}

	if *generate != "" {
		// A generated world is fully determined by its seed: like -scenario,
		// any plain-run override would be silently meaningless. Durability
		// flags stay off too — a generated world is for exploration, not for
		// long-lived resumable runs (name a scenario for those).
		var conflicting []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "generate", "json", "backend", "round-timeout", "group":
			default:
				conflicting = append(conflicting, "-"+f.Name)
			}
		})
		if len(conflicting) > 0 {
			return fmt.Errorf("-generate derives a self-contained world from its seed; %s do(es) not apply (only -json, -backend, -group, and -round-timeout combine)",
				strings.Join(conflicting, ", "))
		}
		seedBytes, err := parseGenerateSeed(*generate)
		if err != nil {
			return fmt.Errorf("-generate: %w", err)
		}
		sc := unbiasedfl.GenerateScenario(seedBytes)
		trace, err := unbiasedfl.RunScenarioWith(ctx, sc, cfg)
		if err != nil {
			return err
		}
		return printTrace(trace, *jsonFlag)
	}

	if *scenario != "" {
		// A scenario is a complete world: the plain-run flags don't apply,
		// and silently ignoring them would make the user believe their
		// overrides took effect.
		var conflicting []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scenario", "json", "backend", "checkpoint", "resume", "round-timeout", "kill-after", "join", "leave", "group":
			default:
				conflicting = append(conflicting, "-"+f.Name)
			}
		})
		if len(conflicting) > 0 {
			return fmt.Errorf("-scenario replays a self-contained world; %s do(es) not apply (only -json, -backend, -group, and the durability flags combine)",
				strings.Join(conflicting, ", "))
		}
		return runScenario(ctx, *scenario, cfg, joins, leaves, *jsonFlag)
	}

	name := *scheme
	if _, err := unbiasedfl.SchemeByName(name); err != nil {
		return err
	}

	options := []unbiasedfl.Option{
		unbiasedfl.WithClients(*clients),
		unbiasedfl.WithRounds(*rounds),
		unbiasedfl.WithLocalSteps(*steps),
		unbiasedfl.WithRuns(*runs),
		unbiasedfl.WithSeed(*seed),
		unbiasedfl.WithRunConfig(cfg),
	}
	if *fleet > 0 {
		if *fleet < *clients {
			return fmt.Errorf("-fleet %d is smaller than its -clients %d data shards", *fleet, *clients)
		}
		// The fleet is synthesized from -clients distinct shards; every one
		// of the -fleet clients is still priced and sampled individually.
		options = append(options,
			unbiasedfl.WithClients(*fleet),
			unbiasedfl.WithFleetShards(*clients))
	}
	numClients := *clients
	if *fleet > 0 {
		numClients = *fleet
	}
	if plan := cli.ChurnPlan(numClients, joins, leaves); plan != nil {
		options = append(options, unbiasedfl.WithMembership(plan))
	}
	if *progress {
		options = append(options, unbiasedfl.WithObserver(
			unbiasedfl.ObserverFunc(func(e unbiasedfl.Event) {
				switch ev := e.(type) {
				case unbiasedfl.SchemeSolved:
					fmt.Fprintf(os.Stderr, "%s: priced (spend %.2f)\n", ev.Scheme, ev.Outcome.Spent)
				case unbiasedfl.RoundEnd:
					if ev.Evaluated {
						fmt.Fprintf(os.Stderr, "%s run %d round %d: loss %.4f acc %.4f\n",
							ev.Scheme, ev.Run, ev.Round, ev.Loss, ev.Accuracy)
					}
				}
			})))
	}
	sess, err := unbiasedfl.NewSession(ctx, unbiasedfl.SetupID(*setup), options...)
	if err != nil {
		return err
	}
	run, err := sess.RunScheme(ctx, name)
	if err != nil {
		return err
	}
	env := sess.Environment()

	switch {
	case *jsonFlag:
		out := schemeRunJSON{
			Setup:              env.ID.String(),
			Scheme:             run.Scheme,
			Budget:             env.Params.B,
			Spend:              run.Outcome.Spent,
			ServerBound:        run.Outcome.ServerObj,
			FinalLoss:          run.FinalLoss,
			FinalAccuracy:      run.FinalAccuracy,
			TotalClientUtility: run.TotalClientUtility,
			NegativePayments:   run.NegativePayments,
		}
		for _, pt := range run.Points {
			out.Points = append(out.Points, pointJSON{
				TimeS: pt.Elapsed.Seconds(), Loss: pt.Loss, Accuracy: pt.Accuracy,
			})
		}
		return cli.WriteJSON(os.Stdout, out)
	case *csv:
		return experiment.WriteSeriesCSV(os.Stdout, run)
	}
	fmt.Printf("%v under %v pricing (spent %.2f of B=%.2f)\n\n",
		env.ID, run.Scheme, run.Outcome.Spent, env.Params.B)
	fmt.Println("  time (s) |   loss | accuracy")
	fmt.Println("-----------+--------+---------")
	for _, pt := range run.Points {
		fmt.Printf("%10.1f | %.4f | %.4f\n", pt.Elapsed.Seconds(), pt.Loss, pt.Accuracy)
	}
	fmt.Printf("\nfinal: loss %.4f, accuracy %.4f; total client utility %.2f; negative payments %d\n",
		run.FinalLoss, run.FinalAccuracy, run.TotalClientUtility, run.NegativePayments)
	return nil
}

// killAfterHook compiles -kill-after into the checkpoint AfterCommit seam:
// the moment round n's commit is durable, the process delivers SIGKILL to
// itself — the hardest crash available, with no deferred cleanup or flushes
// — so the crash/resume suite exercises real process death.
func killAfterHook(n int) func(int) {
	if n <= 0 {
		return nil
	}
	return func(committed int) {
		if committed != n {
			return
		}
		if p, err := os.FindProcess(os.Getpid()); err == nil {
			_ = p.Kill()
		}
		select {} // the signal is in flight; never run another round
	}
}

// churnFaults lowers parsed -join/-leave events onto a scenario's fault
// schedule, where membership churn is declared as FaultJoin/FaultLeave
// entries.
func churnFaults(joins, leaves []cli.ChurnEvent) []unbiasedfl.ClientFault {
	var out []unbiasedfl.ClientFault
	for _, j := range joins {
		out = append(out, unbiasedfl.ClientFault{Client: j.Client, Kind: unbiasedfl.FaultJoin, Round: j.Round})
	}
	for _, l := range leaves {
		out = append(out, unbiasedfl.ClientFault{Client: l.Client, Kind: unbiasedfl.FaultLeave, Round: l.Round})
	}
	return out
}

// runScenario replays one named scenario under the given run configuration
// and prints its canonical trace (identical whichever backend carried it).
func runScenario(ctx context.Context, name string, cfg unbiasedfl.RunConfig, joins, leaves []cli.ChurnEvent, jsonOut bool) error {
	if name == "list" {
		if jsonOut {
			type entry struct {
				Name        string `json:"name"`
				Description string `json:"description"`
			}
			var out []entry
			for _, sc := range unbiasedfl.Scenarios() {
				out = append(out, entry{sc.Name, sc.Description})
			}
			return cli.WriteJSON(os.Stdout, out)
		}
		for _, sc := range unbiasedfl.Scenarios() {
			fmt.Printf("%-20s %s\n", sc.Name, sc.Description)
		}
		return nil
	}
	sc, err := unbiasedfl.ScenarioByName(name)
	if err != nil {
		return err
	}
	// -join/-leave overlay membership churn onto the named world; the
	// scenario validator checks coherence against its fleet and horizon.
	sc.Faults = append(sc.Faults, churnFaults(joins, leaves)...)
	trace, err := unbiasedfl.RunScenarioWith(ctx, sc, cfg)
	if err != nil {
		return err
	}
	return printTrace(trace, jsonOut)
}

// parseGenerateSeed decodes the -generate argument into the raw byte seed the
// scenario generator consumes: "@path" extracts the bytes from a Go fuzz
// corpus file (the "go test fuzz v1" format the native harness writes),
// "hex:" prefixes hex-decode, and anything else is taken as literal bytes —
// so a crash input the fuzzer minimized can be replayed as a full simulation
// without hand-decoding it.
func parseGenerateSeed(arg string) ([]byte, error) {
	switch {
	case strings.HasPrefix(arg, "@"):
		raw, err := os.ReadFile(strings.TrimPrefix(arg, "@"))
		if err != nil {
			return nil, err
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) == 0 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
			return nil, fmt.Errorf("%s is not a Go fuzz corpus file (missing 'go test fuzz v1' header)", arg[1:])
		}
		for _, line := range lines[1:] {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "[]byte(") || !strings.HasSuffix(line, ")") {
				continue
			}
			quoted := strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")")
			s, err := strconv.Unquote(quoted)
			if err != nil {
				return nil, fmt.Errorf("corpus entry %q: %w", line, err)
			}
			return []byte(s), nil
		}
		return nil, fmt.Errorf("%s has no []byte(...) entry", arg[1:])
	case strings.HasPrefix(arg, "hex:"):
		return hex.DecodeString(strings.TrimPrefix(arg, "hex:"))
	default:
		return []byte(arg), nil
	}
}

// printTrace renders a scenario trace — named or generated — as JSON or the
// human-readable table.
func printTrace(trace *unbiasedfl.Trace, jsonOut bool) error {
	if jsonOut {
		return cli.WriteJSON(os.Stdout, trace)
	}
	fmt.Printf("scenario %q (%s) under %s pricing: %d clients, %d rounds\n",
		trace.Scenario, trace.Setup, trace.Scheme, trace.Clients, trace.Rounds)
	fmt.Printf("spent %.2f; simulated wall clock %.1fs\n\n", trace.Equilibrium.Spent, trace.SimTimeS)
	fmt.Println("client |  priced q | empirical q | joined | dropped at")
	fmt.Println("-------+-----------+-------------+--------+-----------")
	for n := range trace.Participation {
		droppedAt := "-"
		if trace.DroppedAt[n] >= 0 {
			droppedAt = fmt.Sprintf("%d", trace.DroppedAt[n])
		}
		fmt.Printf("%6d | %9.4f | %11.4f | %6d | %s\n",
			n, trace.Equilibrium.Q[n], trace.EmpiricalQ[n], trace.Participation[n], droppedAt)
	}
	if len(trace.Membership) > 0 {
		fmt.Println("\nmembership epochs:")
		for _, ep := range trace.Membership {
			fmt.Printf("  epoch %d (round %d): %d active, spent %.2f",
				ep.Epoch, ep.Round, ep.Active, ep.Spent)
			if len(ep.Joined) > 0 {
				fmt.Printf(", joined %v", ep.Joined)
			}
			if len(ep.Left) > 0 {
				fmt.Printf(", left %v", ep.Left)
			}
			fmt.Println()
		}
	}
	if adv := trace.Adversary; adv != nil {
		fmt.Println("\nadversaries:")
		if len(adv.Misreporting) > 0 {
			fmt.Printf("  misreporting costs: clients %v\n", adv.Misreporting)
		}
		if len(adv.Deviating) > 0 {
			fmt.Printf("  deviating from priced q: clients %v\n", adv.Deviating)
		}
		if len(adv.Poisoning) > 0 {
			fmt.Printf("  poisoning updates: clients %v\n", adv.Poisoning)
		}
		fmt.Printf("  vs truthful pricing: server bound %+.6f, client utility %+.2f\n",
			adv.ServerObjInflation, adv.UtilityShift)
		fmt.Printf("  vs honest twin run: loss %+.4f, accuracy %+.4f\n",
			adv.LossInflation, -adv.AccuracyDrop)
	}
	fmt.Printf("\nfinal: loss %.4f, accuracy %.4f; total client utility %.2f; negative payments %d\n",
		trace.FinalLoss, trace.FinalAccuracy, trace.TotalClientUtility, trace.NegativePayments)
	return nil
}
