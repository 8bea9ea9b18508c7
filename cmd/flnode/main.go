// Command flnode runs one node of the TCP cross-device prototype — either
// the coordinating server (the laptop in the paper's Fig. 3) or a client
// device (a Raspberry Pi). All nodes generate the same federated dataset
// from a shared seed, so each client owns its own shard without any data
// exchange, exactly like physically-distributed devices.
//
// The server is the engine's one coordinator (experiment.Launch on a
// cluster backend listening at -addr) and a client is the engine's one
// device loop (engine.ServeNode): the server prices the market, samples
// participants and folds the unbiased aggregate; a device only answers the
// round starts it is sent.
//
// Usage:
//
//	flnode -role server -addr :9000 -clients 8 -rounds 30 [-round-timeout 30s]
//	flnode -role client -addr host:9000 -id 0 [-dial-attempts 10]
//	...
//	flnode -role client -addr host:9000 -id 7
//	flnode -role local -clients 8 -rounds 30
//
// -setup, -clients, -rounds, -steps, -seed, -join and -leave describe the
// federation and must match on every node. -round-timeout makes the server
// degrade gracefully around crashed or silent devices instead of stranding
// the fleet: a device that misses the deadline forfeits the round and is
// re-welcomed, at the coordinator's cursor for it, whenever it dials back
// in. -dial-attempts (with -dial-backoff/-dial-backoff-max) lets a device
// outwait a coordinator that is still booting or rebooting. -join n@r and
// -leave n@r schedule membership churn: the coordinator re-prices the
// market at every epoch, a device listed in -join introduces itself with
// the join handshake and is parked until its epoch, and a device listed in
// -leave is retired by the coordinator at its round and exits cleanly.
// -role local runs the server's exact spec in-process with no sockets: the
// reference a TCP run's final loss and accuracy match digit for digit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"unbiasedfl/internal/cli"
	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/game"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/transport"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "flnode:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		role    = flag.String("role", "server", "node role: server, client, or local (the server's run in-process, no sockets)")
		addr    = flag.String("addr", "127.0.0.1:9000", "listen (server) or dial (client) address")
		id      = flag.Int("id", 0, "client id (client role)")
		setup   = flag.Int("setup", 2, "experimental setup shaping the shared dataset")
		clients = flag.Int("clients", 8, "number of clients in the fleet")
		rounds  = flag.Int("rounds", 30, "training rounds")
		steps   = flag.Int("steps", 5, "local SGD steps per round")
		seed    = flag.Uint64("seed", 1, "shared data seed (must match across nodes)")
		timeout = flag.Duration("timeout", 2*time.Minute, "server: socket timeout")

		roundTO = flag.Duration("round-timeout", 0, "server: per-round reply deadline; a client that crashes or misses it is treated as unavailable for the round instead of stranding the federation, and is re-welcomed when it dials back in (0 = strict)")

		dialAttempts = flag.Int("dial-attempts", 1, "client: dial attempts before giving up (capped exponential backoff between attempts)")
		dialBackoff  = flag.Duration("dial-backoff", transport.DefaultRetryBase, "client: initial dial backoff; doubles per retry")
		dialMax      = flag.Duration("dial-backoff-max", transport.DefaultRetryMax, "client: dial backoff cap")

		joinFlag  = flag.String("join", "", "membership churn: comma-separated client@round admissions (e.g. '5@3'); must match across nodes — a listed client dials in with the join handshake and is parked until its epoch")
		leaveFlag = flag.String("leave", "", "membership churn: comma-separated client@round graceful departures (e.g. '2@6'); the coordinator retires the device at that round")
	)
	flag.Parse()

	joins, err := cli.ParseChurn(*joinFlag)
	if err != nil {
		return fmt.Errorf("-join: %w", err)
	}
	leaves, err := cli.ParseChurn(*leaveFlag)
	if err != nil {
		return fmt.Errorf("-leave: %w", err)
	}

	opts := experiment.DefaultOptions()
	opts.NumClients = *clients
	opts.Rounds = *rounds
	opts.LocalSteps = *steps
	opts.Seed = *seed
	env, err := experiment.BuildSetup(ctx, experiment.SetupID(*setup), opts)
	if err != nil {
		return err
	}

	switch *role {
	case "server":
		fmt.Printf("server listening on %s, waiting for %d clients\n", *addr, *clients)
		return coordinate(ctx, env, engine.NewMembershipPlan(*clients, joins, leaves), experiment.RunConfig{
			Backend: experiment.BackendCluster,
			Cluster: experiment.ClusterConfig{Addr: *addr, Timeout: *timeout, RoundTimeout: *roundTO},
		})
	case "local":
		return coordinate(ctx, env, engine.NewMembershipPlan(*clients, joins, leaves), experiment.RunConfig{})
	case "client":
		if *id < 0 || *id >= *clients {
			return fmt.Errorf("client id %d out of range [0,%d)", *id, *clients)
		}
		joining := false
		for _, j := range joins {
			joining = joining || j.Client == *id
		}
		if err := engine.ServeNode(ctx, engine.NodeConfig{
			Addr: *addr, ID: *id, Join: joining,
			Model: env.Model, Shards: env.Fed.Clients,
			Retry: transport.RetryPolicy{Attempts: *dialAttempts, Base: *dialBackoff, Max: *dialMax},
		}); err != nil {
			return err
		}
		fmt.Printf("client %d finished\n", *id)
		return nil
	default:
		return fmt.Errorf("unknown role %q", *role)
	}
}

// coordinate prices the market with the proposed mechanism and launches the
// run — Bernoulli(q*) participation, Lemma-1 unbiased aggregation, the
// market re-priced at every membership epoch — under cfg.
func coordinate(ctx context.Context, env *experiment.Environment, plan *engine.MembershipPlan, cfg experiment.RunConfig) error {
	scheme, err := game.SchemeByName(game.SchemeNameProposed)
	if err != nil {
		return err
	}
	outcome, err := scheme.Price(env.Params)
	if err != nil {
		return err
	}
	// The unbiased estimator needs q > 0: priced-out clients sit at the
	// game's floor.
	q := env.Params.ClampQ(outcome.Q)
	sampler, err := engine.NewBernoulliSampler(q, stats.NewRNG(env.Opts.Seed^0x5A17))
	if err != nil {
		return err
	}
	res, err := experiment.Launch(ctx, env, experiment.Leg{
		Scheme:     scheme.Name(),
		EvalEvery:  env.Opts.Rounds,
		Seed:       env.Opts.Seed,
		Sampler:    sampler,
		Membership: plan,
		Q:          q, // re-priced in place; the summary below prints the final levels
		OnEpoch: func(r engine.Roster, _ game.EpochPricing) {
			fmt.Printf("epoch %d at round %d: %d active, joined %v, left %v\n",
				r.Epoch, r.Round, r.NumActive(), r.Joined, r.Left)
		},
	}, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("training finished: global loss %.6f, test accuracy %.6f\n", res.FinalLoss, res.FinalAcc)
	joined := make([]int, len(q))
	for _, m := range res.History {
		for _, n := range m.ParticipantIDs {
			joined[n]++
		}
	}
	for n, cnt := range joined {
		fmt.Printf("client %d: q=%.3f participated %d/%d rounds\n", n, q[n], cnt, len(res.History))
	}
	return nil
}
