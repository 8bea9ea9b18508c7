package engine

import (
	"context"
	"testing"
	"time"

	"unbiasedfl/internal/testutil"
	"unbiasedfl/internal/transport"
)

// replaySampler replays a fixed per-round participant schedule — used to run
// a local twin of an observed degraded cluster run.
type replaySampler struct {
	rounds [][]int
	n      int
}

func (s *replaySampler) Sample(round int) []int { return s.rounds[round] }
func (s *replaySampler) NumClients() int        { return s.n }

// holdAfter returns an OnRound hook that parks the coordinator at the end of
// the given round until the backend has want registered sockets — that is,
// until the background revivals of the nodes that round forfeited have
// dialed back in — or five seconds pass.
func holdAfter(backend *ClusterBackend, round, want int) func(RoundMetrics) {
	return func(m RoundMetrics) {
		for deadline := time.Now().Add(5 * time.Second); m.Round == round && backend.Sockets() < want && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
}

// TestClusterSelfHealing is the robustness acceptance test: a round with one
// crashed node and one hung node must complete within the round deadline,
// record the missing clients as unavailable in the participation ledger, and
// revive both nodes — and the degraded run's arithmetic must be
// bit-identical to a local run over the same participation schedule (the
// Lemma-1 regime: a missing client is just an unavailable client).
func TestClusterSelfHealing(t *testing.T) {
	const (
		nClients     = 6
		rounds       = 10
		crashClient  = 2
		hangClient   = 4
		crashRound   = 1
		hangRound    = 2
		roundTimeout = 2 * time.Second
	)
	baseline := testutil.GoroutineBaseline()

	fed := testFederation(t, 47, nClients)
	m := testModel(t, fed)
	spec := testSpec(t, fed, m, rounds, fullSampler(t, nClients))
	backend := NewClusterBackend(ClusterOptions{
		Timeout:      20 * time.Second,
		RoundTimeout: roundTimeout,
		NodeFault: func(client, round int) transport.RoundFault {
			switch {
			case client == crashClient && round == crashRound:
				return transport.RoundFault{Crash: true}
			case client == hangClient && round == hangRound:
				// Far beyond the round deadline: a hung peer, not a straggler.
				return transport.RoundFault{Delay: time.Minute}
			}
			return transport.RoundFault{}
		},
	})

	// The seven rounds after the hang take well under a millisecond each;
	// unheld, the hung node's background revival (and on a loaded box the
	// crashed node's too) can lose the race against the end of the run and
	// the "rejoined" assertions below would flake.
	spec.OnRound = holdAfter(backend, hangRound, nClients)

	start := time.Now()
	res, err := Run(context.Background(), spec, backend)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	// The hung node's 1-minute stall must not leak into wall time: the
	// deadline forfeits its round and the run moves on.
	if elapsed > 10*roundTimeout {
		t.Fatalf("run took %v: the round deadline did not contain the hung node", elapsed)
	}
	if len(res.History) != rounds {
		t.Fatalf("history has %d rounds, want %d", len(res.History), rounds)
	}

	contains := func(ids []int, n int) bool {
		for _, id := range ids {
			if id == n {
				return true
			}
		}
		return false
	}
	if contains(res.History[crashRound].ParticipantIDs, crashClient) {
		t.Errorf("round %d: crashed client %d recorded as participating", crashRound, crashClient)
	}
	if contains(res.History[hangRound].ParticipantIDs, hangClient) {
		t.Errorf("round %d: hung client %d recorded as participating", hangRound, hangClient)
	}
	rejoined := func(client, after int) bool {
		for r := after + 1; r < rounds; r++ {
			if contains(res.History[r].ParticipantIDs, client) {
				return true
			}
		}
		return false
	}
	if !rejoined(crashClient, crashRound) {
		t.Errorf("crashed client %d never rejoined after round %d", crashClient, crashRound)
	}
	if !rejoined(hangClient, hangRound) {
		t.Errorf("hung client %d never rejoined after round %d", hangClient, hangRound)
	}

	health := backend.Health()
	for n := 0; n < nClients; n++ {
		switch n {
		case crashClient, hangClient:
			if health.Misses[n] < 1 {
				t.Errorf("client %d: no miss ledgered", n)
			}
			if health.Respawns[n] < 1 {
				t.Errorf("client %d: node never revived", n)
			}
		default:
			if health.Misses[n] != 0 {
				t.Errorf("healthy client %d ledgered %d misses", n, health.Misses[n])
			}
		}
	}

	// Bit-identity twin: replay the observed participation schedule through
	// the local backend. If the healing path is unbiased bookkeeping and
	// nothing else, the degraded cluster run and the local replay are the
	// same computation.
	schedule := make([][]int, rounds)
	for r := range schedule {
		schedule[r] = res.History[r].ParticipantIDs
	}
	twinSpec := testSpec(t, fed, m, rounds, &replaySampler{rounds: schedule, n: nClients})
	twin, err := Run(context.Background(), twinSpec, NewLocalBackend(LocalOptions{Parallel: true}))
	if err != nil {
		t.Fatalf("local replay twin failed: %v", err)
	}
	mustMatch(t, twin, res)

	testutil.WaitNoLeaks(t, baseline, 5*time.Second)
}

// TestClusterStrictModeStillFailsFast pins that without a RoundTimeout the
// historical contract is intact: a crashing node fails the round instead of
// being healed around.
func TestClusterStrictModeStillFailsFast(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	fed := testFederation(t, 53, 3)
	m := testModel(t, fed)
	spec := testSpec(t, fed, m, 4, fullSampler(t, 3))
	backend := NewClusterBackend(ClusterOptions{
		Timeout: 10 * time.Second,
		NodeFault: func(client, round int) transport.RoundFault {
			if client == 1 && round == 1 {
				return transport.RoundFault{Crash: true}
			}
			return transport.RoundFault{}
		},
	})
	if _, err := Run(context.Background(), spec, backend); err == nil {
		t.Fatal("strict-mode run with a crashing node succeeded")
	}
	testutil.WaitNoLeaks(t, baseline, 5*time.Second)
}
