package engine

import (
	"context"
	"fmt"
	"runtime"
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
// Lemma-1 regime: a missing client is just an unavailable client). In group
// mode a node is its whole group, so the crashed and hung clients' groups
// forfeit their rounds together. With one drain worker the hung node holds
// up every later reply, which must still be read after the deadline, not
// forfeited with it.
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
	for _, tc := range []struct {
		name      string
		groupSize int
		procs     int // GOMAXPROCS for the run, 0 = unchanged
	}{
		{"flat", 0, 0},
		{"flat-one-drain-worker", 0, 1},
		{"group2", 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			baseline := testutil.GoroutineBaseline()

			// unit is the set of clients one node hosts.
			unitOf := func(n int) (lo, hi int) {
				if tc.groupSize > 1 {
					lo = n / tc.groupSize * tc.groupSize
					return lo, min(lo+tc.groupSize, nClients)
				}
				return n, n + 1
			}
			units := nClients
			if tc.groupSize > 1 {
				units = (nClients + tc.groupSize - 1) / tc.groupSize
			}

			fed := testFederation(t, 47, nClients)
			m := testModel(t, fed)
			spec := testSpec(t, fed, m, rounds, fullSampler(t, nClients))
			spec.GroupSize = tc.groupSize
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

			// The seven rounds after the hang take well under a millisecond
			// each; unheld, the hung node's background revival (and on a loaded
			// box the crashed node's too) can lose the race against the end of
			// the run and the "rejoined" assertions below would flake.
			spec.OnRound = holdAfter(backend, hangRound, units)

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
			rejoined := func(client, after int) bool {
				for r := after + 1; r < rounds; r++ {
					if contains(res.History[r].ParticipantIDs, client) {
						return true
					}
				}
				return false
			}
			faulted := make([]bool, nClients)
			for _, f := range []struct{ client, round int }{{crashClient, crashRound}, {hangClient, hangRound}} {
				lo, hi := unitOf(f.client)
				for n := lo; n < hi; n++ {
					faulted[n] = true
					if contains(res.History[f.round].ParticipantIDs, n) {
						t.Errorf("round %d: client %d of the faulted node recorded as participating", f.round, n)
					}
					if !rejoined(n, f.round) {
						t.Errorf("client %d never rejoined after round %d", n, f.round)
					}
				}
			}

			health := backend.Health()
			for n := 0; n < nClients; n++ {
				switch {
				case faulted[n]:
					if health.Misses[n] < 1 {
						t.Errorf("client %d: no miss ledgered", n)
					}
					if health.Respawns[n] < 1 {
						t.Errorf("client %d: node never revived", n)
					}
				case health.Misses[n] != 0:
					t.Errorf("healthy client %d ledgered %d misses", n, health.Misses[n])
				}
			}

			// Bit-identity twin: replay the observed participation schedule
			// through the local backend. If the healing path is unbiased
			// bookkeeping and nothing else, the degraded cluster run and the
			// local replay are the same computation.
			schedule := make([][]int, rounds)
			for r := range schedule {
				schedule[r] = res.History[r].ParticipantIDs
			}
			twinSpec := testSpec(t, fed, m, rounds, &replaySampler{rounds: schedule, n: nClients})
			twinSpec.GroupSize = tc.groupSize
			twin, err := Run(context.Background(), twinSpec, NewLocalBackend(LocalOptions{Parallel: true}))
			if err != nil {
				t.Fatalf("local replay twin failed: %v", err)
			}
			mustMatch(t, twin, res)

			testutil.WaitNoLeaks(t, baseline, 5*time.Second)
		})
	}
}

// TestClusterStrictModeStillFailsFast pins that without a RoundTimeout the
// historical contract is intact: a crashing node fails the round instead of
// being healed around — a client's node on the flat path, a group's in group
// mode.
func TestClusterStrictModeStillFailsFast(t *testing.T) {
	for _, groupSize := range []int{0, 2} {
		t.Run(fmt.Sprintf("group%d", groupSize), func(t *testing.T) {
			baseline := testutil.GoroutineBaseline()
			fed := testFederation(t, 53, 3)
			m := testModel(t, fed)
			spec := testSpec(t, fed, m, 4, fullSampler(t, 3))
			spec.GroupSize = groupSize
			backend := NewClusterBackend(ClusterOptions{
				Timeout: 10 * time.Second,
				NodeFault: func(client, round int) transport.RoundFault {
					if client == 1 && round == 1 {
						return transport.RoundFault{Crash: true}
					}
					return transport.RoundFault{}
				},
			})
			_, err := Run(context.Background(), spec, backend)
			if err == nil {
				t.Fatal("strict-mode run with a crashing node succeeded")
			}
			t.Logf("run failed: %v", err)
			testutil.WaitNoLeaks(t, baseline, 5*time.Second)
		})
	}
}
