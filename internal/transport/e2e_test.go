// The protocol's end-to-end suite lives in an external test package: the
// one coordinator (engine.ClusterBackend listening on an explicit address)
// and the one device loop (engine.ServeNode) both sit above transport in the
// layering, so an in-package import would be a cycle. Every test here boots
// a coordinator whose fleet dials in from outside — ServeNode goroutines
// standing in for flnode processes, and raw wire peers for everything a
// real device would never do.
package transport_test

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/fl"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/testutil"
	"unbiasedfl/internal/transport"
)

// patient is the dial policy of every test device: enough attempts to
// outwait a coordinator goroutine that has not bound its listener yet.
var patient = transport.RetryPolicy{Attempts: 100, Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}

// fleet is one federation under test: the world, and the coordinator's
// reserved loopback address once run has started it.
type fleet struct {
	fed  *data.Federated
	m    model.Model
	addr string
}

func newFleet(t *testing.T, seed uint64, clients int) *fleet {
	t.Helper()
	cfg := data.MNISTLikeConfig()
	cfg.NumClients = clients
	cfg.TotalSamples = clients * 100
	cfg.TestSamples = 80
	cfg.Dim = 6
	cfg.Classes = 3
	cfg.MaxClasses = 2
	fed, err := data.GenerateImageLike(stats.NewRNG(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogisticRegression(cfg.Dim, cfg.Classes, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Reserve a port and release it for the coordinator to bind.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	return &fleet{fed: fed, m: m, addr: ln.Addr().String()}
}

// spec compiles a run over the fleet: every client invited every round
// unless q says otherwise.
func (f *fleet) spec(t *testing.T, rounds int, q []float64) engine.Spec {
	t.Helper()
	var sampler engine.Sampler
	var err error
	if q == nil {
		sampler, err = fl.NewFullSampler(f.fed.NumClients())
	} else {
		sampler, err = fl.NewBernoulliSampler(q, stats.NewRNG(17))
	}
	if err != nil {
		t.Fatal(err)
	}
	return engine.Spec{
		Model: f.m, Fed: f.fed,
		Rounds: rounds, LocalSteps: 3, BatchSize: 8,
		Schedule: engine.ExpDecay{Eta0: 0.05, Decay: 0.996}, EvalEvery: rounds, Seed: 424242,
		Sampler: sampler, Aggregator: engine.UnbiasedAggregator{},
	}
}

type outcome struct {
	res *engine.RunResult
	err error
}

// run starts the coordinator — engine.Run on a cluster backend listening at
// the fleet's address, spawning nothing — and returns its backend and the
// channel its outcome lands on.
func (f *fleet) run(ctx context.Context, spec engine.Spec, opts engine.ClusterOptions) (*engine.ClusterBackend, <-chan outcome) {
	opts.Addr = f.addr
	backend := engine.NewClusterBackend(opts)
	done := make(chan outcome, 1)
	go func() {
		res, err := engine.Run(ctx, spec, backend)
		done <- outcome{res, err}
	}()
	return backend, done
}

// device starts one ServeNode goroutine — who it is comes from cfg, where
// the coordinator is and what it trains on from the fleet — and returns the
// channel its exit lands on.
func (f *fleet) device(ctx context.Context, cfg engine.NodeConfig) <-chan error {
	cfg.Addr, cfg.Model, cfg.Shards, cfg.Retry = f.addr, f.m, f.fed.Clients, patient
	done := make(chan error, 1)
	go func() { done <- engine.ServeNode(ctx, cfg) }()
	return done
}

// devices starts one per-client device per listed id.
func (f *fleet) devices(ctx context.Context, ids ...int) []<-chan error {
	out := make([]<-chan error, len(ids))
	for i, id := range ids {
		out[i] = f.device(ctx, engine.NodeConfig{ID: id})
	}
	return out
}

// within receives from ch, failing the test if nothing arrives in 5s: every
// unwind in this suite is prompt or it is a hang.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked after 5s", what)
		panic("unreachable")
	}
}

// mustExit requires every device to have ended its session cleanly.
func mustExit(t *testing.T, devices []<-chan error) {
	t.Helper()
	for i, d := range devices {
		if err := <-d; err != nil {
			t.Errorf("device %d: %v", i, err)
		}
	}
}

// rawDial is a wire-level peer: it dials the coordinator, completes the
// version handshake, and sends first (nothing when nil).
func (f *fleet) rawDial(t *testing.T, first *transport.Message) (*transport.Codec, net.Conn) {
	t.Helper()
	conn, err := transport.DialRetry(context.Background(), f.addr, patient, nil)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := transport.NewCodec(conn, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if first != nil {
		if err := codec.Send(first); err != nil {
			t.Fatal(err)
		}
	}
	return codec, conn
}

// awaitSockets waits until the coordinator has n registered devices.
func awaitSockets(t *testing.T, b *engine.ClusterBackend, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); b.Sockets() != n; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator has %d sockets, want %d", b.Sockets(), n)
		}
	}
}

func joined(res *engine.RunResult, client int) (rounds []int) {
	for _, m := range res.History {
		for _, n := range m.ParticipantIDs {
			if n == client {
				rounds = append(rounds, m.Round)
			}
		}
	}
	return rounds
}

// requireSameRun demands bit-identical runs: final model, gradient
// statistics, and every round of the history.
func requireSameRun(t *testing.T, want, got *engine.RunResult) {
	t.Helper()
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if !reflect.DeepEqual(bits(want.FinalModel), bits(got.FinalModel)) {
		t.Fatalf("final models differ:\n%v\n%v", want.FinalModel, got.FinalModel)
	}
	if !reflect.DeepEqual(bits(want.GradSqNorm), bits(got.GradSqNorm)) {
		t.Fatalf("gradient statistics differ:\n%v\n%v", want.GradSqNorm, got.GradSqNorm)
	}
	if !reflect.DeepEqual(want.History, got.History) {
		t.Fatalf("histories differ:\n%+v\n%+v", want.History, got.History)
	}
}

// train runs spec on a coordinator whose devices — one ServeNode per
// client — dial in over loopback, reproducing the paper's prototype topology
// in miniature: every device must end its session cleanly and the trained
// model must beat the zero model.
func train(t *testing.T, f *fleet, spec engine.Spec) *engine.RunResult {
	t.Helper()
	_, done := f.run(context.Background(), spec, engine.ClusterOptions{Timeout: 10 * time.Second})
	ids := make([]int, f.fed.NumClients())
	for i := range ids {
		ids[i] = i
	}
	devices := f.devices(context.Background(), ids...)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	mustExit(t, devices)
	zeroLoss, err := f.m.Loss(f.m.ZeroParams(), f.fed.Train)
	if err != nil {
		t.Fatal(err)
	}
	if out.res.FinalLoss >= zeroLoss {
		t.Fatalf("TCP training did not improve loss: %v >= %v", out.res.FinalLoss, zeroLoss)
	}
	return out.res
}

// TestEndToEndTCP: an 8-client federation at heterogeneous q trains over real
// sockets, and gradient statistics flow back for every participant.
func TestEndToEndTCP(t *testing.T) {
	f := newFleet(t, 11, 8)
	res := train(t, f, f.spec(t, 25, []float64{0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85}))
	for id, g := range res.GradSqNorm {
		if n := len(joined(res, id)); n > 0 && g <= 0 {
			t.Fatalf("client %d joined %d rounds but reported no gradient stats", id, n)
		}
	}
}

// TestEndToEndTCPWithRidge runs the second model family through the same
// coordinator and device loop: the wire is model-agnostic.
func TestEndToEndTCPWithRidge(t *testing.T) {
	f := newFleet(t, 51, 4)
	ridge, err := model.NewRidgeRegression(f.fed.Train.Dim, f.fed.Train.Classes, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	f.m = ridge
	spec := f.spec(t, 20, []float64{0.8, 0.8, 0.8, 0.8})
	// Ridge has L ≈ max‖x̃‖² (no softmax ½ factor), so the step must be far
	// smaller than the logistic runs use.
	spec.Schedule = engine.ExpDecay{Eta0: 0.002, Decay: 0.996}
	train(t, f, spec)
}

// TestEndToEndTCPMatchesInProcessRunner is the external-fleet equivalence
// test: a coordinator on an explicit address plus devices that dial in must
// produce the final model, gradient statistics and full history of an
// in-process LocalBackend run of the same elastic spec, bit for bit, and
// leave nothing behind — flat, with one ServeNode per client (one of them a
// prospective member admitted mid-run, one retired mid-run), and at
// GroupSize 2, with one ServeNode per group.
func TestEndToEndTCPMatchesInProcessRunner(t *testing.T) {
	for name, groupSize := range map[string]int{"flat": 0, "grouped": 2} {
		t.Run(name, func(t *testing.T) {
			baseline := testutil.GoroutineBaseline()
			f := newFleet(t, 99, 4)
			mk := func() engine.Spec {
				spec := f.spec(t, 8, []float64{0.9, 0.5, 0.7, 0.6})
				spec.GroupSize = groupSize
				spec.Membership = &engine.MembershipPlan{
					Initial: []int{0, 1, 2},
					Events:  []engine.MembershipEvent{{Round: 3, Join: []int{3}}, {Round: 6, Leave: []int{1}}},
				}
				return spec
			}
			ref, err := engine.Run(context.Background(), mk(), engine.NewLocalBackend(engine.LocalOptions{Parallel: true}))
			if err != nil {
				t.Fatal(err)
			}
			_, done := f.run(context.Background(), mk(), engine.ClusterOptions{Timeout: 20 * time.Second})
			var devices []<-chan error
			if groupSize > 1 {
				devices = []<-chan error{
					f.device(context.Background(), engine.NodeConfig{ID: 0, Group: true}),
					f.device(context.Background(), engine.NodeConfig{ID: 1, Group: true}),
				}
			} else {
				devices = append(f.devices(context.Background(), 0, 1, 2),
					f.device(context.Background(), engine.NodeConfig{ID: 3, Join: true}))
			}
			out := <-done
			if out.err != nil {
				t.Fatal(out.err)
			}
			mustExit(t, devices) // flat: client 1 left with MsgLeave → MsgBye, the rest with MsgDone
			requireSameRun(t, ref, out.res)
			testutil.WaitNoLeaks(t, baseline, 10*time.Second)
		})
	}
}

// TestExternalFleetCancelMidRound: cancelling the coordinator after a round
// has started unwinds it with ctx.Err(), and its devices — whose own
// contexts are never cancelled — end because their sockets were severed.
func TestExternalFleetCancelMidRound(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	f := newFleet(t, 23, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := f.spec(t, 50, nil)
	spec.OnRoundStart = func(round int) {
		if round == 2 {
			cancel()
		}
	}
	_, done := f.run(ctx, spec, engine.ClusterOptions{})
	devices := f.devices(context.Background(), 0, 1, 2)
	if out := within(t, done, "cancelled coordinator"); !errors.Is(out.err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", out.err)
	}
	for i, d := range devices {
		if err := within(t, d, "device of a dead coordinator"); err == nil {
			t.Errorf("device %d ended cleanly although its session was cut", i)
		}
	}
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

// dropAt runs a 3-client fleet in which client 1's device drops its socket
// as round 1 starts. With redial the coordinator is held at the end of that
// round until the device has dialed back in, so the observed schedule is
// exact: client 1 misses round 1 and nothing else.
func dropAt(t *testing.T, roundTimeout time.Duration, redial bool) (*fleet, *engine.ClusterBackend, outcome) {
	t.Helper()
	f := newFleet(t, 47, 3)
	devCtx, drop := context.WithCancel(context.Background())
	defer drop()
	forfeited, rejoined := make(chan struct{}), make(chan struct{})
	spec := f.spec(t, 10, nil)
	spec.OnRoundStart = func(round int) {
		if round == 1 {
			drop()
		}
	}
	spec.OnRound = func(m engine.RoundMetrics) {
		if m.Round == 1 && redial {
			close(forfeited)
			<-rejoined
		}
	}
	backend, done := f.run(context.Background(), spec, engine.ClusterOptions{Timeout: 10 * time.Second, RoundTimeout: roundTimeout})
	steady := f.devices(context.Background(), 0, 2)
	if err := <-f.device(devCtx, engine.NodeConfig{ID: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("dropped device: want context.Canceled, got %v", err)
	}
	if redial {
		// The coordinator refuses the id for as long as it believes the old
		// socket alive; by the end of the round it has ledgered the forfeit.
		<-forfeited
		steady = append(steady, f.device(context.Background(), engine.NodeConfig{ID: 1}))
		awaitSockets(t, backend, 3)
		close(rejoined)
	}
	out := <-done
	if out.err == nil {
		mustExit(t, steady)
	}
	return f, backend, out
}

// TestExternalNodeRedialIsRewelcomed: under RoundTimeout a device that drops
// its socket forfeits the round, is never respawned by a coordinator that
// does not own it, and — when it dials back in — is re-welcomed at the
// coordinator's cursor: the degraded run is bit-identical to a local replay
// of the participation schedule it observed.
func TestExternalNodeRedialIsRewelcomed(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	f, backend, out := dropAt(t, 2*time.Second, true)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if got := joined(out.res, 1); !reflect.DeepEqual(got, []int{0, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("client 1 joined rounds %v: want round 1 forfeited and every round after the redial", got)
	}
	h := backend.Health()
	if !reflect.DeepEqual(h.Misses, []int{0, 1, 0}) {
		t.Fatalf("misses %v, want one forfeited round for client 1", h.Misses)
	}
	if !reflect.DeepEqual(h.Respawns, []int{0, 0, 0}) {
		t.Fatalf("coordinator respawned devices it does not own: %v", h.Respawns)
	}
	schedule := make([][]int, len(out.res.History))
	for r, m := range out.res.History {
		schedule[r] = m.ParticipantIDs
	}
	twin := f.spec(t, 10, nil)
	twin.Sampler = replay{schedule}
	ref, err := engine.Run(context.Background(), twin, engine.NewLocalBackend(engine.LocalOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, ref, out.res)
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

// replay is a sampler that replays an observed participation schedule.
type replay struct{ rounds [][]int }

func (s replay) Sample(round int) []int { return s.rounds[round] }
func (s replay) NumClients() int        { return 3 }

// TestFaultToleranceSurvivesCrash: a device that dies mid-run and never
// returns costs the healing fleet that client's remaining rounds and
// nothing else.
func TestFaultToleranceSurvivesCrash(t *testing.T) {
	_, backend, out := dropAt(t, 2*time.Second, false)
	if out.err != nil {
		t.Fatalf("fleet did not tolerate the crash: %v", out.err)
	}
	if got := joined(out.res, 1); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("crashed client joined rounds %v, want only round 0", got)
	}
	for _, id := range []int{0, 2} {
		if n := len(joined(out.res, id)); n != 10 {
			t.Fatalf("healthy client %d joined %d/10 rounds", id, n)
		}
	}
	if h := backend.Health(); h.Misses[1] != 9 {
		t.Fatalf("misses %v, want client 1 to have forfeited 9 rounds", h.Misses)
	}
	if !out.res.FinalModel.IsFinite() {
		t.Fatal("final model not finite")
	}
}

// TestFaultIntoleranceAborts: without a round deadline the same crash fails
// the run.
func TestFaultIntoleranceAborts(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	if _, _, out := dropAt(t, 0, false); out.err == nil {
		t.Fatal("strict coordinator should abort on a device crash")
	}
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

// ghostRun runs a healing 2-client fleet whose client 1 is a raw peer that
// registers, hands its codec to ghost, and never computes anything. The
// survivor must finish all three rounds alone.
func ghostRun(t *testing.T, roundTimeout time.Duration, ghost func(*transport.Codec)) {
	t.Helper()
	baseline := testutil.GoroutineBaseline()
	f := newFleet(t, 41, 2)
	backend, done := f.run(context.Background(), f.spec(t, 3, nil), engine.ClusterOptions{Timeout: 10 * time.Second, RoundTimeout: roundTimeout})
	live := f.devices(context.Background(), 0)
	peer, _ := f.rawDial(t, &transport.Message{Type: transport.MsgHello, ClientID: 1})
	defer func() { _ = peer.Close() }()
	if welcome, err := peer.Recv(); err != nil || welcome.Type != transport.MsgWelcome || welcome.Cursor == nil {
		t.Fatalf("ghost was not welcomed: %+v, %v", welcome, err)
	}
	ghost(peer)
	out := <-done
	if out.err != nil {
		t.Fatalf("fleet did not survive the ghost: %v", out.err)
	}
	mustExit(t, live)
	if len(joined(out.res, 0)) != 3 || len(joined(out.res, 1)) != 0 {
		t.Fatalf("history %+v: want the survivor in all 3 rounds, the ghost in none", out.res.History)
	}
	if h := backend.Health(); h.Misses[1] != 3 {
		t.Fatalf("misses %v, want 3 for the ghost", h.Misses)
	}
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

// TestServerToleratesDeathAfterWelcome: a node that registers (so it holds a
// slot and a welcome) and then dies must have its slot released.
func TestServerToleratesDeathAfterWelcome(t *testing.T) {
	ghostRun(t, 2*time.Second, func(peer *transport.Codec) { _ = peer.Close() })
}

// TestServerClosesConnOfSilentClient: a registered node that goes silent
// mid-round is dropped at the deadline AND has its coordinator-side
// connection closed (observable as EOF on the peer side, never a hang) — the
// conn-leak half of the slot-release contract.
func TestServerClosesConnOfSilentClient(t *testing.T) {
	ghostRun(t, 300*time.Millisecond, func(peer *transport.Codec) {
		if start, err := peer.Recv(); err != nil || start.Type != transport.MsgRoundStart {
			t.Fatalf("ghost was not invited: %+v, %v", start, err)
		}
		// ... and say nothing.
		if _, err := peer.RecvDeadline(time.Now().Add(5 * time.Second)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("coordinator left the silent client's connection open (%v)", err)
		}
	})
}

// refuses is the accept-path contract: with one device registered, an
// intruding connection is closed by the coordinator within the handshake
// window, the accept loop keeps serving — the second real device registers
// after it — the registered device is undisturbed (the strict run would fail
// otherwise), and nothing leaks.
func refuses(t *testing.T, intrude func(f *fleet) net.Conn) {
	t.Helper()
	baseline := testutil.GoroutineBaseline()
	f := newFleet(t, 61, 2)
	backend, done := f.run(context.Background(), f.spec(t, 3, nil),
		engine.ClusterOptions{Timeout: 10 * time.Second, HandshakeTimeout: 200 * time.Millisecond})
	devices := f.devices(context.Background(), 0)
	awaitSockets(t, backend, 1)

	intruder := intrude(f)
	defer func() { _ = intruder.Close() }()
	closed := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, intruder) // the coordinator's preamble, then EOF
		closed <- err
	}()
	if err := within(t, closed, "coordinator holding the intruder"); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("intruder timed out instead of being closed: %v", err)
	}

	devices = append(devices, f.device(context.Background(), engine.NodeConfig{ID: 1}))
	out := <-done
	if out.err != nil {
		t.Fatalf("fleet was disturbed: %v", out.err)
	}
	mustExit(t, devices)
	for _, m := range out.res.History {
		if m.Participants != 2 {
			t.Fatalf("round %d had %d participants, want 2", m.Round, m.Participants)
		}
	}
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

// hello is an intruder that completes the version handshake and opens with
// a message of the given type and client id — or, for type 0, with nothing.
func hello(t *testing.T, typ transport.MsgType, id int) func(*fleet) net.Conn {
	return func(f *fleet) net.Conn {
		var first *transport.Message
		if typ != 0 {
			first = &transport.Message{Type: typ, ClientID: id}
		}
		_, conn := f.rawDial(t, first)
		return conn
	}
}

// TestServerHandshakeDeadlineFreesAcceptLoop: a peer that connects and never
// sends the preamble cannot pin the accept loop beyond the handshake window.
func TestServerHandshakeDeadlineFreesAcceptLoop(t *testing.T) {
	refuses(t, func(f *fleet) net.Conn {
		conn, err := net.Dial("tcp", f.addr)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	})
}

// TestServerHandshakeDeadlineCoversHello: nor can one that handshakes and
// never sends its hello.
func TestServerHandshakeDeadlineCoversHello(t *testing.T) { refuses(t, hello(t, 0, 0)) }

// TestServerRejectsBadHello: a first message that is no hello.
func TestServerRejectsBadHello(t *testing.T) { refuses(t, hello(t, transport.MsgUpdate, 1)) }

// TestServerRejectsOutOfRangeID: a hello naming a client the fleet lacks.
func TestServerRejectsOutOfRangeID(t *testing.T) { refuses(t, hello(t, transport.MsgHello, 5)) }

// TestServerRejectsDuplicateID: a hello for a slot whose device is live.
func TestServerRejectsDuplicateID(t *testing.T) { refuses(t, hello(t, transport.MsgHello, 0)) }

// TestServerCancelUnblocksAccept: a coordinator waiting for a fleet that
// never arrives can be shut down via its context.
func TestServerCancelUnblocksAccept(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	f := newFleet(t, 23, 2)
	ctx, cancel := context.WithCancel(context.Background())
	_, done := f.run(ctx, f.spec(t, 5, nil), engine.ClusterOptions{})
	time.Sleep(50 * time.Millisecond) // let the coordinator block waiting for devices
	cancel()
	if out := within(t, done, "cancelled coordinator"); !errors.Is(out.err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", out.err)
	}
	testutil.WaitNoLeaks(t, baseline, 10*time.Second)
}

// TestClientCancelUnblocksRead: a device blocked reading from a coordinator
// that handshakes and then goes mute returns ctx.Err() promptly — both when
// the read is unbounded (a prospective member waits for its epoch without a
// deadline) and when a long handshake deadline is armed (a deadline must not
// outlive the cancellation: the close is sticky).
func TestClientCancelUnblocksRead(t *testing.T) {
	for name, join := range map[string]bool{"no-timeout": true, "long-timeout": false} {
		t.Run(name, func(t *testing.T) {
			baseline := testutil.GoroutineBaseline()
			f := newFleet(t, 23, 2)
			ln, err := net.Listen("tcp", f.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = ln.Close() }()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer func() { _ = conn.Close() }()
				_ = transport.Handshake(conn)
				_, _ = io.Copy(io.Discard, conn) // read the hello, never answer
			}()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				done <- engine.ServeNode(ctx, engine.NodeConfig{
					Addr: f.addr, ID: 0, Join: join, Model: f.m, Shards: f.fed.Clients,
					Retry: transport.RetryPolicy{HandshakeTimeout: 2 * time.Minute},
				})
			}()
			time.Sleep(50 * time.Millisecond) // let the device block on the welcome
			cancel()
			if err := within(t, done, "cancelled device"); !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			testutil.WaitNoLeaks(t, baseline, 10*time.Second)
		})
	}
}

// TestClientDialHonorsContext: a cancelled context aborts the dial
// immediately with ctx.Err(), without touching the network.
func TestClientDialHonorsContext(t *testing.T) {
	f := newFleet(t, 23, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := <-f.device(ctx, engine.NodeConfig{ID: 0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("dial cancellation took %v", elapsed)
	}
}

// TestClientValidation: a misconfigured device fails before it dials.
func TestClientValidation(t *testing.T) {
	f := newFleet(t, 23, 2)
	good := engine.NodeConfig{Addr: f.addr, ID: 0, Model: f.m, Shards: f.fed.Clients}
	for name, mutate := range map[string]func(*engine.NodeConfig){
		"nil model":   func(c *engine.NodeConfig) { c.Model = nil },
		"negative id": func(c *engine.NodeConfig) { c.ID = -1 },
		"no shard":    func(c *engine.NodeConfig) { c.Shards = nil },
		"empty shard": func(c *engine.NodeConfig) { c.Shards = []*data.Dataset{{Dim: 6, Classes: 3}} },
		"group joins": func(c *engine.NodeConfig) { c.Group, c.Join = true, true },
	} {
		bad := good
		mutate(&bad)
		if err := engine.ServeNode(context.Background(), bad); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}
