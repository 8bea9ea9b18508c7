package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"unbiasedfl/internal/data"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/fixpoint"
	"unbiasedfl/internal/fl"
	"unbiasedfl/internal/game"
	"unbiasedfl/internal/model"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
	"unbiasedfl/internal/transport"
)

// timeOp returns the median seconds per call of fn over up to five batches,
// each grown until it lasts at least cfg.batch; calls slower than 100ms stop
// after three. These are the direct-call sections of the traced pass: they
// run after the traced job, on that job's own inputs.
func (cfg runConfig) timeOp(fn func()) float64 {
	var samples []float64
	n := 1
	for len(samples) < 5 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(t0)
		if d < cfg.batch {
			n *= 4
			continue
		}
		samples = append(samples, d.Seconds()/float64(n))
		if d > 100*time.Millisecond && len(samples) >= 3 {
			break
		}
	}
	return median(samples)
}

// microTrain times the layers under an engine workload at the workload's own
// sizes: env is the world the traced job ran on.
func microTrain(ctx context.Context, ts trainSpec, cfg runConfig, env *experiment.Environment, r *report) error {
	if err := microSetup(ctx, ts, cfg, env, r); err != nil {
		return err
	}
	if err := microGame(cfg, env, r); err != nil {
		return err
	}
	if err := microKernels(cfg, env.Model, env.Fed, ts.batch, r); err != nil {
		return err
	}
	if ts.cluster {
		members := int(0.5 + float64(ts.groupSize)*sumQ(env)/float64(ts.clients))
		return microTransport(cfg, env.Model.NumParams(), members, r)
	}
	return nil
}

func sumQ(env *experiment.Environment) float64 {
	eq, err := env.Equilibrium()
	if err != nil {
		return 0
	}
	var s float64
	for _, q := range env.Params.ClampQ(eq.Q) {
		s += q
	}
	return s
}

// generateData repeats experiment.BuildSetup's (unexported) data step so it
// can be timed alone.
func generateData(id experiment.SetupID, n int, r *stats.RNG) (*data.Federated, error) {
	scale := float64(n) / 40
	image := func(cfg data.ImageLikeConfig, samples float64) (*data.Federated, error) {
		cfg.NumClients = n
		cfg.TotalSamples = int(samples * scale)
		cfg.TestSamples = 100 * n / 2
		return data.GenerateImageLike(r, cfg)
	}
	switch id {
	case experiment.Setup1:
		cfg := data.DefaultSyntheticConfig()
		cfg.NumClients = n
		cfg.TotalSamples = int(22377 * scale)
		return data.GenerateSynthetic(r, cfg)
	case experiment.Setup2:
		return image(data.MNISTLikeConfig(), 14463)
	case experiment.Setup3:
		return image(data.EMNISTLikeConfig(), 35155)
	}
	return nil, fmt.Errorf("benchmark: unknown setup %d", int(id))
}

// microSetup splits setup_s: the whole BuildSetup, then data generation and
// bound calibration alone at shard scale, where BuildSetup runs them.
func microSetup(ctx context.Context, ts trainSpec, cfg runConfig, env *experiment.Environment, r *report) error {
	seed := cfg.seed
	var fe firstErr
	r.set("experiment.build_s", cfg.timeOp(func() {
		_, e := experiment.BuildSetup(ctx, ts.setup, ts.buildOptions(seed))
		fe.keep(e)
	}))
	shards := ts.clients
	if ts.shards > 0 {
		shards = ts.shards
	}
	var fed *data.Federated
	r.set("data.generate_s", cfg.timeOp(func() {
		f, e := generateData(ts.setup, shards, stats.NewRNG(seed))
		fe.keep(e)
		fed = f
	}))
	if fe.err != nil {
		return fe.err
	}
	calCfg := fl.Config{
		Rounds: ts.rounds, LocalSteps: ts.localSteps, BatchSize: ts.batch,
		Schedule: fl.ExpDecay{Eta0: 0.1, Decay: 0.996}, EvalEvery: ts.evalEvery, Seed: seed,
	}
	r.set("fl.calibrate_s", cfg.timeOp(func() {
		_, e := fl.Calibrate(ctx, env.Model, fed, calCfg, 1)
		fe.keep(e)
	}))
	return fe.err
}

// microGame splits the pricing an engine workload pays inside set-up.
func microGame(cfg runConfig, env *experiment.Environment, r *report) error {
	var fe firstErr
	keep := fe.keep
	p := env.Params
	// Stage-I pricing as users call it: a cold Equilibrium on a fresh cache
	// (fingerprint + solve + clone-and-store).
	cache := env.Cache
	r.set("game.price_s", cfg.timeOp(func() {
		env.Cache = game.NewCache(0)
		_, e := env.Equilibrium()
		keep(e)
	}))
	env.Cache = cache
	r.set("game.solve_kkt_s", cfg.timeOp(func() {
		var eq game.Equilibrium
		keep(game.NewSolver().SolveInto(p, &eq))
	}))
	warm := game.NewSolver()
	var eq game.Equilibrium
	r.set("game.solve_warm_s", cfg.timeOp(func() { keep(warm.SolveInto(p, &eq)) }))
	var fp uint64
	r.set("game.fingerprint_s", cfg.timeOp(func() { fp ^= p.Fingerprint() }))
	ps, e := game.SchemeByName(game.SchemeNameProposed)
	if e != nil {
		return e
	}
	r.set("game.price_scheme_s", cfg.timeOp(func() {
		_, e := ps.Price(p)
		keep(e)
	}))
	_ = fp
	return fe.err
}

// microKernels times the model and tensor kernels, the fixed-point fold and
// the RNG cursor restore at the workload's dim, classes, batch and model
// size, on the workload's first shard.
func microKernels(cfg runConfig, m *model.LogisticRegression, fed *data.Federated, batch int, r *report) error {
	var fe firstErr
	keep := fe.keep
	p := m.NumParams()
	rng := stats.NewRNG(cfg.seed ^ 0xBE7C4)
	shard := fed.Clients[0]

	w := m.ZeroParams()
	var scratch model.Scratch
	step := func() {
		_, e := m.SGDStep(w, shard, batch, 0.05, rng, &scratch)
		keep(e)
	}
	r.set("model.sgd_step_us", cfg.timeOp(step)*1e6)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const allocRuns = 200
	for i := 0; i < allocRuns; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	r.set("model.sgd_allocs_per_op", float64(after.Mallocs-before.Mallocs)/allocRuns)
	r.set("model.eval_loss_s", cfg.timeOp(func() { _, e := m.Loss(w, fed.Train); keep(e) }))
	r.set("model.eval_acc_s", cfg.timeOp(func() { _, e := m.Accuracy(w, fed.Test); keep(e) }))

	rows := min(batch, shard.Len())
	xs := shard.X[:rows]
	weights, bias := w[:m.Classes*m.Dim], w[m.Classes*m.Dim:]
	out := tensor.NewVec(rows * m.Classes)
	r.set("tensor.logits_batch_ns", 1e9*cfg.timeOp(func() {
		keep(tensor.LogitsBatch(xs, weights, bias, m.Dim, m.Classes, out))
	}))
	r.set("tensor.softmax_rows_ns", 1e9*cfg.timeOp(func() { keep(tensor.SoftmaxRows(out, rows, m.Classes)) }))
	grad := tensor.NewVec(m.Classes * m.Dim)
	r.set("tensor.addscaled_tmul_ns", 1e9*cfg.timeOp(func() {
		keep(tensor.AddScaledTMul(1/float64(rows), xs, out, m.Classes, m.Dim, grad))
	}))
	a, _ := tensor.NewMat(rows, m.Dim)
	for i, x := range xs {
		copy(a.Row(i), x)
	}
	b := &tensor.Mat{Rows: m.Classes, Cols: m.Dim, Data: weights}
	c, _ := tensor.NewMat(rows, m.Classes)
	r.set("tensor.matmult_ns", 1e9*cfg.timeOp(func() { keep(tensor.MatMulT(a, b, c)) }))

	delta := tensor.NewVec(p)
	for j := range delta {
		delta[j] = (rng.Float64() - 0.5) * 1e-2
	}
	acc, other := fixpoint.New(p), fixpoint.New(p)
	keep(other.AddScaled(1.3, delta))
	perParam := 1e9 / float64(p)
	r.set("fixpoint.addscaled_ns_per_param", perParam*cfg.timeOp(func() { keep(acc.AddScaled(0.37, delta)) }))
	r.set("fixpoint.merge_ns_per_param", perParam*cfg.timeOp(func() { keep(acc.Merge(other)) }))
	v := tensor.NewVec(p)
	r.set("fixpoint.addto_ns_per_param", perParam*cfg.timeOp(func() { keep(acc.AddTo(v)) }))

	state := rng.State()
	r.set("stats.rng_restore_ns", 1e9*cfg.timeOp(func() { _, e := stats.RestoreRNG(state); keep(e) }))
	return fe.err
}

// teeConn counts and keeps what is written through it, so a message's exact
// wire size is read off the socket and its bytes can be replayed to a
// decoder without a peer.
type teeConn struct {
	net.Conn
	wrote bytes.Buffer
}

func (c *teeConn) Write(p []byte) (int, error) {
	c.wrote.Write(p)
	return c.Conn.Write(p)
}

// replayConn feeds captured bytes to a Codec; only Read does anything.
type replayConn struct {
	net.Conn
	r *bytes.Reader
}

func (c replayConn) Read(p []byte) (int, error)      { return c.r.Read(p) }
func (c replayConn) SetReadDeadline(time.Time) error { return nil }

// loopbackPair returns the two ends of one real TCP connection on loopback.
func loopbackPair() (client, server net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	server = <-accepted
	if err != nil || server == nil {
		if client != nil {
			client.Close()
		}
		if server != nil {
			server.Close()
		}
		return nil, nil, fmt.Errorf("loopback pair: dial %v", err)
	}
	return client, server, nil
}

// wireCost measures one message shape over a real loopback pair whose far
// end echoes: exact frame bytes through the tee, Send alone, Send+echo
// round trip, and Recv alone by replaying the captured frames to a fresh
// decoder (so no socket wait is counted as decode time).
func wireCost(cfg runConfig, msg *transport.Message) (bytesPer, sendUS, recvUS, roundtripUS float64, err error) {
	client, server, err := loopbackPair()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer client.Close()
	defer server.Close()
	echoed := make(chan error, 1)
	go func() {
		codec, err := transport.NewCodec(server, 0)
		for err == nil {
			var m *transport.Message
			if m, err = codec.Recv(); err == nil {
				err = codec.Send(m)
			}
		}
		echoed <- err
	}()
	tee := &teeConn{Conn: client}
	codec, err := transport.NewCodec(tee, 10*time.Second)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var send []float64
	var fe firstErr
	keep := fe.keep
	trip := cfg.timeOp(func() {
		t0 := time.Now()
		keep(codec.Send(msg))
		send = append(send, time.Since(t0).Seconds())
		_, e := codec.Recv()
		keep(e)
	})
	if fe.err != nil {
		return 0, 0, 0, 0, fe.err
	}
	// gob sends the type description once, with the first message.
	first := tee.wrote.Len()
	keep(codec.Send(msg))
	_, e := codec.Recv()
	keep(e)
	bytesPer = float64(tee.wrote.Len() - first)

	replay, err := transport.NewCodec(replayConn{r: bytes.NewReader(tee.wrote.Bytes())}, 0)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var recv []float64
	for {
		t0 := time.Now()
		if _, e := replay.Recv(); e != nil {
			break
		}
		recv = append(recv, time.Since(t0).Seconds())
	}
	// Hanging up ends the echo loop; its error is that hang-up.
	client.Close()
	<-echoed
	if len(recv) < 2 {
		return 0, 0, 0, 0, fmt.Errorf("benchmark: replayed %d frames of %v", len(recv), msg.Type)
	}
	return bytesPer, median(send) * 1e6, median(recv[1:]) * 1e6, trip * 1e6, fe.err
}

// microTransport times the wire messages of a cluster round at the
// workload's model size: members > 0 shapes the protocol-v5 group pair
// (one batch out, one partial back, members tasked clients each), members
// == 0 the flat per-client pair (round start out, update back).
func microTransport(cfg runConfig, params, members int, r *report) error {
	modelVec := make([]float64, params)
	for j := range modelVec {
		modelVec[j] = 1e-3 * float64(j%97)
	}
	cursor := transport.Cursor{RNG: [4]uint64{1 << 60, 2 << 60, 3 << 60, 4 << 60}, SqCount: 9, SqMean: 0.25, SqM2: 0.5}
	var out, back *transport.Message
	if members > 0 {
		clients := make([]int, members)
		scales := make([]float64, members)
		cursors := make([]transport.Cursor, members)
		limbs := make([]uint64, params)
		for i := range clients {
			clients[i], scales[i], cursors[i] = 1000+i, 1.25e-5, cursor
		}
		for j := range limbs {
			limbs[j] = uint64(j) << 40
		}
		out = &transport.Message{Type: transport.MsgBatchStart, ClientID: 1, Round: 1, Model: modelVec,
			LR: 0.1, Clients: clients, Scales: scales, Cursors: cursors}
		back = &transport.Message{Type: transport.MsgPartial, ClientID: 1, Round: 1, Clients: clients,
			GradSqs: scales, Cursors: cursors, Lo: limbs, Hi: limbs}
	} else {
		out = &transport.Message{Type: transport.MsgRoundStart, Round: 1, Model: modelVec, LR: 0.1}
		back = &transport.Message{Type: transport.MsgUpdate, ClientID: 1, Round: 1, Model: modelVec,
			GradSqNorm: 0.25, Cursor: &cursor}
	}
	ob, osend, orecv, otrip, err := wireCost(cfg, out)
	if err != nil {
		return err
	}
	bb, bsend, brecv, btrip, err := wireCost(cfg, back)
	if err != nil {
		return err
	}
	if members > 0 {
		r.set("transport.batch_bytes", ob)
		r.set("transport.batch_send_us", osend)
		r.set("transport.batch_recv_us", orecv)
		r.set("transport.partial_bytes", bb)
		r.set("transport.partial_send_us", bsend)
		r.set("transport.partial_recv_us", brecv)
	} else {
		r.set("transport.roundstart_bytes", ob)
		r.set("transport.update_bytes", bb)
		// Each echo trip moves its message twice; one real round trip is one
		// round start out and one update back.
		r.set("transport.update_roundtrip_us", (otrip+btrip)/2)
	}

	var fe firstErr
	hs := cfg.timeOp(func() {
		c, s, e := loopbackPair()
		if e != nil {
			fe.keep(e)
			return
		}
		done := make(chan error, 1)
		go func() { done <- transport.Handshake(s) }()
		fe.keep(transport.Handshake(c))
		fe.keep(<-done)
		c.Close()
		s.Close()
	})
	r.set("transport.handshake_us", hs*1e6)
	return fe.err
}
