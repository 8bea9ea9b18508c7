package main

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"time"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/fl"
	"unbiasedfl/internal/stats"
	"unbiasedfl/internal/tensor"
)

// trainSpec sizes one engine workload: a priced federation built by
// experiment.BuildSetup and trained by engine.Run.
type trainSpec struct {
	setup      experiment.SetupID
	clients    int
	shards     int // FleetShards; 0 gives every client its own shard
	groupSize  int
	rounds     int // per job; jobs repeat until the window is full
	localSteps int
	batch      int
	evalEvery  int
	cluster    bool
	// target is the global loss the time-to-target clock stops at (0: none).
	target float64
	// participants, when set, is how many clients a round carries in
	// expectation: the server's budget is set per seed to the value at which
	// the proposed mechanism buys exactly that (withBudget). A 40-client
	// market at the Table-I budget buys anywhere from 18 to 40 depending on
	// the seed's cost draw, and a round's fixed costs (evaluation, fold) make
	// a small round dearer per update than a large one; a fleet of thousands
	// averages the draw out by itself.
	participants float64
	// budget is that value, found once per process.
	budget float64
}

// align is how many rounds a sample must be a whole multiple of, so that
// every sample holds the same share of evaluation rounds.
func (ts trainSpec) align() int {
	if ts.evalEvery > 0 && ts.evalEvery < ts.rounds {
		return ts.evalEvery
	}
	return 1
}

// withBudget returns ts with the budget that buys ts.participants on the
// world built from seed. It builds that world once, outside every timed
// interval.
func (ts trainSpec) withBudget(ctx context.Context, seed uint64) (trainSpec, error) {
	if ts.participants == 0 {
		return ts, nil
	}
	env, err := experiment.BuildSetup(ctx, ts.setup, ts.buildOptions(seed))
	if err != nil {
		return ts, err
	}
	// Expected participants rise with the budget: bisect it, geometrically.
	p := *env.Params
	lo, hi := p.B/1024, p.B*1024
	for i := 0; i < 60; i++ {
		p.B = math.Sqrt(lo * hi)
		eq, err := p.SolveKKT()
		if err != nil {
			return ts, err
		}
		var sum float64
		for _, q := range p.ClampQ(eq.Q) {
			sum += q
		}
		if sum < ts.participants {
			lo = p.B
		} else {
			hi = p.B
		}
	}
	ts.budget = math.Sqrt(lo * hi)
	return ts, nil
}

// roundLog is the OnRoundStart/OnRound pair every job installs: wall time,
// CPU time, clock scale and participants per round, the moment training
// began (so set-up and run can be told apart from outside engine.Run), and
// the time-to-target clock. With a tracer it also opens and closes round
// spans.
type roundLog struct {
	tr     *tracer
	target float64
	last   int // final round index, where lastHook fires
	// lastHook, when set, runs inside OnRound of the final round, while the
	// backend is still open.
	lastHook func()

	began       time.Time // first OnRoundStart
	roundStart  time.Time
	cpuAtStart  float64
	durs        []float64 // wall seconds per round, as the wall clock read them
	cpus        []float64 // CPU seconds per round, likewise
	scales      []float64 // clockScale taken as each round closed
	parts       []int
	targetAt    float64 // seconds from began to the first evaluated loss <= target
	targetRound int     // that round's index, -1 until reached
}

func (l *roundLog) install(spec *engine.Spec) {
	l.targetRound = -1
	l.last = spec.Rounds - 1
	spec.OnRoundStart = func(round int) {
		now := time.Now()
		if l.began.IsZero() {
			l.began = now
		}
		l.roundStart, l.cpuAtStart = now, cpuSeconds()
		if l.tr != nil {
			l.tr.beginRound(round)
		}
	}
	spec.OnRound = func(m engine.RoundMetrics) {
		if l.tr != nil {
			l.tr.endRound()
		}
		now := time.Now()
		l.durs = append(l.durs, now.Sub(l.roundStart).Seconds())
		l.cpus = append(l.cpus, cpuSeconds()-l.cpuAtStart)
		l.scales = append(l.scales, clockScale())
		l.parts = append(l.parts, m.Participants)
		if l.target > 0 && l.targetRound < 0 && m.Evaluated && m.GlobalLoss <= l.target {
			l.targetAt, l.targetRound = now.Sub(l.began).Seconds(), m.Round
		}
		if m.Round == l.last && l.lastHook != nil {
			l.lastHook()
		}
	}
}

// trainJob is one measured set-up + run.
type trainJob struct {
	env     *experiment.Environment
	setupS  float64 // job start → first round start (build, price, assemble, Open), reference clock
	runS    float64 // first round start → engine.Run return (rounds, Close), wall clock
	log     roundLog
	hash    uint64 // FNV-1a over the final model's float bits
	sockets int    // peak Sockets() (traced jobs on the cluster backend)
	cursors float64
}

// rounds is what one job's timed window held, round by round: wall and CPU
// seconds as measured, the clock scale next to each, updates delivered.
type rounds struct {
	durs, cpus, scales []float64
	parts              []int
}

// addRounds folds rounds into the report: the totals, and one sample of each
// kind per slice. A slice is a whole multiple of align consecutive rounds
// lasting at least sliceEvery (shorter ones are below what the kernel's CPU
// accounting and an SSE reader's clock resolve). The latency unit is one
// client's share of the slice — its wall time divided by the updates it
// delivered — because participants per round swing with the sampler's coins;
// one update's share of the round measures the code. perUpdate is the work
// in one update: local steps × batch size.
func (r *report) addRounds(rs rounds, perUpdate, align int, sliceEvery time.Duration) {
	var raw, wall, cpu float64
	var updates int
	emit := func() {
		work := float64(updates * perUpdate)
		r.ops = append(r.ops, wall/float64(updates))
		r.rates = append(r.rates, work/wall)
		r.cpus = append(r.cpus, cpu/work)
		raw, wall, cpu, updates = 0, 0, 0, 0
	}
	before := len(r.ops)
	for i, d := range rs.durs {
		raw, wall, cpu, updates = raw+d, wall+d*rs.scales[i], cpu+rs.cpus[i]*rs.scales[i], updates+rs.parts[i]
		r.rawWall += d
		r.wall += d * rs.scales[i]
		r.cpu += rs.cpus[i] * rs.scales[i]
		r.work += float64(rs.parts[i] * perUpdate)
		if (i+1)%align == 0 && raw >= sliceEvery.Seconds() && updates > 0 {
			emit()
		}
	}
	r.scales = append(r.scales, rs.scales...)
	// A job shorter than one slice (toy scale) is one sample; otherwise the
	// short tail is dropped.
	if len(r.ops) == before && updates > 0 {
		emit()
	}
}

func (l *roundLog) rounds() rounds { return rounds{l.durs, l.cpus, l.scales, l.parts} }

// hashModel is FNV-1a over the final model's float bits.
func hashModel(v tensor.Vec) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// buildOptions compiles the workload's scale into experiment options. Every
// generator below BuildSetup (data, economics, timing) derives from seed.
func (ts trainSpec) buildOptions(seed uint64) experiment.Options {
	return experiment.Options{
		NumClients:  ts.clients,
		FleetShards: ts.shards,
		Rounds:      ts.rounds,
		LocalSteps:  ts.localSteps,
		BatchSize:   ts.batch,
		EvalEvery:   ts.evalEvery,
		Calibration: 1,
		Seed:        seed,
		Runs:        1,
	}
}

func newBackend(cluster bool) engine.ExecutionBackend {
	if cluster {
		return engine.NewClusterBackend(engine.ClusterOptions{})
	}
	return engine.NewLocalBackend(engine.LocalOptions{Parallel: true})
}

// runTrainJob builds the world from seed, prices it with the proposed
// mechanism, and trains it. setupOnly stops after Backend.Open (an extra
// set-up sample); tr, when non-nil, installs the decorators. cluster
// overrides ts.cluster so the traced pass can run the local twin.
func runTrainJob(ctx context.Context, ts trainSpec, seed uint64, cluster, setupOnly bool, tr *tracer) (*trainJob, error) {
	scale := clockScale()
	start := time.Now()
	env, err := experiment.BuildSetup(ctx, ts.setup, ts.buildOptions(seed))
	if err != nil {
		return nil, err
	}
	if ts.budget > 0 {
		env.Params.B = ts.budget
	}
	eq, err := env.Equilibrium()
	if err != nil {
		return nil, err
	}
	sampler, err := fl.NewBernoulliSampler(env.Params.ClampQ(eq.Q), stats.NewRNG(seed^0xF1EE7))
	if err != nil {
		return nil, err
	}
	spec := engine.Spec{
		Model:      env.Model,
		Fed:        env.Fed,
		Rounds:     ts.rounds,
		LocalSteps: ts.localSteps,
		BatchSize:  ts.batch,
		Schedule:   engine.ExpDecay{Eta0: 0.1, Decay: 0.996},
		EvalEvery:  ts.evalEvery,
		Seed:       seed ^ 0xDEADBEEF,
		Sampler:    sampler,
		Aggregator: engine.UnbiasedAggregator{},
		GroupSize:  ts.groupSize,
	}
	raw := newBackend(cluster)
	backend := raw
	job := &trainJob{env: env, log: roundLog{tr: tr, target: ts.target}}
	if tr != nil {
		if backend, err = instrument(&spec, raw, tr); err != nil {
			return nil, err
		}
		// One direct ClientCursors call at fleet size while the backend is
		// open: what a checkpointing run would pay at every commit.
		if sb, ok := raw.(engine.StatefulBackend); ok {
			buf := make([]engine.ClientCursor, ts.clients)
			job.log.lastHook = func() {
				t0 := time.Now()
				_ = sb.ClientCursors(buf) // timing only; the cursors are discarded
				job.cursors = time.Since(t0).Seconds()
				if sc, ok := raw.(socketCounter); ok {
					job.sockets = sc.Sockets()
				}
			}
		}
	}
	job.log.install(&spec)

	if setupOnly {
		if err := backend.Open(ctx, &spec); err != nil {
			return nil, err
		}
		job.setupS = time.Since(start).Seconds() * (scale + clockScale()) / 2
		return job, backend.Close()
	}
	res, err := engine.Run(ctx, spec, backend)
	if err != nil {
		return nil, err
	}
	end := time.Now()
	job.setupS = job.log.began.Sub(start).Seconds() * (scale + job.log.scales[0]) / 2
	job.runS = end.Sub(job.log.began).Seconds()
	job.hash = hashModel(res.FinalModel)
	return job, nil
}

// checkJob counts the job's rounds as operations: a round fails when nobody
// delivered an update; an unreached loss target fails once.
func checkJob(r *report, ts trainSpec, j *trainJob) {
	for round, n := range j.log.parts {
		r.check(n > 0, "round %d delivered no updates", round)
	}
	r.check(len(j.log.parts) == ts.rounds, "ran %d rounds, want %d", len(j.log.parts), ts.rounds)
	if ts.target > 0 {
		r.check(j.log.targetRound >= 0, "global loss never reached the target %v", ts.target)
	}
}

// sameRun checks the seed-independent relation every pair of same-seed jobs
// must satisfy: identical final model, identical participants per round,
// identical target round.
func sameRun(r *report, what string, a, b *trainJob) {
	r.check(a.hash == b.hash, "%s: final-model hash %016x != %016x", what, a.hash, b.hash)
	same := len(a.log.parts) == len(b.log.parts)
	for i := 0; same && i < len(a.log.parts); i++ {
		same = a.log.parts[i] == b.log.parts[i]
	}
	r.check(same, "%s: per-round participant counts differ", what)
	r.check(a.log.targetRound == b.log.targetRound, "%s: target reached at round %d vs %d",
		what, a.log.targetRound, b.log.targetRound)
}

// windowFull reports whether jobs whole jobs, raw seconds of timed window in
// all, fill a window of seconds to the nearest job.
func windowFull(raw float64, jobs int, seconds float64) bool {
	return jobs > 0 && raw+raw/float64(jobs)/2 >= seconds
}

// runTrain is the untraced run of an engine workload: whole jobs — set-up
// and training — until their rounds fill the window to the nearest job, with
// set-ups alone in between until there are cfg.setups of them.
func runTrain(ctx context.Context, ts trainSpec, cfg runConfig, r *report) error {
	ts, err := ts.withBudget(ctx, cfg.seed)
	if err != nil {
		return err
	}
	var first *trainJob
	for jobs := 0; !windowFull(r.rawWall, jobs, cfg.seconds); jobs++ {
		j, err := runTrainJob(ctx, ts, cfg.seed, ts.cluster, false, nil)
		if err != nil {
			return err
		}
		checkJob(r, ts, j)
		if first == nil {
			first = j
		} else {
			sameRun(r, "repeat", first, j)
		}
		r.setups = append(r.setups, j.setupS)
		r.addRounds(j.log.rounds(), ts.localSteps*ts.batch, ts.align(), sliceEvery)
		// Set-ups alone, as many as the filled share of the window is due, so
		// that the set-up samples are spread over the whole run.
		due := min(1, r.rawWall/cfg.seconds) * float64(cfg.setups)
		if windowFull(r.rawWall, jobs+1, cfg.seconds) {
			due = float64(cfg.setups)
		}
		for float64(len(r.setups)) < due {
			j, err := runTrainJob(ctx, ts, cfg.seed, ts.cluster, true, nil)
			if err != nil {
				return err
			}
			r.setups = append(r.setups, j.setupS)
		}
	}
	return nil
}

// traceTrain is the traced pass of an engine workload: the job untraced and
// with the decorators on, in alternation for as long as pairs fit the
// window (a process's first job runs cold, so a short job needs several
// pairs before the two medians say anything about the decorators), the
// local twin of a cluster workload, and then the direct-call sections on
// the job's own inputs. Spans and per-round numbers are the last traced
// job's.
func traceTrain(ctx context.Context, ts trainSpec, cfg runConfig, r *report) error {
	ts, err := ts.withBudget(ctx, cfg.seed)
	if err != nil {
		return err
	}
	watch := startProcWatch()
	var (
		plain, traced   *trainJob
		tr              *tracer
		plainS, tracedS []float64
	)
	for start := time.Now(); ; {
		j, err := runTrainJob(ctx, ts, cfg.seed, ts.cluster, false, nil)
		if err != nil {
			return err
		}
		checkJob(r, ts, j)
		r.addRounds(j.log.rounds(), ts.localSteps*ts.batch, ts.align(), sliceEvery)
		tr = newTracer()
		t, err := runTrainJob(ctx, ts, cfg.seed, ts.cluster, false, tr)
		if err != nil {
			return err
		}
		checkJob(r, ts, t)
		sameRun(r, "traced vs untraced", j, t)
		plain, traced = j, t
		plainS, tracedS = append(plainS, j.runS), append(tracedS, t.runS)
		pair := time.Since(start).Seconds() / float64(len(plainS))
		if time.Since(start).Seconds()+pair > cfg.seconds {
			break
		}
	}
	if len(plainS) > 1 {
		plainS, tracedS = plainS[1:], tracedS[1:]
	}
	if ts.cluster {
		twin, err := runTrainJob(ctx, ts, cfg.seed, false, false, nil)
		if err != nil {
			return err
		}
		sameRun(r, "cluster vs local twin", plain, twin)
	}
	watch.finish(r)

	r.jobLayers()
	r.set("job.run_s", median(plainS))
	r.set("job.rounds", float64(len(plain.log.durs)))
	if plain.log.targetRound >= 0 {
		r.set("job.time_to_target_s", plain.log.targetAt)
		r.set("job.target_round", float64(plain.log.targetRound))
	}
	r.set("trace.overhead_pct", 100*(median(tracedS)-median(plainS))/median(plainS))

	tot := tr.totals()
	rounds := float64(tot["engine.round"].n)
	perRound := func(name string) float64 { return tot[name].self / rounds }
	r.set("engine.open_s", tot["engine.open"].total)
	r.set("engine.close_s", tot["engine.close"].total)
	r.set("engine.round_s", tot["engine.round"].total/rounds)
	r.set("fl.sample_s_per_round", perRound("fl.sample"))
	r.set("engine.dispatch_s_per_round", perRound("engine.dispatch"))
	r.set("engine.sink_merge_s_per_round", perRound("engine.sink_merge"))
	r.set("engine.aggregate_s_per_round", perRound("engine.aggregate"))
	// What the round span holds beyond its children: task build,
	// checkDistinct, id sort, AddTo, IsFinite, and evaluation.
	r.set("engine.other_s_per_round", perRound("engine.round"))
	r.set("engine.cursors_s", traced.cursors)
	r.set("engine.sockets_peak", float64(traced.sockets))
	var delivered int
	for _, n := range traced.log.parts {
		delivered += n
	}
	r.set("engine.participants_per_round", float64(delivered)/rounds)
	r.set("engine.updates_missed", float64(tr.sampled-delivered))
	r.check(tr.sampled == delivered, "%d updates sampled, %d delivered", tr.sampled, delivered)
	pct, v := tail(tr.durations("engine.round"))
	r.set("engine.round_tail_s", v)
	r.set("engine.round_tail_pct", pct)

	if cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			return err
		}
	}
	return microTrain(ctx, ts, cfg, plain.env, r)
}
