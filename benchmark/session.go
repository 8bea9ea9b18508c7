package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"unbiasedfl/internal/checkpoint"
	"unbiasedfl/internal/experiment"
	"unbiasedfl/internal/scenario"
	"unbiasedfl/internal/serve"
)

// sessionSpec sizes the durable-session workload: a custom scenario posted
// to the daemon, run on the flat per-client cluster backend with a
// checkpoint commit at every round.
type sessionSpec struct {
	setup      experiment.SetupID
	clients    int
	rounds     int
	localSteps int
	batch      int
}

// scenarioFor generates the session's scenario from the seed.
func (ss sessionSpec) scenarioFor(seed uint64) (scenario.Scenario, error) {
	sc := scenario.Scenario{
		Name:       "bench-session",
		Setup:      ss.setup,
		Clients:    ss.clients,
		Rounds:     ss.rounds,
		LocalSteps: ss.localSteps,
		BatchSize:  ss.batch,
		// Only the final round evaluates: the workload is the wire, the
		// commit and the event stream, not the full-set evaluation.
		EvalEvery:   ss.rounds,
		Calibration: 1,
		Seed:        seed,
		// A budget glut: paying every client to the ceiling is affordable, so
		// the equilibrium is q = 1 and every round carries the whole fleet.
		// At 64 clients the Table-I budget leaves anywhere from 26 to 64
		// expected participants depending on the seed's cost draw, and a
		// round here is mostly per-round cost (commit, events), which a
		// per-update figure cannot normalise away.
		BudgetScale: 1e6,
	}
	return sc, sc.Validate()
}

// sessionSlice is the session workload's slice length. The daemon hands the
// stream several events per wake-up, so single round_end gaps say little;
// fifty milliseconds hold about ten rounds.
const sessionSlice = 50 * time.Millisecond

// sseEvent is one server-sent event as the client saw it.
type sseEvent struct {
	typ  string
	data []byte
	at   time.Time
	cpu  float64 // process CPU seconds at arrival (the daemon is this process)
	// scale is the clock scale taken on arrival (round events only; taking it
	// delays the next read by 0.1 ms of a round's eleven).
	scale float64
}

// readSSE reads an event stream to its end, stamping each event on arrival.
func readSSE(body io.Reader) (events []sseEvent, bytesRead int, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var cur sseEvent
	for sc.Scan() {
		line := sc.Text()
		bytesRead += len(line) + 1
		switch {
		case line == "":
			if cur.typ != "" {
				cur.at, cur.cpu = time.Now(), cpuSeconds()
				if cur.typ == "round_start" || cur.typ == "round_end" {
					cur.scale = clockScale()
				}
				events = append(events, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			cur.typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(line[len("data: "):])
		}
	}
	return events, bytesRead, sc.Err()
}

// sessionJob is one measured session: daemon boot, POST, stream to the
// terminal event, fetch the result.
type sessionJob struct {
	setupS     float64 // daemon boot + POST → first round_start (world build, socket boot), reference clock
	totalS     float64 // POST → terminal event, wall clock
	firstMS    float64 // POST → first event of the stream
	rounds     rounds  // gaps between successive round_end arrivals, process CPU over each
	events     int
	sseBytes   int
	terminal   string
	result     []byte
	resultCode int
}

func runSessionJob(sc scenario.Scenario, ckptDir string) (*sessionJob, error) {
	body, err := json.Marshal(serve.SessionRequest{
		Spec:       &sc,
		Backend:    "cluster",
		Checkpoint: &serve.CheckpointRequest{Path: filepath.Join(ckptDir, "session.ckpt")},
	})
	if err != nil {
		return nil, err
	}
	scale := clockScale()
	start := time.Now()
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	job, err := streamSession(d, body, start, scale)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	return job, err
}

// streamSession posts the session and follows it to its end. start and
// scale are when the job began and the clock scale taken then.
func streamSession(d *daemon, body []byte, start time.Time, scale float64) (*sessionJob, error) {
	posted := time.Now()
	status, reply, err := d.post("/v1/sessions", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusAccepted {
		return nil, fmt.Errorf("benchmark: POST /v1/sessions answered %d: %s", status, reply)
	}
	var st serve.SessionStatus
	if err := json.Unmarshal(reply, &st); err != nil {
		return nil, err
	}
	resp, err := d.client.Get(d.url + st.Location + "/events")
	if err != nil {
		return nil, err
	}
	events, n, err := readSSE(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("benchmark: empty event stream")
	}

	job := &sessionJob{events: len(events), sseBytes: n, terminal: events[len(events)-1].typ}
	job.firstMS = events[0].at.Sub(posted).Seconds() * 1e3
	end := events[len(events)-1].at
	job.totalS = end.Sub(posted).Seconds()
	var began, lastEnd time.Time
	var lastCPU float64
	rs := &job.rounds
	for _, ev := range events {
		switch ev.typ {
		case "round_start":
			if began.IsZero() {
				began, lastEnd, lastCPU = ev.at, ev.at, ev.cpu
				job.setupS = began.Sub(start).Seconds() * (scale + ev.scale) / 2
			}
		case "round_end":
			var re struct {
				Participants int `json:"participants"`
			}
			if err := json.Unmarshal(ev.data, &re); err != nil {
				return nil, err
			}
			rs.durs = append(rs.durs, ev.at.Sub(lastEnd).Seconds())
			rs.cpus = append(rs.cpus, ev.cpu-lastCPU)
			rs.scales = append(rs.scales, ev.scale)
			rs.parts = append(rs.parts, re.Participants)
			lastEnd, lastCPU = ev.at, ev.cpu
		}
	}
	if began.IsZero() {
		return nil, fmt.Errorf("benchmark: session ended %q before any round", job.terminal)
	}

	res, err := d.client.Get(d.url + st.Location + "/result")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	job.resultCode = res.StatusCode
	job.result, err = io.ReadAll(res.Body)
	return job, err
}

func checkSession(r *report, ss sessionSpec, j *sessionJob) {
	for round, n := range j.rounds.parts {
		r.check(n > 0, "round %d delivered no updates", round)
	}
	r.check(len(j.rounds.parts) == ss.rounds, "saw %d round_end events, want %d", len(j.rounds.parts), ss.rounds)
	r.check(j.terminal == "done", "session ended %q, want done", j.terminal)
	r.check(j.resultCode == http.StatusOK, "GET result answered %d", j.resultCode)
}

// runSession is the untraced run: whole sessions back to back, each on its
// own daemon, until their rounds fill the window to the nearest session and
// there are cfg.setups set-ups.
func runSession(ctx context.Context, ss sessionSpec, cfg runConfig, r *report) error {
	sc, err := ss.scenarioFor(cfg.seed)
	if err != nil {
		return err
	}
	var first *sessionJob
	for jobs := 0; !windowFull(r.rawWall, jobs, cfg.seconds) || len(r.setups) < cfg.setups; jobs++ {
		j, err := runSessionJob(sc, cfg.tmp)
		if err != nil {
			return err
		}
		checkSession(r, ss, j)
		if first == nil {
			first = j
		} else {
			r.check(bytes.Equal(first.result, j.result), "repeat: /result bytes differ")
		}
		r.setups = append(r.setups, j.setupS)
		r.addRounds(j.rounds, ss.localSteps*ss.batch, 1, sessionSlice)
	}
	return nil
}

// traceSession is the traced pass: one session over HTTP, the same scenario
// straight through scenario.RunWith with the event and commit seams timed,
// then the checkpoint and wire sections on what that direct run left behind.
func traceSession(ctx context.Context, ss sessionSpec, cfg runConfig, r *report) error {
	sc, err := ss.scenarioFor(cfg.seed)
	if err != nil {
		return err
	}
	watch := startProcWatch()
	j, err := runSessionJob(sc, cfg.tmp)
	if err != nil {
		return err
	}
	checkSession(r, ss, j)
	r.addRounds(j.rounds, ss.localSteps*ss.batch, 1, sessionSlice)

	// The direct twin: same scenario, same backend, same checkpoint cadence,
	// no HTTP. RoundEnd → AfterCommit brackets checkpoint.Manager.Commit.
	path := filepath.Join(cfg.tmp, "direct.ckpt")
	var roundEnd time.Time
	var commits []float64
	runCfg := scenario.RunConfig{
		Backend: scenario.BackendCluster,
		Events: experiment.ObserverFunc(func(e experiment.Event) {
			if _, ok := e.(experiment.RoundEnd); ok {
				roundEnd = time.Now()
			}
		}),
		Checkpoint: scenario.CheckpointConfig{
			Path:        path,
			AfterCommit: func(int) { commits = append(commits, time.Since(roundEnd).Seconds()) },
		},
	}
	t0 := time.Now()
	trace, err := scenario.RunWith(ctx, sc, runCfg)
	if err != nil {
		return err
	}
	direct := time.Since(t0).Seconds()
	watch.finish(r)
	want, err := trace.Canonical()
	if err != nil {
		return err
	}
	r.check(bytes.Equal(want, j.result), "/result bytes differ from a direct scenario.RunWith trace")

	r.jobLayers()
	r.set("job.run_s", j.totalS)
	r.set("job.rounds", float64(len(j.rounds.durs)))
	r.set("engine.round_s", median(j.rounds.durs))
	var delivered int
	for _, n := range j.rounds.parts {
		delivered += n
	}
	r.set("engine.participants_per_round", float64(delivered)/float64(len(j.rounds.parts)))
	pct, v := tail(j.rounds.durs)
	r.set("engine.round_tail_s", v)
	r.set("engine.round_tail_pct", pct)
	r.set("scenario.run_direct_s", direct)
	r.set("serve.session_overhead_s", j.totalS-direct)
	r.set("serve.submit_to_first_event_ms", j.firstMS)
	r.set("serve.sse_events", float64(j.events))
	r.set("serve.sse_bytes", float64(j.sseBytes))
	r.set("checkpoint.commit_s_per_round", median(commits))

	params, err := microCheckpoint(cfg, sc, path, r)
	if err != nil {
		return err
	}
	return microTransport(cfg, params, 0, r)
}

// microCheckpoint times the durability layer on the real final state of the
// direct run: resume it from disk, then write, read and commit that state.
// It returns the model size it found there.
func microCheckpoint(cfg runConfig, sc scenario.Scenario, path string, r *report) (params int, err error) {
	meta := checkpoint.Meta{Label: sc.Name, Seed: sc.Seed, Clients: sc.Clients, Rounds: sc.Rounds}
	var fe firstErr
	keep := fe.keep
	r.set("checkpoint.resume_ms", 1e3*cfg.timeOp(func() {
		m, _, e := checkpoint.Resume(path, meta, checkpoint.Options{})
		keep(e)
		if m != nil {
			keep(m.Close())
		}
	}))
	if fe.err != nil {
		return 0, fe.err
	}
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	r.set("checkpoint.snapshot_bytes", float64(info.Size()))
	mgr, st, err := checkpoint.Resume(path, meta, checkpoint.Options{})
	if err != nil {
		return 0, err
	}
	if err := mgr.Close(); err != nil {
		return 0, err
	}

	snap := &checkpoint.Snapshot{Meta: meta, NextRound: st.NextRound, Epoch: st.Epoch,
		Model: st.Model, Sampler: st.Sampler, Clients: st.Clients}
	scratch := path + ".micro"
	defer os.Remove(scratch)
	r.set("checkpoint.snapshot_write_ms", 1e3*cfg.timeOp(func() {
		f, e := os.Create(scratch)
		if e != nil {
			keep(e)
			return
		}
		keep(checkpoint.WriteSnapshot(f, snap))
		keep(f.Close())
	}))
	r.set("checkpoint.snapshot_read_ms", 1e3*cfg.timeOp(func() {
		f, e := os.Open(scratch)
		if e != nil {
			keep(e)
			return
		}
		_, e = checkpoint.ReadSnapshot(f)
		keep(e)
		f.Close()
	}))

	// WAL appends alone: a manager whose snapshot cadence never comes due
	// before the horizon, fed the run's own history one boundary at a time.
	walOnly := path + ".walonly"
	defer os.Remove(walOnly)
	defer os.Remove(checkpoint.WALPath(walOnly))
	wal, err := checkpoint.Create(walOnly, meta, checkpoint.Options{Interval: sc.Rounds + 1})
	if err != nil {
		return 0, err
	}
	history := st.History
	var commits []float64
	for b := 1; b < len(history); b++ {
		st.NextRound, st.History = b, history[:b]
		t0 := time.Now()
		keep(wal.Commit(st))
		commits = append(commits, time.Since(t0).Seconds())
	}
	keep(wal.Close())
	r.set("checkpoint.wal_commit_us", 1e6*median(commits))
	return len(st.Model), fe.err
}
