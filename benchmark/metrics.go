package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef declares one metric the benchmark emits. The two tables below
// are the single source of the names and units in BENCHMARK.json (the smoke
// test pins the two against each other).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of each workload sees, and what BENCHMARK.json
// bounds. The driver contract makes every workload report every one of them,
// so each is defined in terms of the workload's unit operation (one client's
// update inside a training round, or one priced quote) and unit of work (one
// SGD sample, or one quote); see README.md for the table. Every time is
// reference-clock time (clock.go).
//
// The three timings are the 1st (99th, for the rate) percentile of many
// short samples and setup_s is the fast decile of a dozen set-ups, not
// medians, and every bound is the contract's ceiling. The reference box
// shares its caches with other tenants: for hours at a time a run's median
// moves by 15-45 % from one run to the next while its fastest percent stays
// within 4-19 % (README.md has the recordings), and the driver refuses a
// benchmark whose metric scatters by more than its bound. The typical case
// is measured all the same, and judged by -compare: see typical.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p01_us", "us", "lower", 0.25},
	{"work_p99_per_s", "1/s", "higher", 0.25},
	{"cpu_p01_us_per_work", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// typical is the typical case of the same three timings, from every
// untraced run: the median unit operation, and throughput and CPU per unit
// of work as totals over the whole timed window, so that a stall, a
// collection or a slow tail that the fast percentiles step over lands in
// them. They carry the issue's bound of 10 % and -compare holds them to it,
// answering "unresolved" when the box scatters them wider than that; they
// cannot be BENCHMARK.json end-to-end metrics because on a noisy hour they
// would fail the driver's own spread check. The traced pass reports them
// under the same names.
var typical = []metricDef{
	{"job.op_p50_us", "us", "lower", 0.10},
	{"job.work_per_s", "1/s", "higher", 0.10},
	{"job.cpu_us_per_work", "us", "lower", 0.10},
}

// perLayer is the traced pass: one name per layer quantity, layer = package
// name. A workload that never enters a layer reports 0 for it.
var perLayer = []metricDef{
	// The workload's own job-level numbers, by the names the issue gave them.
	{"job.run_s", "s", "lower", 0},
	{"job.rounds", "count", "higher", 0},
	{"job.op_p50_us", "us", "lower", 0},
	{"job.op_tail_us", "us", "lower", 0},
	{"job.op_tail_pct", "%", "higher", 0},
	{"job.work_per_s", "1/s", "higher", 0},
	{"job.cpu_us_per_work", "us", "lower", 0},
	{"job.time_to_target_s", "s", "lower", 0},
	{"job.target_round", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"proc.alloc_mb", "MB", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.goroutines_peak", "count", "lower", 0},
	{"proc.clock_scale", "ratio", "higher", 0},

	{"experiment.build_s", "s", "lower", 0},
	{"data.generate_s", "s", "lower", 0},
	{"fl.calibrate_s", "s", "lower", 0},
	{"fl.sample_s_per_round", "s", "lower", 0},
	{"stats.rng_restore_ns", "ns", "lower", 0},

	{"game.price_s", "s", "lower", 0},
	{"game.solve_kkt_s", "s", "lower", 0},
	{"game.solve_warm_s", "s", "lower", 0},
	{"game.fingerprint_s", "s", "lower", 0},
	{"game.price_scheme_s", "s", "lower", 0},
	{"game.cache_hit_ns", "ns", "lower", 0},
	{"game.solve_small_us", "us", "lower", 0},

	{"engine.open_s", "s", "lower", 0},
	{"engine.close_s", "s", "lower", 0},
	{"engine.sockets_peak", "count", "lower", 0},
	{"engine.round_s", "s", "lower", 0},
	{"engine.dispatch_s_per_round", "s", "lower", 0},
	{"engine.sink_merge_s_per_round", "s", "lower", 0},
	{"engine.aggregate_s_per_round", "s", "lower", 0},
	{"engine.other_s_per_round", "s", "lower", 0},
	{"engine.cursors_s", "s", "lower", 0},
	{"engine.participants_per_round", "count", "higher", 0},
	{"engine.updates_missed", "count", "lower", 0},
	{"engine.round_tail_s", "s", "lower", 0},
	{"engine.round_tail_pct", "%", "higher", 0},

	{"fixpoint.addscaled_ns_per_param", "ns", "lower", 0},
	{"fixpoint.merge_ns_per_param", "ns", "lower", 0},
	{"fixpoint.addto_ns_per_param", "ns", "lower", 0},

	{"model.sgd_step_us", "us", "lower", 0},
	{"model.sgd_allocs_per_op", "count", "lower", 0},
	{"model.eval_loss_s", "s", "lower", 0},
	{"model.eval_acc_s", "s", "lower", 0},
	{"tensor.logits_batch_ns", "ns", "lower", 0},
	{"tensor.softmax_rows_ns", "ns", "lower", 0},
	{"tensor.addscaled_tmul_ns", "ns", "lower", 0},
	{"tensor.matmult_ns", "ns", "lower", 0},

	{"transport.batch_bytes", "B", "lower", 0},
	{"transport.partial_bytes", "B", "lower", 0},
	{"transport.roundstart_bytes", "B", "lower", 0},
	{"transport.update_bytes", "B", "lower", 0},
	{"transport.batch_send_us", "us", "lower", 0},
	{"transport.batch_recv_us", "us", "lower", 0},
	{"transport.partial_send_us", "us", "lower", 0},
	{"transport.partial_recv_us", "us", "lower", 0},
	{"transport.update_roundtrip_us", "us", "lower", 0},
	{"transport.handshake_us", "us", "lower", 0},

	{"checkpoint.wal_commit_us", "us", "lower", 0},
	{"checkpoint.snapshot_write_ms", "ms", "lower", 0},
	{"checkpoint.snapshot_read_ms", "ms", "lower", 0},
	{"checkpoint.snapshot_bytes", "B", "lower", 0},
	{"checkpoint.resume_ms", "ms", "lower", 0},
	{"checkpoint.commit_s_per_round", "s", "lower", 0},

	{"scenario.run_direct_s", "s", "lower", 0},
	{"serve.session_overhead_s", "s", "lower", 0},
	{"serve.submit_to_first_event_ms", "ms", "lower", 0},
	{"serve.sse_events", "count", "lower", 0},
	{"serve.sse_bytes", "B", "lower", 0},
	{"serve.handler_quote_us", "us", "lower", 0},
	{"serve.json_decode_us", "us", "lower", 0},
	{"serve.quote_p90_us", "us", "lower", 0},
	{"serve.quote_p99_us", "us", "lower", 0},
	{"serve.cache_hit_rate", "ratio", "higher", 0},
	{"serve.cache_evictions", "count", "lower", 0},
}

// report is everything one benchmark process measured. Times are
// reference-clock times unless a field says otherwise.
type report struct {
	// One sample per set-up and per unit operation, and one rate and one
	// CPU-per-work sample per slice of the timed window (a few training
	// rounds, or sliceEvery of serving).
	setups []float64 // seconds
	ops    []float64 // seconds
	rates  []float64 // units of work per second of wall time
	cpus   []float64 // user+sys CPU seconds per unit of work
	// Totals over the timed window: wall and CPU seconds, units of work.
	wall, cpu, work float64
	// rawWall is the timed window so far as the wall clock read it; it only
	// decides when the window is full.
	rawWall float64
	// scales is every clockScale the run took.
	scales []float64

	// layer holds the traced pass's values by perLayer name; onRef names the
	// ones that are reference-clock times already (they come from samples).
	layer map[string]float64
	onRef map[string]bool

	attempted int
	failures  []string
}

// op counts n attempted operations.
func (r *report) op(n int) { r.attempted += n }

// check counts one attempted operation and records it as failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// set records one per-layer value; a name missing from perLayer is a bug in
// the benchmark, caught by the smoke test through unknownLayers.
func (r *report) set(name string, v float64) {
	if r.layer == nil {
		r.layer = map[string]float64{}
	}
	r.layer[name] = v
}

// setRef records a per-layer time that was taken from samples already on the
// reference clock; result leaves it as it is.
func (r *report) setRef(name string, v float64) {
	r.set(name, v)
	if r.onRef == nil {
		r.onRef = map[string]bool{}
	}
	r.onRef[name] = true
}

// typicalValues are the typical metrics of the run so far, by name.
func (r *report) typicalValues() map[string]float64 {
	return map[string]float64{
		"job.op_p50_us":       median(r.ops) * 1e6,
		"job.work_per_s":      r.work / r.wall,
		"job.cpu_us_per_work": r.cpu / r.work * 1e6,
	}
}

// jobLayers writes the traced pass's companions of the end-to-end timings,
// from the same samples: the typical metrics and the unit operation's tail.
func (r *report) jobLayers() {
	for name, v := range r.typicalValues() {
		r.setRef(name, v)
	}
	pct, v := tail(r.ops)
	r.setRef("job.op_tail_us", v*1e6)
	r.set("job.op_tail_pct", pct)
}

// unknownLayers lists names set on the report that perLayer does not declare.
func (r *report) unknownLayers() []string {
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	var bad []string
	for name := range r.layer {
		if !known[name] {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

// firstErr keeps the first error of a run of calls whose results are only
// timed, so a direct-call section can be written as one closure per line.
type firstErr struct{ err error }

func (f *firstErr) keep(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output. Typical is not
// part of it: an untraced run prints those values on lines of their own.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Typical   map[string]metricValue `json:"-"`
}

// result folds the report into the contract's shape: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one.
func (r *report) result(traced bool, peakRSSMB float64) resultLine {
	out := resultLine{
		Correct:   len(r.failures) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    len(r.failures),
		Metrics:   map[string]metricValue{},
	}
	if traced {
		// The traced pass times whole sections, not samples, so it is scaled
		// to the reference clock as a whole, by the run's median scale.
		scale := median(r.scales)
		r.set("proc.clock_scale", scale)
		for _, d := range perLayer {
			v := r.layer[d.Name]
			switch d.Unit {
			case "s", "ms", "us", "ns":
				if !r.onRef[d.Name] {
					v *= scale
				}
			}
			out.Metrics[d.Name] = metricValue{v, d.Unit}
		}
		return out
	}
	values := map[string]float64{
		"setup_s":             quantile(r.setups, 0.10),
		"op_p01_us":           quantile(r.ops, 0.01) * 1e6,
		"work_p99_per_s":      quantile(r.rates, 0.99),
		"cpu_p01_us_per_work": quantile(r.cpus, 0.01) * 1e6,
		"peak_rss_mb":         peakRSSMB,
	}
	for _, d := range endToEnd {
		out.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	out.Typical = map[string]metricValue{}
	for _, d := range typical {
		out.Typical[d.Name] = metricValue{r.typicalValues()[d.Name], d.Unit}
	}
	return out
}

// print writes one `workload metric value unit` line per metric, in table
// order (an untraced run: the end-to-end metrics, then the typical ones),
// then the contract's JSON object as the last line.
func (res resultLine) print(w io.Writer, workload string, traced bool) error {
	if traced {
		for _, d := range perLayer {
			fmt.Fprintf(w, "%s %s %v %s\n", workload, d.Name, res.Metrics[d.Name].Value, d.Unit)
		}
	} else {
		for _, d := range endToEnd {
			fmt.Fprintf(w, "%s %s %v %s\n", workload, d.Name, res.Metrics[d.Name].Value, d.Unit)
		}
		for _, d := range typical {
			fmt.Fprintf(w, "%s %s %v %s\n", workload, d.Name, res.Typical[d.Name].Value, d.Unit)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the middle of xs (mean of the two middles for even n), or 0
// for no samples. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics. xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + frac*(s[i+1]-s[i])
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and its value; with fewer than twenty samples that is
// the maximum, reported as percentile 100.
func tail(xs []float64) (pct, value float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 20 {
		return 100, s[len(s)-1]
	}
	i := len(s) - 11
	return 100 * float64(i) / float64(len(s)-1), s[i]
}
