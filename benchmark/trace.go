package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/tensor"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was made; Parent indexes the span that caused
// this one (-1 for a root); Round is the training round it belongs to (-1
// outside any round).
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
}

// tracer keeps spans in memory until the benchmark ends. Partial sinks may
// run on a backend goroutine while the dispatch span is open on the
// orchestration goroutine, hence the lock.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// round is the open engine.round span (-1 between rounds) and roundNo its
	// round number; spans begun meanwhile hang under it.
	round   int
	roundNo int
	// sampled counts the clients the sampler drew, for updates_missed.
	sampled int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), round: -1, roundNo: -1}
}

// begin opens a span under parent (or under the open round when parent < 0)
// and returns its index.
func (t *tracer) begin(name, layer string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 {
		parent = t.round
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, Parent: parent, Round: t.roundNo})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

func (t *tracer) beginRound(round int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: "engine.round", Layer: "engine", Start: now, Parent: -1, Round: round})
	t.round, t.roundNo = len(t.spans)-1, round
	t.mu.Unlock()
}

func (t *tracer) endRound() {
	t.mu.Lock()
	i := t.round
	t.round, t.roundNo = -1, -1
	t.mu.Unlock()
	if i >= 0 {
		t.end(i)
	}
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// totals sums, per span name, the total and the self time (duration minus
// the part covered by child spans), and counts the spans.
type spanTotal struct {
	total, self float64 // seconds
	n           int
}

func (t *tracer) totals() map[string]spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]spanTotal{}
	for i, s := range t.spans {
		st := out[s.Name]
		st.total += float64(s.End-s.Start) / 1e9
		st.self += float64(s.End-s.Start-child[i]) / 1e9
		st.n++
		out[s.Name] = st
	}
	return out
}

// durations lists the durations in seconds of every span called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// socketCounter is the cluster backend's optional peak-socket accessor.
type socketCounter interface{ Sockets() int }

// tracedBackend times the three calls every backend has.
type tracedBackend struct {
	inner engine.ExecutionBackend
	tr    *tracer
}

func (b *tracedBackend) Open(ctx context.Context, spec *engine.Spec) error {
	s := b.tr.begin("engine.open", "engine", -1)
	defer b.tr.end(s)
	return b.inner.Open(ctx, spec)
}

func (b *tracedBackend) Dispatch(ctx context.Context, round int, global tensor.Vec, tasks []engine.ClientTask) ([]engine.ClientUpdate, error) {
	s := b.tr.begin("engine.dispatch", "engine", -1)
	defer b.tr.end(s)
	return b.inner.Dispatch(ctx, round, global, tasks)
}

func (b *tracedBackend) Close() error {
	s := b.tr.begin("engine.close", "engine", -1)
	defer b.tr.end(s)
	return b.inner.Close()
}

// tracedPartial times hierarchical dispatch and, inside it, every call into
// the orchestrator's partial sink — the place the aggregator cannot be
// wrapped, because the orchestrator asserts its concrete type.
type tracedPartial struct {
	inner engine.PartialBackend
	tr    *tracer
}

func (b tracedPartial) DispatchPartials(
	ctx context.Context, round int, global tensor.Vec,
	tasks []engine.ClientTask, groupSize int, sink func(engine.Partial) error,
) error {
	d := b.tr.begin("engine.dispatch", "engine", -1)
	defer b.tr.end(d)
	return b.inner.DispatchPartials(ctx, round, global, tasks, groupSize, func(p engine.Partial) error {
		s := b.tr.begin("engine.sink_merge", "engine", d)
		defer b.tr.end(s)
		return sink(p)
	})
}

// The orchestrator type-asserts PartialBackend, StatefulBackend and
// EpochBackend, and the fleet bench asserts Sockets(); a wrapper that hid
// one would silently change the run (no hierarchy, no resumable cursors, no
// membership churn), and one that invented one would promise what the
// backend cannot do. So the wrapper comes in exactly the shapes the engine's
// backends have, and wrapBackend refuses any other.
type (
	localShaped struct {
		*tracedBackend
		tracedPartial
		engine.StatefulBackend
	}
	clusterShaped struct {
		*tracedBackend
		tracedPartial
		engine.StatefulBackend
		engine.EpochBackend
		socketCounter
	}
)

// wrapBackend decorates b with spans, forwarding every optional interface b
// implements and no other.
func wrapBackend(b engine.ExecutionBackend, tr *tracer) (engine.ExecutionBackend, error) {
	base := &tracedBackend{inner: b, tr: tr}
	pb, hasP := b.(engine.PartialBackend)
	sb, hasS := b.(engine.StatefulBackend)
	eb, hasE := b.(engine.EpochBackend)
	sc, hasC := b.(socketCounter)
	switch {
	case hasP && hasS && hasE && hasC:
		return clusterShaped{base, tracedPartial{pb, tr}, sb, eb, sc}, nil
	case hasP && hasS && !hasE && !hasC:
		return localShaped{base, tracedPartial{pb, tr}, sb}, nil
	case !hasP && !hasS && !hasE && !hasC:
		return base, nil
	}
	return nil, fmt.Errorf("benchmark: no traced wrapper for backend %T (partial=%v stateful=%v epoch=%v sockets=%v)",
		b, hasP, hasS, hasE, hasC)
}

// tracedSampler times Sample. Like the backend it must forward
// LevelsSampler (else the orchestrator aggregates with q = 1) and
// StatefulSampler (else commits lose the coin streams) exactly when the
// wrapped sampler has them.
type tracedSampler struct {
	inner engine.Sampler
	tr    *tracer
}

func (s *tracedSampler) Sample(round int) []int {
	sp := s.tr.begin("fl.sample", "fl", -1)
	ids := s.inner.Sample(round)
	s.tr.end(sp)
	s.tr.mu.Lock()
	s.tr.sampled += len(ids)
	s.tr.mu.Unlock()
	return ids
}

func (s *tracedSampler) NumClients() int { return s.inner.NumClients() }

type (
	levelsSampler struct {
		*tracedSampler
		engine.LevelsSampler
	}
	statefulSampler struct {
		*tracedSampler
		engine.StatefulSampler
	}
	levelsStatefulSampler struct {
		*tracedSampler
		engine.LevelsSampler
		engine.StatefulSampler
	}
)

func wrapSampler(s engine.Sampler, tr *tracer) engine.Sampler {
	base := &tracedSampler{inner: s, tr: tr}
	ls, hasL := s.(engine.LevelsSampler)
	ss, hasS := s.(engine.StatefulSampler)
	switch {
	case hasL && hasS:
		return levelsStatefulSampler{base, ls, ss}
	case hasL:
		return levelsSampler{base, ls}
	case hasS:
		return statefulSampler{base, ss}
	}
	return base
}

// tracedAggregator times the flat fold. Only for GroupSize <= 1: in
// hierarchical mode the orchestrator asserts the aggregator's concrete type
// and the fold is seen through tracedPartial's sink instead.
type tracedAggregator struct {
	inner engine.Aggregator
	tr    *tracer
}

func (a tracedAggregator) Aggregate(global tensor.Vec, updates []engine.ClientUpdate, weights, q []float64) error {
	s := a.tr.begin("engine.aggregate", "engine", -1)
	defer a.tr.end(s)
	return a.inner.Aggregate(global, updates, weights, q)
}

// instrument installs the decorators on a spec about to run and returns the
// backend to run it on. spec.Model is deliberately left alone: a wrapped
// model would hide model.LocalStepper and move the run off its hot path.
// The round span is opened and closed by the caller's OnRoundStart/OnRound
// hooks (roundLog), which exist in untraced runs too.
func instrument(spec *engine.Spec, backend engine.ExecutionBackend, tr *tracer) (engine.ExecutionBackend, error) {
	spec.Sampler = wrapSampler(spec.Sampler, tr)
	if spec.GroupSize <= 1 {
		spec.Aggregator = tracedAggregator{spec.Aggregator, tr}
	}
	return wrapBackend(backend, tr)
}
