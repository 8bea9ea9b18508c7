package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unbiasedfl/internal/game"
	"unbiasedfl/internal/serve"
	"unbiasedfl/internal/stats"
)

// daemon is an in-process serve.Server on a loopback listener, with a client
// holding one keep-alive connection per load generator.
type daemon struct {
	srv    *serve.Server
	url    string
	client *http.Client
	stop   context.CancelFunc
	served chan error
}

// generators is how many closed-loop load generators (and connections) the
// serving workloads use: at most one per CPU, since they share the box with
// the daemon they load.
func generators() int { return min(2, runtime.GOMAXPROCS(0)) }

// quoteCache is the daemon's quote-cache capacity: a sixteenth of the
// default 4096, so that filling it (the cold workload's set-up, repeated a
// dozen times a run) does not outlast the timed window. The hot working set
// is still a quarter of it and every cold insert still evicts.
const quoteCache = 256

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	d := &daemon{
		srv:    serve.New(serve.Config{CacheSize: quoteCache, DrainTimeout: 5 * time.Second}),
		url:    "http://" + ln.Addr().String(),
		stop:   stop,
		served: make(chan error, 1),
	}
	conns := generators()
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns}}
	go func() { d.served <- d.srv.Serve(ctx, ln) }()
	return d, nil
}

// close drains the daemon and waits until it has stopped.
func (d *daemon) close() error {
	d.client.CloseIdleConnections()
	d.stop()
	return <-d.served
}

func (d *daemon) post(path string, body []byte) (status int, reply []byte, err error) {
	resp, err := d.client.Post(d.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err = io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

// cacheCounters reads the quote cache's hit/miss/eviction totals off
// /metrics, as an operator would.
func (d *daemon) cacheCounters() (hits, misses, evictions float64, err error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		for prefix, dst := range map[string]*float64{
			"flserve_cache_hits_total ":      &hits,
			"flserve_cache_misses_total ":    &misses,
			"flserve_cache_evictions_total ": &evictions,
		} {
			if v, ok := strings.CutPrefix(sc.Text(), prefix); ok {
				if *dst, err = strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil {
					return 0, 0, 0, err
				}
			}
		}
	}
	return hits, misses, evictions, sc.Err()
}

// quoteSpec sizes one serving workload.
type quoteSpec struct {
	clients int // clients per game
	pool    int // distinct request bodies generated from the seed
	// cold makes every request a game the daemon has never seen: each send
	// rewrites one cost digit-string in the pooled body with a fresh counter,
	// so the fingerprint never repeats and the FIFO eviction keeps running.
	cold bool
	// warm is how many requests prime the cache before the window opens: the
	// working set for the hot path, a full cache for the cold one.
	warm int
}

// costSlot is the fixed-width first cost every pooled body is generated
// with; cold requests overwrite it in place with 40 + k·1e-8.
const costSlot = "40.00000000"

// quoteBodies generates the request pool from the seed: heterogeneous costs,
// valuations and gradient bounds, data weights summing to one, and a budget
// a third of what full participation would cost, so the KKT bisection has
// a tight budget to find.
func quoteBodies(qs quoteSpec, seed uint64) ([][]byte, error) {
	rng := stats.NewRNG(seed ^ 0x900D5EED)
	bodies := make([][]byte, qs.pool)
	for i := range bodies {
		n := qs.clients
		pj := serve.ParamsJSON{
			A: make([]float64, n), G: make([]float64, n), C: make([]float64, n), V: make([]float64, n),
			Alpha: 1, Beta: 1, R: 100, QMax: 1,
		}
		var asum float64
		for j := 0; j < n; j++ {
			pj.A[j] = 0.5 + rng.Float64()
			asum += pj.A[j]
			pj.G[j] = 0.5 + rng.Float64()
			pj.C[j] = 41 + 16*rng.Float64()
			pj.V[j] = 3000 + 2000*rng.Float64()
			pj.B += pj.C[j] / 3
		}
		pj.C[0] = 40
		for j := range pj.A {
			pj.A[j] /= asum
		}
		b, err := json.Marshal(serve.QuoteRequest{Scheme: game.SchemeNameProposed, Params: pj})
		if err != nil {
			return nil, err
		}
		// Give the first cost its fixed-width slot.
		at := bytes.Index(b, []byte(`"c":[40,`))
		if at < 0 {
			return nil, fmt.Errorf("benchmark: no cost slot in request body")
		}
		at += len(`"c":[`)
		b = append(b[:at:at], append([]byte(costSlot), b[at+2:]...)...)
		bodies[i] = b
	}
	return bodies, nil
}

// stamp rewrites body's cost slot with a value no request has carried yet.
func stamp(body []byte, k uint64) {
	at := bytes.Index(body, []byte(`"c":[`)) + len(`"c":[`)
	copy(body[at:at+len(costSlot)], fmt.Sprintf("40.%08d", k%100000000))
}

// directQuote prices a request body straight through the scheme registry and
// renders it as the daemon would.
func directQuote(body []byte) ([]byte, error) {
	var req serve.QuoteRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	ps, err := game.SchemeByName(req.Scheme)
	if err != nil {
		return nil, err
	}
	p, err := req.Params.ToGame()
	if err != nil {
		return nil, err
	}
	out, err := ps.Price(p)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(serve.QuoteResponse{Scheme: out.Name, P: out.P, Q: out.Q, Spent: out.Spent, ServerObj: out.ServerObj})
	return append(b, '\n'), err
}

// quoteLoad is one daemon with its cache primed.
type quoteLoad struct {
	d      *daemon
	qs     quoteSpec
	bodies [][]byte
	// stamps counts cold requests sent so far; every cold body gets the next.
	stamps uint64
	setupS float64 // reference clock
}

// setUpQuotes boots a daemon and primes its cache — everything before the
// timed window.
func setUpQuotes(qs quoteSpec, bodies [][]byte) (*quoteLoad, error) {
	scale := clockScale()
	start := time.Now()
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	l := &quoteLoad{d: d, qs: qs, bodies: bodies}
	for i := 0; i < qs.warm; i++ {
		body := bodies[i%len(bodies)]
		if qs.cold {
			l.stamps++
			stamp(body, l.stamps)
		}
		status, _, err := d.post("/v1/quote", body)
		if err != nil || status != http.StatusOK {
			_ = d.close()
			return nil, fmt.Errorf("benchmark: priming quote %d: status %d: %v", i, status, err)
		}
	}
	l.setupS = time.Since(start).Seconds() * (scale + clockScale()) / 2
	return l, nil
}

// sliceEvery is the length of one throughput and CPU sample: short enough
// that some slices fall between the box's slow spells, long enough to hold
// some forty cold quotes and for the kernel's CPU accounting (brought up to
// date at context switches and 4 ms ticks) to have caught up. Training rounds
// are merged until they last this long, and a serving workload keeps setting
// up this long at each of its set-up points.
const sliceEvery = 20 * time.Millisecond

// latencyCap is each generator's latency store, allocated and touched before
// the window opens: a store that grew with the window would put however many
// quotes the box happened to fit into peak_rss_mb. It holds half a minute of
// the hot path on the reference box; beyond that it grows.
const latencyCap = 1 << 19

// scaleEvery is how many quotes a generator sends between two readings of
// the clock scale: some 30 ms of the hot path, 0.4 s of the cold one.
const scaleEvery = 512

// sampleEvery is the share of responses kept for the equality check against
// a direct PricingScheme.Price.
const sampleEvery = 64

type quoteSample struct{ request, reply []byte }

// quoteStore is what one generator has seen so far in the run.
type quoteStore struct {
	lat     []float64 // reference-clock seconds
	failed  []string
	samples []quoteSample
}

func newQuoteStores() []quoteStore {
	stores := make([]quoteStore, generators())
	for g := range stores {
		lat := make([]float64, latencyCap)
		for i := range lat {
			lat[i] = 1 // touch every page now, not as the window fills them
		}
		stores[g].lat = lat[:0]
	}
	return stores
}

// run drives the daemon closed-loop for window: each generator owns one
// connection, one store and a private slice of the body pool, sends, waits
// for the whole reply, and sends again. Meanwhile the calling goroutine cuts
// the window into slices of sliceEvery and takes throughput and CPU per
// quote in each.
func (l *quoteLoad) run(window time.Duration, stores []quoteStore, r *report) {
	gens := len(stores)
	scales := make([][]float64, gens)
	sent := make([]int, gens)
	var done atomic.Int64    // successful quotes so far, read by the slicer
	var latest atomic.Uint64 // the clock scale a generator took last, as float bits
	latest.Store(math.Float64bits(clockScale()))
	start, cpuStart := time.Now(), cpuSeconds()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for g := 0; g < gens; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := &stores[g]
			var own [][]byte
			for i := g; i < len(l.bodies); i += gens {
				own = append(own, l.bodies[i])
			}
			var scale float64
			for i := 0; time.Now().Before(deadline); i++ {
				if i%scaleEvery == 0 {
					scale = clockScale()
					scales[g] = append(scales[g], scale)
					latest.Store(math.Float64bits(scale))
				}
				body := own[i%len(own)]
				if l.qs.cold {
					// Interleaved counters: no two generators share a stamp.
					stamp(body, l.stamps+uint64(i*gens+g)+1)
				}
				at := time.Now()
				status, reply, err := l.d.post("/v1/quote", body)
				st.lat = append(st.lat, time.Since(at).Seconds()*scale)
				sent[g]++
				if err != nil || status != http.StatusOK {
					st.failed = append(st.failed, fmt.Sprintf("quote: status %d: %v", status, err))
					continue
				}
				done.Add(1)
				if i%sampleEvery == 0 {
					st.samples = append(st.samples, quoteSample{bytes.Clone(body), reply})
				}
			}
		}(g)
	}
	tick := time.NewTicker(min(sliceEvery, window/2))
	defer tick.Stop()
	t0, n0, cpu0 := start, int64(0), cpuStart
	for time.Now().Before(deadline) {
		<-tick.C
		t1, n1, cpu1 := time.Now(), done.Load(), cpuSeconds()
		if n1 > n0 {
			scale := math.Float64frombits(latest.Load())
			r.rates = append(r.rates, float64(n1-n0)/(t1.Sub(t0).Seconds()*scale))
			r.cpus = append(r.cpus, (cpu1-cpu0)*scale/float64(n1-n0))
		}
		t0, n0, cpu0 = t1, n1, cpu1
	}
	wg.Wait()
	wall, cpu := time.Since(start).Seconds(), cpuSeconds()-cpuStart
	var all []float64
	for g := range stores {
		l.stamps += uint64(gens * sent[g])
		r.op(sent[g])
		all = append(all, scales[g]...)
	}
	// The window's totals are scaled as a whole, by its median scale.
	r.rawWall += wall
	r.wall += wall * median(all)
	r.cpu += cpu * median(all)
	r.work += float64(done.Load())
	r.scales = append(r.scales, all...)
}

// checkQuotes holds every sampled reply to the bytes a direct Price call
// renders, and the window's cache hit rate to the side of the cache the
// workload is meant to exercise.
func checkQuotes(r *report, qs quoteSpec, stores []quoteStore, hitRate float64) {
	for _, st := range stores {
		for _, s := range st.samples {
			want, err := directQuote(s.request)
			r.check(err == nil && bytes.Equal(want, s.reply), "quote reply differs from a direct Price (%v)", err)
		}
	}
	if qs.cold {
		r.check(hitRate <= 0.01, "cold hit rate %.4f, want <= 0.01", hitRate)
	} else {
		r.check(hitRate >= 0.99, "hot hit rate %.4f, want >= 0.99", hitRate)
	}
}

// runQuotes is one serving run. The window is cut into cfg.setups equal
// parts, each on a daemon of its own, so that the set-up samples are spread
// over the whole run and no single bad second of the box holds them all:
// boot and prime (at least once, and again until sliceEvery has passed,
// because booting on a 64-game working set takes milliseconds), load for the
// part, read the cache counters. The traced pass adds the per-layer sections
// on the last daemon and the same bodies.
func runQuotes(qs quoteSpec, cfg runConfig, traced bool, r *report) error {
	bodies, err := quoteBodies(qs, cfg.seed)
	if err != nil {
		return err
	}
	var watch *procWatch
	if traced {
		watch = startProcWatch()
	}
	stores := newQuoteStores()
	part := time.Duration(cfg.seconds / float64(cfg.setups) * float64(time.Second))
	var l *quoteLoad
	defer func() {
		if l != nil {
			_ = l.d.close() // the run is over and its numbers are taken
		}
	}()
	var hits, misses, evictions float64
	for i := 0; i < cfg.setups; i++ {
		for start, n := time.Now(), 0; n == 0 || time.Since(start) < sliceEvery; n++ {
			if l != nil {
				d := l.d
				l = nil
				if err := d.close(); err != nil {
					return err
				}
			}
			if l, err = setUpQuotes(qs, bodies); err != nil {
				return err
			}
			r.setups = append(r.setups, l.setupS)
		}
		h0, m0, e0, err := l.d.cacheCounters()
		if err != nil {
			return err
		}
		l.run(part, stores, r)
		h1, m1, e1, err := l.d.cacheCounters()
		if err != nil {
			return err
		}
		hits, misses, evictions = hits+h1-h0, misses+m1-m0, evictions+e1-e0
	}
	for _, st := range stores {
		r.ops = append(r.ops, st.lat...)
		r.failures = append(r.failures, st.failed...)
	}
	hitRate := hits / max(hits+misses, 1)
	checkQuotes(r, qs, stores, hitRate)
	if !traced {
		return nil
	}
	watch.finish(r)
	r.jobLayers()
	r.set("job.run_s", r.rawWall)
	r.set("serve.cache_hit_rate", hitRate)
	r.set("serve.cache_evictions", evictions)
	r.setRef("serve.quote_p90_us", quantile(r.ops, 0.90)*1e6)
	r.setRef("serve.quote_p99_us", quantile(r.ops, 0.99)*1e6)
	return microQuotes(cfg, l, r)
}

// microQuotes times the layers under one quote on the workload's own
// bodies: the handler without a socket, the JSON decode, and the two sides
// of the cache.
func microQuotes(cfg runConfig, l *quoteLoad, r *report) error {
	var fe firstErr
	keep := fe.keep
	body := l.bodies[0]
	next := func() []byte {
		if l.qs.cold {
			l.stamps++
			stamp(body, l.stamps)
		}
		return body
	}
	handler := l.d.srv.Handler()
	r.set("serve.handler_quote_us", 1e6*cfg.timeOp(func() {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/quote", bytes.NewReader(next())))
		if rec.Code != http.StatusOK {
			keep(fmt.Errorf("benchmark: handler answered %d", rec.Code))
		}
	}))
	var req serve.QuoteRequest
	r.set("serve.json_decode_us", 1e6*cfg.timeOp(func() {
		req = serve.QuoteRequest{}
		keep(json.Unmarshal(body, &req))
		_, e := req.Params.ToGame()
		keep(e)
	}))
	p, e := req.Params.ToGame()
	if e != nil {
		return e
	}
	ps, e := game.SchemeByName(game.SchemeNameProposed)
	if e != nil {
		return e
	}
	cache := game.NewCache(0)
	_, e = cache.Price(ps, p)
	keep(e)
	r.set("game.cache_hit_ns", 1e9*cfg.timeOp(func() { _, e := cache.Price(ps, p); keep(e) }))
	r.set("game.fingerprint_s", cfg.timeOp(func() { _ = p.Fingerprint() }))
	r.set("game.solve_small_us", 1e6*cfg.timeOp(func() { _, e := p.SolveKKT(); keep(e) }))
	r.set("game.price_scheme_s", cfg.timeOp(func() { _, e := ps.Price(p); keep(e) }))
	return fe.err
}
