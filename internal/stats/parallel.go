package stats

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(ctx, s, i) for every i in [0, n) across at most
// workers goroutines; workers <= 0 means GOMAXPROCS, and one worker runs on
// the calling goroutine. Indices are claimed in ascending order, and each
// worker hands fn its own zero S as scratch. fn must touch only index-i
// state besides s; callers reduce results in index order to stay
// bit-identical for any worker count.
//
// Once any fn fails, no further index is claimed and, with more than one
// worker, the ctx fn receives is cancelled; every claimed index still runs,
// so every index below a failing one has run. ParallelFor returns ctx.Err()
// if the caller's ctx ended; otherwise the lowest-index error that is not
// context.Canceled — the in-flight calls the abort cancelled must not mask
// the failure that caused it — and failing that, the lowest-index error.
func ParallelFor[S any](ctx context.Context, n, workers int, fn func(ctx context.Context, s *S, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		return serialFor(ctx, n, fn)
	}
	p := &pool[S]{n: n, fn: fn}
	p.ctx, p.cancel = context.WithCancel(ctx)
	defer p.cancel()
	// The caller waits rather than taking a share: a goroutine it starts
	// sits in its P's next-run slot, which other Ps are slow to steal, so a
	// busy caller would run most indices itself.
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.work()
		}()
	}
	p.wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.err != nil {
		return p.err
	}
	return p.canceled
}

// serialFor is ParallelFor on one worker: the indices in order on the
// calling goroutine and the caller's ctx, up to the first error. Nothing runs
// after it, so it is the lowest-index error, and nothing else was in flight
// to cancel; the caller's ctx ending still wins over it.
func serialFor[S any](ctx context.Context, n int, fn func(ctx context.Context, s *S, i int) error) error {
	var s S
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := fn(ctx, &s, i); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return err
		}
	}
	return ctx.Err()
}

// pool is one ParallelFor call's shared state, allocated once per call.
type pool[S any] struct {
	ctx    context.Context
	cancel context.CancelFunc
	n      int
	fn     func(context.Context, *S, int) error
	next   atomic.Int64
	wg     sync.WaitGroup

	mu       sync.Mutex
	errAt    int   // index of err
	err      error // lowest-index error that is not context.Canceled
	canAt    int   // index of canceled
	canceled error // lowest-index context.Canceled error
}

// work claims indices until they run out or the call is aborted.
func (p *pool[S]) work() {
	var s S
	for p.ctx.Err() == nil {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		if err := p.fn(p.ctx, &s, i); err != nil {
			p.fail(i, err)
		}
	}
}

// fail records index i's error and stops further claims.
func (p *pool[S]) fail(i int, err error) {
	p.cancel()
	p.mu.Lock()
	defer p.mu.Unlock()
	if errors.Is(err, context.Canceled) {
		if p.canceled == nil || i < p.canAt {
			p.canAt, p.canceled = i, err
		}
	} else if p.err == nil || i < p.errAt {
		p.errAt, p.err = i, err
	}
}
