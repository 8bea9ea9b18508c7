package stats

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelForVisitsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100} {
		for _, workers := range []int{0, 1, 2, 8, 200} {
			visits := make([]int, n)
			err := ParallelFor(context.Background(), n, workers, func(_ context.Context, _ *struct{}, i int) error {
				visits[i]++
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
				}
			}
		}
	}
}

var poolWorkers = []int{1, 2, 8, 200}

// TestParallelForLowestIndexError fails several indices and checks that the
// lowest one's error comes back and that every index below it ran.
func TestParallelForLowestIndexError(t *testing.T) {
	const n = 100
	for _, workers := range poolWorkers {
		for _, failAt := range []int{0, 7, 63} {
			var ran [n]atomic.Bool
			err := ParallelFor(context.Background(), n, workers, func(_ context.Context, _ *struct{}, i int) error {
				ran[i].Store(true)
				if i >= failAt && i%3 == failAt%3 {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if want := fmt.Sprintf("index %d", failAt); err == nil || err.Error() != want {
				t.Fatalf("workers=%d: got %v, want %s", workers, err, want)
			}
			for i := 0; i < failAt; i++ {
				if !ran[i].Load() {
					t.Fatalf("workers=%d: index %d below the failure at %d never ran", workers, i, failAt)
				}
			}
		}
	}
}

// TestParallelForScratchPerWorker checks that fn sees a zero S on a
// worker's first index and the same S on its later ones.
func TestParallelForScratchPerWorker(t *testing.T) {
	for _, workers := range poolWorkers {
		var scratches atomic.Int64
		err := ParallelFor(context.Background(), 500, workers, func(_ context.Context, s *[]int, i int) error {
			if *s == nil {
				scratches.Add(1)
			}
			*s = append(*s, i)
			for k := 1; k < len(*s); k++ {
				if (*s)[k] <= (*s)[k-1] {
					return fmt.Errorf("worker claimed %v out of order", *s)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := int(scratches.Load()); got < 1 || got > min(workers, 500) {
			t.Fatalf("workers=%d: %d scratch values", workers, got)
		}
	}
}

// TestParallelForCallerCancel checks that a ctx cancelled before or during
// the call makes ParallelFor return ctx.Err(), even over fn's own errors.
func TestParallelForCallerCancel(t *testing.T) {
	for _, workers := range poolWorkers {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var calls atomic.Int64
		err := ParallelFor(ctx, 50, workers, func(context.Context, *struct{}, int) error {
			calls.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) || calls.Load() != 0 {
			t.Fatalf("workers=%d, cancelled before: err %v after %d calls", workers, err, calls.Load())
		}

		ctx, cancel = context.WithCancel(context.Background())
		err = ParallelFor(ctx, 1000, workers, func(_ context.Context, _ *struct{}, i int) error {
			if i == 10 {
				cancel()
				return errors.New("failure after the cancel")
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d, cancelled during: got %v", workers, err)
		}

		ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
		err = ParallelFor(ctx, 1000, workers, func(ctx context.Context, _ *struct{}, _ int) error {
			<-ctx.Done()
			return ctx.Err()
		})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d, deadline during: got %v", workers, err)
		}
	}
}

// TestParallelForCancelsInFlight holds index 0 in flight until index 1
// fails: index 0 must see its ctx cancelled, and the context.Canceled it
// returns must not mask index 1's error. With one worker index 1 never
// starts, so index 0 fails with context.Canceled of its own and that is
// what comes back.
func TestParallelForCancelsInFlight(t *testing.T) {
	failure := errors.New("originating failure")
	for _, workers := range poolWorkers {
		err := ParallelFor(context.Background(), 2, workers, func(ctx context.Context, _ *struct{}, i int) error {
			if i == 1 {
				return failure
			}
			if workers == 1 {
				return context.Canceled
			}
			<-ctx.Done()
			return ctx.Err()
		})
		want := failure
		if workers == 1 {
			want = context.Canceled
		}
		if !errors.Is(err, want) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, want)
		}
	}
}

// TestParallelForAllocsDoNotGrowWithN: a call allocates its shared state
// and its workers, never anything per index.
func TestParallelForAllocsDoNotGrowWithN(t *testing.T) {
	for _, workers := range []int{1, 2} {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(50, func() {
				_ = ParallelFor(context.Background(), n, workers, func(context.Context, *struct{}, int) error { return nil })
			})
		}
		if small, large := allocs(workers), allocs(10_000); large > small {
			t.Fatalf("workers=%d: %v allocs over %d indices, %v over 10000", workers, small, workers, large)
		}
	}
}
