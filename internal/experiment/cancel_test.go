package experiment

import (
	"context"
	"errors"
	"testing"
	"time"

	"unbiasedfl/internal/testutil"
)

// slowOptions builds an environment whose training runs long enough to be
// cancelled mid-flight.
func slowOptions() Options {
	o := tinyOptions()
	o.Rounds = 100000
	o.Runs = 1
	return o
}

// cancelDuring runs fn in a goroutine, cancels after a short head start,
// and asserts fn returned context.Canceled promptly with no leaked
// goroutines.
func cancelDuring(t *testing.T, headStart time.Duration, fn func(ctx context.Context) error) {
	t.Helper()
	baseline := testutil.GoroutineBaseline()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- fn(ctx) }()
	time.Sleep(headStart)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("work did not stop after cancellation")
	}
	testutil.WaitNoLeaks(t, baseline, 5*time.Second)
}

// TestCancelMidScheme cancels RunScheme while the training loop is hot.
func TestCancelMidScheme(t *testing.T) {
	env, err := BuildSetup(context.Background(), Setup1, slowOptions())
	if err != nil {
		t.Fatal(err)
	}
	cancelDuring(t, 50*time.Millisecond, func(ctx context.Context) error {
		_, err := RunScheme(ctx, env, "proposed", nil)
		return err
	})
}

// TestCancelMidCompare cancels the scheme comparison mid-run.
func TestCancelMidCompare(t *testing.T) {
	env, err := BuildSetup(context.Background(), Setup1, slowOptions())
	if err != nil {
		t.Fatal(err)
	}
	cancelDuring(t, 50*time.Millisecond, func(ctx context.Context) error {
		_, err := Compare(ctx, env, nil)
		return err
	})
}

// TestCancelMidSweep cancels a parallel sweep across its worker pool.
func TestCancelMidSweep(t *testing.T) {
	env, err := BuildSetup(context.Background(), Setup1, slowOptions())
	if err != nil {
		t.Fatal(err)
	}
	cancelDuring(t, 50*time.Millisecond, func(ctx context.Context) error {
		_, err := Sweep(ctx, env, "proposed", SweepV, []float64{1000, 2000, 4000, 8000, 16000, 32000}, nil)
		return err
	})
}

// TestCancelMidBuildSetup cancels the calibration phase of environment
// construction.
func TestCancelMidBuildSetup(t *testing.T) {
	opts := tinyOptions()
	opts.Calibration = 100000
	cancelDuring(t, 30*time.Millisecond, func(ctx context.Context) error {
		_, err := BuildSetup(ctx, Setup1, opts)
		return err
	})
}

// TestPreCancelledEverywhere asserts every context-threaded entry point
// fails fast on an already-cancelled context.
func TestPreCancelledEverywhere(t *testing.T) {
	env, err := BuildSetup(context.Background(), Setup1, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunScheme(ctx, env, "proposed", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunScheme: %v", err)
	}
	if _, err := Compare(ctx, env, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compare: %v", err)
	}
	if _, err := Sweep(ctx, env, "proposed", SweepV, []float64{1000, 2000}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep: %v", err)
	}
	if _, err := EquilibriumSweep(ctx, env, SweepV, []float64{1000}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("EquilibriumSweep: %v", err)
	}
	if _, err := BoundFidelity(ctx, env, 3, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("BoundFidelity: %v", err)
	}
	if _, err := ConvergenceRate(ctx, env, []int{4, 8}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("ConvergenceRate: %v", err)
	}
}
