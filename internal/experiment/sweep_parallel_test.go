package experiment

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"unbiasedfl/internal/game"
)

// TestSweepDeterministicAcrossParallelism pins parallel sweep execution to
// the sequential reference: every point owns its seeds and perturbed game,
// so the worker count must not change a single bit of the results.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	opts := tinyOptions()
	opts.Rounds = 10
	opts.Runs = 1
	env, err := BuildSetup(context.Background(), Setup1, opts)
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{1000, 4000, 8000}

	seq, err := sweepParallel(context.Background(), env, game.SchemeNameProposed, SweepV, values, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	prev := runtime.GOMAXPROCS(4)
	par, err := sweepParallel(context.Background(), env, game.SchemeNameProposed, SweepV, values, 4, nil)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sweep results differ across parallelism:\nseq: %+v\npar: %+v", seq, par)
	}

	// The public entry point must agree with both.
	pub, err := Sweep(context.Background(), env, SweepV, values)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, pub) {
		t.Fatalf("Sweep differs from sequential reference:\nseq: %+v\npub: %+v", seq, pub)
	}
}

// TestEquilibriumSweepMatchesColdSolves pins the batched, warm-started
// equilibrium sweep to the per-point cold reference: game.SolveMany's
// engine must not change a single bit of the reported economics, and the
// SweepPointDone events must arrive in ascending index order.
func TestEquilibriumSweepMatchesColdSolves(t *testing.T) {
	env, err := BuildSetup(context.Background(), Setup1, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{0, 500, 2000, 4000, 16000, 80000}
	var got []int
	obs := ObserverFunc(func(e Event) {
		if d, ok := e.(SweepPointDone); ok {
			got = append(got, d.Index)
		}
	})
	points, err := EquilibriumSweep(context.Background(), env, SweepV, values, obs)
	if err != nil {
		t.Fatal(err)
	}
	for i, val := range values {
		params, err := perturbedParams(env, SweepV, val)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := params.SolveKKT()
		if err != nil {
			t.Fatal(err)
		}
		var meanQ float64
		for _, q := range eq.Q {
			meanQ += q / float64(len(eq.Q))
		}
		want := SweepPoint{
			Value:            val,
			ServerObj:        eq.ServerObj,
			MeanQ:            meanQ,
			NegativePayments: eq.NegativePayments(),
		}
		if points[i] != want {
			t.Fatalf("point %d drifted from cold solve:\nbatch: %+v\ncold:  %+v", i, points[i], want)
		}
		if i >= len(got) || got[i] != i {
			t.Fatalf("SweepPointDone order broken: %v", got)
		}
	}

	// A failing point reports its sweep value, as the sequential code did.
	_, err = EquilibriumSweep(context.Background(), env, SweepC, []float64{10, -5}, nil)
	if err == nil || !strings.Contains(err.Error(), "non-positive mean cost") {
		t.Fatalf("expected the originating point error, got: %v", err)
	}
}

// TestSweepParallelPropagatesError ensures a failing point surfaces from the
// concurrent path too, and that the originating error wins over the
// context.Canceled artifacts the internal fail-fast abort induces in points
// still in flight.
func TestSweepParallelPropagatesError(t *testing.T) {
	env, err := BuildSetup(context.Background(), Setup1, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	_, err = sweepParallel(context.Background(), env, game.SchemeNameProposed, SweepC, []float64{10, -5, 20}, 4, nil)
	if err == nil {
		t.Fatal("expected error from invalid sweep value")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("fail-fast abort leaked as the sweep error: %v", err)
	}
	if !strings.Contains(err.Error(), "non-positive mean cost") {
		t.Fatalf("expected the originating point error, got: %v", err)
	}
}

// TestCheckpointedSweepKeepsPointsApart pins that the points of a sweep run
// under a checkpoint prefix commit to files of their own, so that concurrent
// points never write one file, and that checkpointing changes no result: the
// checkpointed sweep on four workers equals the checkpointed sequential one
// and the uncheckpointed one.
func TestCheckpointedSweepKeepsPointsApart(t *testing.T) {
	ctx := context.Background()
	opts := tinyOptions()
	opts.Rounds = 10
	opts.Runs = 1
	env, err := BuildSetup(ctx, Setup1, opts)
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{1000, 4000, 8000}
	plain, err := sweepParallel(ctx, env, game.SchemeNameProposed, SweepV, values, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	durable := *env
	durable.Run.Checkpoint.Path = filepath.Join(dir, "sweep")
	seq, err := sweepParallel(ctx, &durable, game.SchemeNameProposed, SweepV, values, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(4)
	par, err := sweepParallel(ctx, &durable, game.SchemeNameProposed, SweepV, values, 4, nil)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, seq) || !reflect.DeepEqual(plain, par) {
		t.Fatalf("checkpointing changed the sweep:\nplain:       %+v\nsequential:  %+v\nfour workers: %+v", plain, seq, par)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := range values {
		want = append(want, filepath.Join(dir, fmt.Sprintf("sweep-point%d-%s-run0.ckpt", i, game.SchemeNameProposed)))
	}
	if !reflect.DeepEqual(files, want) {
		t.Fatalf("checkpoint files %v, want one per point %v", files, want)
	}
}
