package experiment

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"unbiasedfl/internal/checkpoint"
	"unbiasedfl/internal/engine"
	"unbiasedfl/internal/game"
	"unbiasedfl/internal/stats"
)

// withoutSetQ hides every method of its sampler but Sample and NumClients,
// SetQ among them.
type withoutSetQ struct{ engine.Sampler }

// TestLaunchRefusals pins what Launch turns away before a round runs, and
// that a checkpoint written by one leg refuses — with checkpoint's own
// error, unwrapped — to resume a leg that states a different identity.
func TestLaunchRefusals(t *testing.T) {
	ctx := context.Background()
	opts := tinyOptions()
	opts.Rounds = 6
	env, err := BuildSetup(ctx, Setup1, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := env.Fed.NumClients()
	q := make([]float64, n)
	for i := range q {
		q[i] = 0.5
	}
	bernoulli := func() engine.Sampler {
		s, err := engine.NewBernoulliSampler(q, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	plan := &engine.MembershipPlan{
		Initial: []int{0, 1, 2, 3, 4},
		Events:  []engine.MembershipEvent{{Round: 2, Join: []int{5}}},
	}
	path := filepath.Join(t.TempDir(), "leg.ckpt")
	durable := RunConfig{Checkpoint: CheckpointConfig{Path: path}}
	written := Leg{Sampler: bernoulli(), Seed: 7, CheckpointLabel: "a", CheckpointSeed: 7}
	if _, err := Launch(ctx, env, written, durable); err != nil {
		t.Fatal(err)
	}
	durable.Checkpoint.Resume = true

	for _, tc := range []struct {
		name string
		leg  Leg
		cfg  RunConfig
		is   error  // errors.Is target, when the refusal has one
		says string // substring of the message otherwise
	}{
		{
			name: "membership without SetQ",
			leg:  Leg{Scheme: game.SchemeNameProposed, Sampler: withoutSetQ{bernoulli()}, Membership: plan, Q: append([]float64(nil), q...)},
			says: "SetQ",
		},
		{
			name: "unknown scheme",
			leg:  Leg{Scheme: "nope", Sampler: bernoulli(), Membership: plan, Q: append([]float64(nil), q...)},
			says: `unknown pricing scheme "nope"`,
		},
		{
			name: "unknown backend",
			leg:  Leg{Sampler: bernoulli()},
			cfg:  RunConfig{Backend: Backend(9)},
			says: "unknown backend",
		},
		{
			name: "resume under another label",
			leg:  Leg{Sampler: bernoulli(), Seed: 7, CheckpointLabel: "b", CheckpointSeed: 7},
			cfg:  durable,
			is:   checkpoint.ErrMetaMismatch,
		},
		{
			name: "resume under another horizon",
			leg:  Leg{Sampler: bernoulli(), Seed: 7, CheckpointLabel: "a", CheckpointSeed: 7, Rounds: 9},
			cfg:  durable,
			is:   checkpoint.ErrMetaMismatch,
		},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := Launch(ctx, env, tc.leg, tc.cfg)
			switch {
			case err == nil:
				t.Fatal("Launch accepted the leg")
			case tc.is != nil && !errors.Is(err, tc.is):
				t.Fatalf("got %v, want %v", err, tc.is)
			case tc.is != nil && !strings.HasPrefix(err.Error(), tc.is.Error()):
				t.Fatalf("checkpoint's error came back wrapped: %v", err)
			case !strings.Contains(err.Error(), tc.says):
				t.Fatalf("got %v, want a message with %q", err, tc.says)
			}
		})
	}

	// The refusals above left the checkpoint alone: its own leg still resumes.
	written.Sampler = bernoulli()
	if _, err := Launch(ctx, env, written, durable); err != nil {
		t.Fatalf("the leg that wrote the checkpoint no longer resumes: %v", err)
	}
}
