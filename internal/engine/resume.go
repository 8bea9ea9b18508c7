package engine

import (
	"errors"
	"fmt"

	"unbiasedfl/internal/tensor"
)

// ClientCursor is one client's resumable execution state at a round
// boundary: the xoshiro cursor of its private SGD stream. A client's stream
// after k rounds depends on its whole participation history, so cursors —
// not a re-derived seed Split — are what a checkpoint must carry for
// bit-exact resume.
type ClientCursor struct {
	RNG [4]uint64
}

// RunState is the canonical resumable state of a run at a round boundary:
// everything the orchestrator needs to continue producing the exact rounds
// the uninterrupted run would have. It is the payload the checkpoint layer
// persists.
type RunState struct {
	// NextRound is the first round the resumed run will execute; rounds
	// 0..NextRound-1 are already reflected in Model and History.
	NextRound int
	// Epoch is the membership epoch in effect at the boundary (0 for a
	// fixed-roster run). The roster itself is re-derived from the spec's
	// MembershipPlan on resume; the recorded counter cross-checks that the
	// resuming spec carries the same plan the checkpoint was written under.
	Epoch int
	// Model is the global parameter vector after round NextRound-1.
	Model tensor.Vec
	// Sampler is the sampler's opaque stream state (see StatefulSampler).
	// Nil means the sampler is a pure function of the round index and needs
	// no restoration.
	Sampler []uint64
	// Clients holds one cursor per client, indexed by client id. Nil means
	// the backend keeps no per-client stream state worth restoring.
	Clients []ClientCursor
	// History is the accumulated per-round record, rounds 0..NextRound-1.
	History []RoundMetrics
}

// Clone deep-copies the state, detaching it from any buffers the
// orchestrator reuses between OnRoundCommit calls.
func (st *RunState) Clone() *RunState {
	if st == nil {
		return nil
	}
	out := &RunState{NextRound: st.NextRound, Epoch: st.Epoch}
	out.Model = append(tensor.Vec(nil), st.Model...)
	out.Sampler = append([]uint64(nil), st.Sampler...)
	out.Clients = append([]ClientCursor(nil), st.Clients...)
	out.History = append([]RoundMetrics(nil), st.History...)
	for i := range out.History {
		out.History[i].ParticipantIDs = append([]int(nil), st.History[i].ParticipantIDs...)
	}
	return out
}

// StatefulSampler is implemented by samplers whose draws consume private
// RNG streams (Bernoulli willingness coins, availability coins). The
// orchestrator captures the state at every committed round boundary and
// restores it on resume, so the resumed coin sequence continues exactly
// where the interrupted run stopped.
type StatefulSampler interface {
	// SamplerState returns the sampler's stream cursors as opaque words.
	SamplerState() []uint64
	// RestoreSamplerState rewinds the sampler to a captured state.
	RestoreSamplerState(state []uint64) error
}

// StatefulBackend is implemented by execution backends whose clients hold
// resumable stream state (both built-in backends do). RestoreClientCursors
// is called before Open; ClientCursors is called only at round boundaries,
// between Dispatch calls.
type StatefulBackend interface {
	// RestoreClientCursors primes the backend so that Open builds every
	// client executor at the given cursor instead of deriving fresh streams
	// from the spec seed.
	RestoreClientCursors(cursors []ClientCursor) error
	// ClientCursors fills dst (len == fleet size, indexed by client id)
	// with the current cursor of every client.
	ClientCursors(dst []ClientCursor) error
}

// validateResume checks a RunState against the spec and model dimensions
// before the orchestrator trusts it.
func validateResume(r *RunState, s *Spec, modelLen, nClients int) error {
	switch {
	case r.NextRound < 0 || r.NextRound > s.Rounds:
		return fmt.Errorf("engine: resume round %d outside horizon [0, %d]", r.NextRound, s.Rounds)
	case len(r.Model) != modelLen:
		return fmt.Errorf("engine: resume model has %d parameters, spec model has %d", len(r.Model), modelLen)
	case len(r.History) != r.NextRound:
		return fmt.Errorf("engine: resume history has %d rounds, want %d", len(r.History), r.NextRound)
	case len(r.Clients) != 0 && len(r.Clients) != nClients:
		return fmt.Errorf("engine: resume carries %d client cursors, fleet has %d", len(r.Clients), nClients)
	}
	if want := s.Membership.EpochAt(r.NextRound); r.Epoch != want {
		return fmt.Errorf("engine: resume at epoch %d, but the spec's membership plan puts boundary %d in epoch %d",
			r.Epoch, r.NextRound, want)
	}
	if !r.Model.IsFinite() {
		return errors.New("engine: resume model is not finite")
	}
	// A backend trusts its table and restores a cursor only when it trains
	// the client, so an all-zero cursor — which no stream can continue from —
	// is refused here, or a client never sampled would carry it on into the
	// next checkpoint.
	for n, c := range r.Clients {
		if c.RNG == ([4]uint64{}) {
			return fmt.Errorf("engine: resume cursor of client %d is all zero", n)
		}
	}
	for i := range r.History {
		if r.History[i].Round != i {
			return fmt.Errorf("engine: resume history entry %d records round %d", i, r.History[i].Round)
		}
	}
	return nil
}
