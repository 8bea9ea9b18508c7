package engine

import (
	"context"
	"fmt"
	"sort"
)

// MembershipEvent is one round-boundary churn event: the listed clients join
// and leave the federation immediately before round Round executes. Joins
// and leaves only ever take effect at round commits — mid-round churn does
// not exist in this model, which is what keeps an elastic run bit-exactly
// replayable from a checkpoint.
type MembershipEvent struct {
	// Round is the first round the new roster is in effect for.
	Round int
	// Join lists clients entering the federation, ascending.
	Join []int
	// Leave lists clients permanently departing, ascending.
	Leave []int
}

// MembershipPlan is a run's full membership schedule: which clients are
// present at round zero and every join/leave event after that. The plan is
// static configuration — part of the spec, not of the checkpointed state —
// so a resumed run re-derives the roster at its boundary by replaying the
// plan, and the recorded epoch counter cross-checks that replay.
type MembershipPlan struct {
	// Initial lists the clients active at round zero, ascending. Nil means
	// the whole fleet starts active (the classic fixed-roster run).
	Initial []int
	// Events holds the churn schedule in strictly increasing Round order.
	Events []MembershipEvent
}

// MembershipChange is one client's join or leave, effective from round Round.
type MembershipChange struct {
	Client, Round int
}

// NewMembershipPlan compiles per-client joins and leaves into a plan (nil
// when there are neither): the initial roster is every client of the fleet
// not scheduled to join, and one event per distinct round lists that round's
// joins and leaves in ascending client order, so the plan does not depend on
// the order of the input. Validate checks the rest.
func NewMembershipPlan(clients int, joins, leaves []MembershipChange) *MembershipPlan {
	if len(joins) == 0 && len(leaves) == 0 {
		return nil
	}
	events := map[int]*MembershipEvent{}
	var rounds []int
	at := func(r int) *MembershipEvent {
		ev, ok := events[r]
		if !ok {
			ev = &MembershipEvent{Round: r}
			events[r] = ev
			rounds = append(rounds, r)
		}
		return ev
	}
	joiner := map[int]bool{}
	for _, j := range joins {
		ev := at(j.Round)
		ev.Join = append(ev.Join, j.Client)
		joiner[j.Client] = true
	}
	for _, l := range leaves {
		ev := at(l.Round)
		ev.Leave = append(ev.Leave, l.Client)
	}
	sort.Ints(rounds)
	plan := &MembershipPlan{}
	for n := 0; n < clients; n++ {
		if !joiner[n] {
			plan.Initial = append(plan.Initial, n)
		}
	}
	for _, r := range rounds {
		ev := events[r]
		sort.Ints(ev.Join)
		sort.Ints(ev.Leave)
		plan.Events = append(plan.Events, *ev)
	}
	return plan
}

// Roster is the fleet's composition during one membership epoch, as handed
// to the OnEpoch hook and to EpochBackend.ApplyEpoch. Active is indexed by
// client id over the full population; Joined and Left list the clients that
// changed state at this epoch's boundary (both nil for epoch zero). The
// slices are reused by the orchestrator between epochs — a hook that needs
// them beyond its own call must copy.
type Roster struct {
	Epoch  int
	Round  int // first round this roster is in effect for
	Active []bool
	Joined []int
	Left   []int
}

// NumActive counts the active clients.
func (r Roster) NumActive() int {
	n := 0
	for _, a := range r.Active {
		if a {
			n++
		}
	}
	return n
}

// EpochBackend is implemented by execution backends that hold per-client
// resources worth churning at epoch boundaries — the cluster backend admits
// joining nodes (welcoming any parked join handshake) and gracefully
// retires leaving ones. ApplyEpoch is called on the orchestration
// goroutine, between rounds, before the OnEpoch hook. Backends without
// per-client lifecycle (the local backend keeps every executor resident)
// simply do not implement it.
type EpochBackend interface {
	ApplyEpoch(ctx context.Context, r Roster) error
}

// Validate checks the plan against the fleet size and round horizon.
func (p *MembershipPlan) Validate(nClients, rounds int) error {
	state := make([]int8, nClients) // 0 never-joined, 1 active, 2 left
	active := 0
	if p.Initial == nil {
		for n := range state {
			state[n] = 1
		}
		active = nClients
	} else {
		if len(p.Initial) == 0 {
			return fmt.Errorf("engine: membership plan starts with an empty fleet")
		}
		prev := -1
		for _, n := range p.Initial {
			if n < 0 || n >= nClients {
				return fmt.Errorf("engine: membership plan: initial client %d out of range [0, %d)", n, nClients)
			}
			if n <= prev {
				return fmt.Errorf("engine: membership plan: initial roster not strictly ascending at client %d", n)
			}
			prev = n
			state[n] = 1
			active++
		}
	}
	lastRound := 0
	for i := range p.Events {
		ev := &p.Events[i]
		if ev.Round < 1 || ev.Round >= rounds {
			return fmt.Errorf("engine: membership event at round %d outside (0, %d)", ev.Round, rounds)
		}
		if ev.Round <= lastRound {
			return fmt.Errorf("engine: membership events not strictly increasing at round %d", ev.Round)
		}
		lastRound = ev.Round
		if len(ev.Join) == 0 && len(ev.Leave) == 0 {
			return fmt.Errorf("engine: empty membership event at round %d", ev.Round)
		}
		prev := -1
		for _, n := range ev.Join {
			if n < 0 || n >= nClients {
				return fmt.Errorf("engine: membership join of client %d out of range [0, %d)", n, nClients)
			}
			if n <= prev {
				return fmt.Errorf("engine: membership join list not strictly ascending at client %d", n)
			}
			prev = n
			switch state[n] {
			case 1:
				return fmt.Errorf("engine: client %d joins at round %d but is already active", n, ev.Round)
			case 2:
				return fmt.Errorf("engine: client %d rejoins at round %d after leaving (leaves are permanent)", n, ev.Round)
			}
			state[n] = 1
			active++
		}
		prev = -1
		for _, n := range ev.Leave {
			if n < 0 || n >= nClients {
				return fmt.Errorf("engine: membership leave of client %d out of range [0, %d)", n, nClients)
			}
			if n <= prev {
				return fmt.Errorf("engine: membership leave list not strictly ascending at client %d", n)
			}
			prev = n
			if state[n] != 1 {
				return fmt.Errorf("engine: client %d leaves at round %d but is not active", n, ev.Round)
			}
			state[n] = 2
			active--
		}
		if active == 0 {
			return fmt.Errorf("engine: membership event at round %d empties the fleet", ev.Round)
		}
	}
	return nil
}

// EpochAt reports the epoch in effect at a committed round boundary: the
// number of events that have fired before round `boundary` runs. An event
// at round r fires after the commit of round r-1, so it is not yet counted
// at the boundary NextRound == r.
func (p *MembershipPlan) EpochAt(boundary int) int {
	if p == nil {
		return 0
	}
	e := 0
	for i := range p.Events {
		if p.Events[i].Round >= boundary {
			break
		}
		e++
	}
	return e
}

// ActiveAt returns the active-client mask in effect at a committed round
// boundary (same fencepost convention as EpochAt). This is what a backend
// opening at that boundary — a fresh boot or a checkpoint resume — uses to
// decide which nodes exist yet.
func (p *MembershipPlan) ActiveAt(boundary, nClients int) []bool {
	active := make([]bool, nClients)
	if p == nil || p.Initial == nil {
		for n := range active {
			active[n] = true
		}
	} else {
		for _, n := range p.Initial {
			active[n] = true
		}
	}
	if p == nil {
		return active
	}
	for i := range p.Events {
		ev := &p.Events[i]
		if ev.Round >= boundary {
			break
		}
		for _, n := range ev.Join {
			active[n] = true
		}
		for _, n := range ev.Leave {
			active[n] = false
		}
	}
	return active
}

// joinsAfter reports whether any client joins at or after the boundary —
// the cluster backend uses it to know whether prospective members will be
// dialing in (and parking) during the run.
func (p *MembershipPlan) joinsAfter(boundary int) []int {
	if p == nil {
		return nil
	}
	var out []int
	for i := range p.Events {
		ev := &p.Events[i]
		if ev.Round < boundary {
			continue
		}
		out = append(out, ev.Join...)
	}
	return out
}

// renormWeights fills dst with the data weights renormalized over the
// active subset (inactive clients get weight zero, and never participate
// anyway). The unbiased aggregation rule then estimates the active fleet's
// full-participation gradient — the natural generalization of Lemma 1 to an
// elastic federation.
func renormWeights(dst, weights []float64, active []bool) []float64 {
	sum := 0.0
	for n, a := range active {
		if a {
			sum += weights[n]
		}
	}
	for n := range weights {
		if active[n] {
			dst[n] = weights[n] / sum
		} else {
			dst[n] = 0
		}
	}
	return dst
}

// filterActive compacts participants in place, dropping inactive clients.
// The sampler keeps drawing coins for every client every round (stream
// discipline — see BernoulliSampler), so membership filtering happens here,
// not in the sampler.
func filterActive(participants []int, active []bool) []int {
	k := 0
	for _, n := range participants {
		if active[n] {
			participants[k] = n
			k++
		}
	}
	return participants[:k]
}
