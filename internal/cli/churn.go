package cli

import (
	"fmt"
	"sort"
	"strings"

	"unbiasedfl/internal/engine"
)

// ChurnEvent is one parsed client@round membership change.
type ChurnEvent struct {
	Client, Round int
}

// ParseChurn parses the comma-separated client@round list behind the
// binaries' -join and -leave flags.
func ParseChurn(s string) ([]ChurnEvent, error) {
	if s == "" {
		return nil, nil
	}
	var out []ChurnEvent
	for _, part := range strings.Split(s, ",") {
		var ev ChurnEvent
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d@%d", &ev.Client, &ev.Round); err != nil {
			return nil, fmt.Errorf("%q is not client@round", part)
		}
		out = append(out, ev)
	}
	return out, nil
}

// ChurnPlan compiles parsed -join/-leave events into a membership plan (nil
// when there is no churn). The initial roster is every client that is not
// scheduled to join; the engine validates the rest.
func ChurnPlan(clients int, joins, leaves []ChurnEvent) *engine.MembershipPlan {
	if len(joins) == 0 && len(leaves) == 0 {
		return nil
	}
	events := map[int]*engine.MembershipEvent{}
	rounds := []int{}
	at := func(r int) *engine.MembershipEvent {
		if ev, ok := events[r]; ok {
			return ev
		}
		ev := &engine.MembershipEvent{Round: r}
		events[r] = ev
		rounds = append(rounds, r)
		return ev
	}
	joiner := map[int]bool{}
	for _, j := range joins {
		at(j.Round).Join = append(at(j.Round).Join, j.Client)
		joiner[j.Client] = true
	}
	for _, l := range leaves {
		at(l.Round).Leave = append(at(l.Round).Leave, l.Client)
	}
	sort.Ints(rounds)
	plan := &engine.MembershipPlan{}
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
