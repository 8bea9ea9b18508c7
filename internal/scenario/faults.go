package scenario

import (
	"sort"

	"unbiasedfl/internal/adversary"
	"unbiasedfl/internal/engine"
)

// compileSchedule lowers the declarative fault list into the engine's
// per-client schedule: O(1) lookups in the sampler hot loop instead of
// scanning the slice each round. The willingness/availability sampling that
// consumes it lives in engine.FaultSampler, shared by every execution
// backend.
func compileSchedule(numClients int, faults []ClientFault) engine.FaultSchedule {
	sch := engine.NewFaultSchedule(numClients)
	for _, f := range faults {
		switch f.Kind {
		case FaultStraggler:
			sch.Delay[f.Client] = f.DelayFactor
		case FaultDropout:
			sch.DropRound[f.Client] = f.Round
		case FaultFlaky:
			sch.Availability[f.Client] = f.Availability
		case FaultDeviate:
			sch.QFactor[f.Client] = f.Factor
		}
	}
	return sch
}

// adversarySpec is the compiled adversarial slice of a fault schedule: the
// Stage-I misreports, Stage-II deviations, and training-time poisons that the
// driver threads through the pricing and sampling seams and the poison table.
type adversarySpec struct {
	misreports []adversary.Misreport
	deviations []adversary.Deviation
	poisons    []adversary.Poison
}

// compileAdversary extracts the adversarial faults (entries stay in fault-list
// order, which Validate has already deduplicated per (client, kind)).
func compileAdversary(faults []ClientFault) adversarySpec {
	var adv adversarySpec
	for _, f := range faults {
		switch f.Kind {
		case FaultMisreport:
			adv.misreports = append(adv.misreports, adversary.Misreport{Client: f.Client, Factor: f.Factor})
		case FaultDeviate:
			adv.deviations = append(adv.deviations, adversary.Deviation{Client: f.Client, Factor: f.Factor})
		case FaultPoison:
			adv.poisons = append(adv.poisons, adversary.Poison{Client: f.Client, Factor: f.Factor, FromRound: f.Round})
		}
	}
	return adv
}

// present reports whether any adversarial behaviour is scheduled.
func (a adversarySpec) present() bool {
	return len(a.misreports) > 0 || len(a.deviations) > 0 || len(a.poisons) > 0
}

// clients returns the sorted, deduplicated client sets per behaviour — the
// trace's adversary roster.
func (a adversarySpec) clients() (misreporting, deviating, poisoning []int) {
	collect := func(ns []int) []int {
		if len(ns) == 0 {
			return nil
		}
		out := append([]int(nil), ns...)
		sort.Ints(out)
		return out
	}
	for _, m := range a.misreports {
		misreporting = append(misreporting, m.Client)
	}
	for _, d := range a.deviations {
		deviating = append(deviating, d.Client)
	}
	for _, p := range a.poisons {
		poisoning = append(poisoning, p.Client)
	}
	return collect(misreporting), collect(deviating), collect(poisoning)
}

// honestFaults strips the adversarial kinds from a fault list, keeping the
// exogenous faults and membership churn — the schedule of the scenario's
// honest twin, against which adversarial degradation is measured.
func honestFaults(faults []ClientFault) []ClientFault {
	out := make([]ClientFault, 0, len(faults))
	for _, f := range faults {
		switch f.Kind {
		case FaultMisreport, FaultDeviate, FaultPoison:
			continue
		}
		out = append(out, f)
	}
	return out
}

// compileMembership lowers the join/leave faults into the engine's
// round-boundary membership plan (engine.NewMembershipPlan: the plan does
// not depend on the fault list's order). Returns nil when the schedule
// has no membership faults, so a fixed-roster scenario pays nothing for the
// elasticity machinery and its trace is unchanged. Validate has range-checked
// every fault before any caller gets here.
func compileMembership(numClients int, faults []ClientFault) *engine.MembershipPlan {
	var joins, leaves []engine.MembershipChange
	for _, f := range faults {
		switch f.Kind {
		case FaultJoin:
			joins = append(joins, engine.MembershipChange{Client: f.Client, Round: f.Round})
		case FaultLeave:
			leaves = append(leaves, engine.MembershipChange{Client: f.Client, Round: f.Round})
		}
	}
	return engine.NewMembershipPlan(numClients, joins, leaves)
}
