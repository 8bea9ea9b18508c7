package engine

import (
	"math"
	"reflect"
	"testing"
)

// churnPlan is the canonical elastic fixture: clients 0-3 start, 4 joins at
// round 3, 1 leaves at round 6.
func churnPlan() *MembershipPlan {
	return &MembershipPlan{
		Initial: []int{0, 1, 2, 3},
		Events: []MembershipEvent{
			{Round: 3, Join: []int{4}},
			{Round: 6, Leave: []int{1}},
		},
	}
}

func TestMembershipPlanValidate(t *testing.T) {
	if err := churnPlan().Validate(5, 10); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	// Nil Initial means the whole fleet starts active.
	full := &MembershipPlan{Events: []MembershipEvent{{Round: 2, Leave: []int{0}}}}
	if err := full.Validate(3, 5); err != nil {
		t.Fatalf("nil-initial plan rejected: %v", err)
	}

	bad := map[string]*MembershipPlan{
		"empty initial roster":  {Initial: []int{}},
		"initial out of range":  {Initial: []int{0, 5}},
		"initial not ascending": {Initial: []int{2, 1}},
		"initial duplicate":     {Initial: []int{1, 1}},
		"event at round 0": {Events: []MembershipEvent{
			{Round: 0, Leave: []int{0}}}},
		"event past horizon": {Events: []MembershipEvent{
			{Round: 10, Leave: []int{0}}}},
		"events not increasing": {Events: []MembershipEvent{
			{Round: 3, Leave: []int{0}}, {Round: 3, Leave: []int{1}}}},
		"empty event": {Events: []MembershipEvent{{Round: 2}}},
		"join out of range": {Initial: []int{0}, Events: []MembershipEvent{
			{Round: 2, Join: []int{5}}}},
		"join list not ascending": {Initial: []int{0}, Events: []MembershipEvent{
			{Round: 2, Join: []int{2, 1}}}},
		"join while active": {Events: []MembershipEvent{
			{Round: 2, Join: []int{1}}}},
		"rejoin after leave": {Events: []MembershipEvent{
			{Round: 2, Leave: []int{1}}, {Round: 4, Join: []int{1}}}},
		"leave out of range": {Events: []MembershipEvent{
			{Round: 2, Leave: []int{5}}}},
		"leave list not ascending": {Events: []MembershipEvent{
			{Round: 2, Leave: []int{2, 1}}}},
		"leave never-joined": {Initial: []int{0, 1}, Events: []MembershipEvent{
			{Round: 2, Leave: []int{3}}}},
		"double leave": {Events: []MembershipEvent{
			{Round: 2, Leave: []int{1}}, {Round: 4, Leave: []int{1}}}},
		"empties the fleet": {Initial: []int{0}, Events: []MembershipEvent{
			{Round: 2, Leave: []int{0}}}},
	}
	for name, p := range bad {
		if err := p.Validate(5, 10); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEpochFenceposts pins the boundary convention everything else hangs
// off: an event at round r fires after the commit of round r-1, so it is
// not yet counted at boundary r, and is counted at boundary r+1.
func TestEpochFenceposts(t *testing.T) {
	p := churnPlan() // events at rounds 3 and 6
	for boundary, want := range map[int]int{
		0: 0, 1: 0, 3: 0,
		4: 1, 5: 1, 6: 1,
		7: 2, 10: 2,
	} {
		if got := p.EpochAt(boundary); got != want {
			t.Errorf("EpochAt(%d) = %d, want %d", boundary, got, want)
		}
	}
	var nilPlan *MembershipPlan
	if nilPlan.EpochAt(5) != 0 {
		t.Error("nil plan must sit at epoch 0 forever")
	}

	for boundary, want := range map[int][]bool{
		0: {true, true, true, true, false},
		3: {true, true, true, true, false},
		4: {true, true, true, true, true},
		6: {true, true, true, true, true},
		7: {true, false, true, true, true},
	} {
		if got := p.ActiveAt(boundary, 5); !reflect.DeepEqual(got, want) {
			t.Errorf("ActiveAt(%d) = %v, want %v", boundary, got, want)
		}
	}
	if got := nilPlan.ActiveAt(2, 3); !reflect.DeepEqual(got, []bool{true, true, true}) {
		t.Errorf("nil plan ActiveAt = %v, want all active", got)
	}
}

// TestJoinsAfter: the cluster backend asks which prospective members will
// dial in during a run starting at a boundary — including a join firing
// exactly at that boundary's round.
func TestJoinsAfter(t *testing.T) {
	p := churnPlan()
	if got := p.joinsAfter(0); !reflect.DeepEqual(got, []int{4}) {
		t.Errorf("joinsAfter(0) = %v, want [4]", got)
	}
	if got := p.joinsAfter(3); !reflect.DeepEqual(got, []int{4}) {
		t.Errorf("joinsAfter(3) = %v, want [4]", got)
	}
	if got := p.joinsAfter(4); got != nil {
		t.Errorf("joinsAfter(4) = %v, want nil", got)
	}
	var nilPlan *MembershipPlan
	if got := nilPlan.joinsAfter(0); got != nil {
		t.Errorf("nil plan joinsAfter = %v, want nil", got)
	}
}

func TestRenormWeights(t *testing.T) {
	weights := []float64{0.1, 0.2, 0.3, 0.4}
	dst := make([]float64, 4)
	renormWeights(dst, weights, []bool{true, false, true, false})
	want := []float64{0.1 / 0.4, 0, 0.3 / 0.4, 0}
	sum := 0.0
	for i := range dst {
		if math.Abs(dst[i]-want[i]) > 1e-15 {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
		sum += dst[i]
	}
	if math.Abs(sum-1) > 1e-15 {
		t.Fatalf("renormalized weights sum to %v, want 1", sum)
	}
	// Full fleet: identical to the original normalization.
	renormWeights(dst, weights, []bool{true, true, true, true})
	for i := range dst {
		if math.Abs(dst[i]-weights[i]) > 1e-15 {
			t.Fatalf("full-fleet renorm perturbed weight %d: %v", i, dst[i])
		}
	}
}

func TestFilterActive(t *testing.T) {
	active := []bool{true, false, true, false, true}
	got := filterActive([]int{0, 1, 2, 3, 4}, active)
	if !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Fatalf("filterActive = %v, want [0 2 4]", got)
	}
	if got := filterActive([]int{1, 3}, active); len(got) != 0 {
		t.Fatalf("all-inactive filter = %v, want empty", got)
	}
	if got := filterActive(nil, active); len(got) != 0 {
		t.Fatalf("nil participants filter = %v, want empty", got)
	}
}
