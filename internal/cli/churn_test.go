package cli

import (
	"reflect"
	"testing"

	"unbiasedfl/internal/engine"
)

func TestParseChurnAndPlan(t *testing.T) {
	joins, err := ParseChurn("5@3, 4@3")
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := ParseChurn("2@6")
	if err != nil {
		t.Fatal(err)
	}
	want := &engine.MembershipPlan{
		Initial: []int{0, 1, 2, 3},
		Events:  []engine.MembershipEvent{{Round: 3, Join: []int{4, 5}}, {Round: 6, Leave: []int{2}}},
	}
	if got := engine.NewMembershipPlan(6, joins, leaves); !reflect.DeepEqual(got, want) {
		t.Fatalf("plan %+v, want %+v", got, want)
	}
	if err := want.Validate(6, 10); err != nil {
		t.Fatalf("compiled plan does not validate: %v", err)
	}
	if engine.NewMembershipPlan(6, nil, nil) != nil {
		t.Fatal("no churn must compile to no plan")
	}
	for _, bad := range []string{"5", "a@b", "5@3,,"} {
		if _, err := ParseChurn(bad); err == nil {
			t.Errorf("ParseChurn(%q) accepted", bad)
		}
	}
}
