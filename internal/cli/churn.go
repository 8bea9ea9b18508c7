package cli

import (
	"fmt"
	"strings"

	"unbiasedfl/internal/engine"
)

// ParseChurn parses the comma-separated client@round list behind the
// binaries' -join and -leave flags; engine.NewMembershipPlan compiles the
// result.
func ParseChurn(s string) ([]engine.MembershipChange, error) {
	if s == "" {
		return nil, nil
	}
	var out []engine.MembershipChange
	for _, part := range strings.Split(s, ",") {
		var ev engine.MembershipChange
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d@%d", &ev.Client, &ev.Round); err != nil {
			return nil, fmt.Errorf("%q is not client@round", part)
		}
		out = append(out, ev)
	}
	return out, nil
}
