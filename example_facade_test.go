package unbiasedfl_test

import (
	"context"
	"fmt"

	"unbiasedfl"
)

// Example demonstrates the one-call path from a paper setup to its
// Stackelberg equilibrium.
func Example() {
	sess, err := unbiasedfl.NewSession(context.Background(), unbiasedfl.Setup1,
		unbiasedfl.WithBaseOptions(unbiasedfl.Options{
			NumClients:   4,
			TotalSamples: 400,
			Rounds:       20,
			LocalSteps:   4,
			BatchSize:    16,
			EvalEvery:    5,
			Calibration:  2,
			Seed:         1,
			Runs:         1,
		}))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	eq, err := sess.Equilibrium()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("clients priced: %d\n", len(eq.P))
	fmt.Printf("spend within budget: %v\n", eq.Spent <= sess.Environment().Params.B+1e-9)
	// Output:
	// clients priced: 4
	// spend within budget: true
}
