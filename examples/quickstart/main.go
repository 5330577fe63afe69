// Quickstart: build a ripple-carry adder, measure its transition
// activity under random inputs, classify useful vs useless transitions,
// and compare against the paper's closed-form prediction (eqs. 2–7).
package main

import (
	"context"
	"fmt"
	"log"

	"glitchsim"
	"glitchsim/internal/analytic"
)

func main() {
	const width = 16
	const cycles = 4000

	// 1. Build the paper's §3 circuit: an N-bit ripple-carry adder made
	// of full-adder cells.
	adder := glitchsim.NewRCA(width)
	fmt.Print(adder.Summary())

	// 2. Simulate it with unit gate delays under random stimulus and
	// count transitions, classifying each cycle's count by the parity
	// rule: odd -> one useful + rest useless, even -> all useless.
	activity, err := glitchsim.NewEngine().Measure(context.Background(), glitchsim.MeasureRequest{
		Circuit: glitchsim.CircuitFromNetlist(adder),
		Config:  glitchsim.Config{Cycles: cycles, Seed: 2025},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmeasured:  %v\n", activity)

	// 3. Compare with the closed-form prediction: for a 16-bit adder and
	// 4000 vectors the paper reports 119002 total transitions, 63334
	// useful and 55668 useless (L/F = 0.88).
	pred := analytic.PredictRCA(width, cycles)
	total, useful, useless := pred.RoundedTotals()
	fmt.Printf("predicted: total=%d useful=%d useless=%d L/F=%.2f\n",
		total, useful, useless, float64(useless)/float64(useful))

	// 4. The punchline of the paper: even in this small adder almost
	// half of all switching activity is useless glitching.
	fmt.Printf("\n%.0f%% of all transitions are glitches; balancing delays could cut\n"+
		"combinational activity by a factor of %.2f.\n",
		100*float64(activity.Useless)/float64(activity.Transitions),
		activity.BalanceLimitFactor())
}
