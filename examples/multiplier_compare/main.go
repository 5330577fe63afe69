// Multiplier comparison: the paper's §4 delay-imbalance study. The array
// multiplier's long, skewed carry chains glitch heavily, while the
// balanced Wallace tree barely glitches at all — and making the sum path
// twice as slow as the carry path (the realistic case) makes both worse.
package main

import (
	"context"
	"fmt"
	"log"

	"glitchsim"
	"glitchsim/internal/circuits"
	"glitchsim/internal/delay"
	"glitchsim/internal/report"
	"glitchsim/netlist"
)

func main() {
	const cycles = 500 // the paper's Table 1 run length
	engine := glitchsim.NewEngine()
	ctx := context.Background()

	fmt.Println("=== Table 1: architecture comparison, unit delay ===")
	tb := report.NewTable("", "architecture", "size", "cells", "depth", "total", "useful", "useless", "L/F")
	for _, width := range []int{4, 8, 12, 16} {
		for _, arch := range []string{"array", "wallace"} {
			n := build(arch, width)
			act, err := engine.Measure(ctx, glitchsim.MeasureRequest{
				Circuit: glitchsim.CircuitFromNetlist(n),
				Config:  glitchsim.Config{Cycles: cycles},
			})
			if err != nil {
				log.Fatal(err)
			}
			tb.AddRowf(arch, fmt.Sprintf("%dx%d", width, width),
				n.NumCells(), n.LogicDepth(),
				act.Transitions, act.Useful, act.Useless, act.LOverF())
		}
	}
	fmt.Println(tb)

	fmt.Println("=== Table 2: sum/carry delay imbalance (8x8) ===")
	tb2 := report.NewTable("", "architecture", "delay model", "useful", "useless", "L/F")
	for _, arch := range []string{"array", "wallace"} {
		n := build(arch, 8)
		for _, dm := range []delay.Model{delay.Unit(), delay.FullAdderRatio(2, 1)} {
			act, err := engine.Measure(ctx, glitchsim.MeasureRequest{
				Circuit: glitchsim.CircuitFromNetlist(n),
				Config:  glitchsim.Config{Cycles: cycles, Delay: dm},
			})
			if err != nil {
				log.Fatal(err)
			}
			tb2.AddRowf(arch, dm.Name(), act.Useful, act.Useless, act.LOverF())
		}
	}
	fmt.Println(tb2)

	fmt.Println("Conclusion: decreasing the number of unbalanced delay paths in the")
	fmt.Println("architecture significantly reduces the number of useless transitions.")
}

func build(arch string, width int) *netlist.Netlist {
	if arch == "wallace" {
		return circuits.NewWallaceMultiplier(width, circuits.Cells)
	}
	return circuits.NewArrayMultiplier(width, circuits.Cells)
}
