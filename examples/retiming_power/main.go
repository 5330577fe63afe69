// Retiming for power: the paper's §5 experiment. A video direction
// detector is pipelined ever deeper by retiming; each added rank of
// flipflops balances more delay paths and kills more glitches, cutting
// combinational power — but flipflop and clock power grow with the
// register count, so total power has an interior minimum: there is an
// optimum retiming for power dissipation.
package main

import (
	"context"
	"fmt"
	"log"

	"glitchsim"
	"glitchsim/internal/delay"
	"glitchsim/internal/report"
	"glitchsim/internal/retime"
)

func main() {
	// The Phideo direction detector with registered inputs: the paper's
	// circuit 1 (48 flipflops).
	base := glitchsim.NewDirectionDetector(8, true)
	cp := retime.MinPeriodOf(base, delay.Unit())
	_ = cp

	fmt.Println("sweeping retiming target periods (paper Table 3 / Figure 10)...")
	res, err := glitchsim.NewEngine().Figure10(context.Background(),
		glitchsim.ExperimentRequest{Cycles: 150, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	rows := res.Points

	tb := report.NewTable("power vs pipelining depth",
		"period", "latency", "#ff", "logic mW", "ff mW", "clock mW", "total mW", "L/F")
	best := 0
	for i, r := range rows {
		tb.AddRowf(r.Period, r.Latency, r.FFs, r.LogicMW, r.FlipflopMW, r.ClockMW, r.TotalMW, r.LOverF)
		if r.TotalMW < rows[best].TotalMW {
			best = i
		}
	}
	fmt.Println(tb)

	labels := make([]string, len(rows))
	series := []report.Series{{Name: "total"}, {Name: "logic"}, {Name: "ff+clock"}}
	for i, r := range rows {
		labels[i] = fmt.Sprintf("%d ff", r.FFs)
		series[0].Values = append(series[0].Values, r.TotalMW)
		series[1].Values = append(series[1].Values, r.LogicMW)
		series[2].Values = append(series[2].Values, r.FlipflopMW+r.ClockMW)
	}
	fmt.Println(report.Chart("power (mW) vs flipflop count", labels, series, 44))

	opt := rows[best]
	fmt.Printf("optimum: %d flipflops (clock period %d, +%d cycles latency) at %.1f mW total —\n",
		opt.FFs, opt.Period, opt.Latency, opt.TotalMW)
	fmt.Printf("%.1fx less combinational power than the unpipelined circuit (%.1f -> %.1f mW).\n",
		rows[0].LogicMW/opt.LogicMW, rows[0].LogicMW, opt.LogicMW)
	fmt.Println("\nAs the paper concludes: an optimum retiming for power dissipation exists.")
}
