// Waveforms: build a custom circuit with the netlist builder API, watch
// its glitches with the event-driven simulator, and dump a VCD waveform
// that any viewer (GTKWave, Surfer) can open to see the glitch trains
// ripple through an adder.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"glitchsim"
	"glitchsim/internal/circuits"
	"glitchsim/internal/logic"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/internal/vcd"
	"glitchsim/netlist"
)

func main() {
	// 1. A custom circuit through the builder API: a 1-bit "pulse
	// generator" (static-hazard circuit) next to a 4-bit adder slice.
	b := netlist.NewBuilder("demo")
	en := b.Input("en")
	hazard := b.And(en, b.Not(en)) // statically 0, glitches on en↑
	b.Output("hazard", hazard)

	a := b.InputBus("a", 4)
	c := b.InputBus("c", 4)
	sum, cout := circuits.RippleAdd(b, circuits.Cells, a, c, b.Const(0))
	b.OutputBus("sum", sum)
	b.Output("cout", cout)

	n, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(n.Summary())

	// 2. Dump a waveform while simulating with unit delays.
	f, err := os.Create("demo.vcd")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	period := n.LogicDepth() + 2
	wave, err := vcd.New(f, n, nil, period)
	if err != nil {
		log.Fatal(err)
	}

	s := sim.New(n, sim.Options{})
	s.AttachMonitor(wave)

	// Directed stimulus: toggle en every cycle while the adder counts
	// through a worst-case carry ripple (a=1111, c alternating 0/1).
	const cycles = 12
	pi := make(logic.Vector, n.InputWidth())
	for i := 0; i < cycles; i++ {
		pi[0] = logic.FromBit(uint64(i)) // en
		copy(pi[1:5], logic.VectorFromUint(0b1111, 4))
		copy(pi[5:9], logic.VectorFromUint(uint64(i%2), 4))
		if err := s.Step(pi); err != nil {
			log.Fatal(err)
		}
	}
	if err := wave.Flush(cycles); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote demo.vcd (%d cycles, %d time units per cycle)\n", cycles, period)

	// 3. Quantify what the waveform shows.
	act, err := glitchsim.NewEngine().Measure(context.Background(), glitchsim.MeasureRequest{
		Circuit: glitchsim.CircuitFromNetlist(n),
		Config: glitchsim.Config{
			Cycles: 1000,
			Source: stimulus.NewRandom(n.InputWidth(), 42),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("under random stimulus: %v\n", act)
	fmt.Println("open demo.vcd in a waveform viewer to watch the carry-chain glitches.")
}
