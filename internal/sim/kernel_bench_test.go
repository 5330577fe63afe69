package sim_test

import (
	"fmt"
	"testing"

	"glitchsim/internal/circuits"
	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
)

// BenchmarkKernel compares the two event schedulers on the 16x16
// array multiplier with the activity counter attached — the same
// workload as the root package's BenchmarkSimulatorThroughput, but
// compiled once and broken out per kernel. events/s counts scheduler
// events actually processed (Simulator.Events).
func BenchmarkKernel(b *testing.B) {
	nl := circuits.NewArrayMultiplier(16, circuits.Cells)
	comp := sim.Compile(nl)
	for _, tc := range []struct {
		name string
		opts sim.Options
	}{
		{"calendar-unit", sim.Options{Delay: delay.Unit()}},
		{"calendar-faratio", sim.Options{Delay: delay.FullAdderRatio(2, 1)}},
		{"heap-unit", sim.Options{Delay: delay.Unit(), Scheduler: sim.SchedulerHeap}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := sim.NewFromCompiled(comp, tc.opts)
			counter := core.NewCounter(nl)
			s.AttachMonitor(counter)
			src := stimulus.NewRandom(nl.InputWidth(), 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(src.Next()); err != nil {
					b.Fatal(err)
				}
			}
			secs := b.Elapsed().Seconds()
			b.ReportMetric(float64(s.Events())/secs, "events/s")
			b.ReportMetric(secs*1e9/float64(b.N), "ns/cycle")
		})
	}
}

// BenchmarkWideEventKernel runs the 16x16 array-multiplier workload on
// the lane-masked event-driven word-parallel kernel, per delay-model
// family — the non-uniform models are the configurations only this
// kernel can run word-parallel (compare BenchmarkKernel/calendar-faratio
// for the scalar cost of the same model, and BenchmarkWideKernel for the
// lockstep kernel's uniform-delay ceiling). One iteration is one wide
// Step = 64 simulated cycles.
func BenchmarkWideEventKernel(b *testing.B) {
	nl := circuits.NewArrayMultiplier(16, circuits.Cells)
	comp := sim.Compile(nl)
	for _, tc := range []struct {
		name string
		opts sim.Options
	}{
		{"faratio", sim.Options{Delay: delay.FullAdderRatio(2, 1)}},
		{"typical", sim.Options{Delay: delay.Typical()}},
		{"unit", sim.Options{}}, // event kernel on a uniform model, for the lockstep comparison
		{"faratio-inertial", sim.Options{Delay: delay.FullAdderRatio(2, 1), Mode: sim.Inertial}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ws := sim.NewWideEvent(comp, tc.opts)
			counter := core.NewWideCounter(nl)
			ws.AttachWideMonitor(counter)
			seeds := make([]uint64, sim.MaxLanes)
			for i := range seeds {
				seeds[i] = uint64(i + 1)
			}
			src := stimulus.NewWideRandom(nl.InputWidth(), seeds)
			buf := make([]logic.W, nl.InputWidth())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ws.Step(src.NextWide(buf)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			secs := b.Elapsed().Seconds()
			folded := counter.Counter()
			b.ReportMetric(float64(b.N*sim.MaxLanes)/secs, "lane-cycles/s")
			b.ReportMetric(float64(folded.Totals().Transitions)/secs, "lane-events/s")
			b.ReportMetric(secs*1e9/float64(b.N), "ns/wide-cycle")
		})
	}
}

// BenchmarkWideKernel runs the same 16x16 array-multiplier workload on
// the 64-lane word-parallel kernel with the wide activity counter
// attached. One iteration is one wide Step = 64 simulated cycles;
// lane-cycles/s is directly comparable to BenchmarkKernel's implicit
// cycles/s, and lane-events/s (classified per-lane transitions) to its
// events/s.
func BenchmarkWideKernel(b *testing.B) {
	nl := circuits.NewArrayMultiplier(16, circuits.Cells)
	comp := sim.Compile(nl)
	for _, lanes := range []int{64, 16} {
		b.Run(fmt.Sprintf("unit-%dlanes", lanes), func(b *testing.B) {
			ws, err := sim.NewWide(comp, sim.Options{Delay: delay.Unit()})
			if err != nil {
				b.Fatal(err)
			}
			counter := core.NewWideCounter(nl)
			if lanes < sim.MaxLanes {
				counter.SetLaneMask(uint64(1)<<uint(lanes) - 1)
			}
			ws.AttachWideMonitor(counter)
			seeds := make([]uint64, lanes)
			for i := range seeds {
				seeds[i] = uint64(i + 1)
			}
			src := stimulus.NewWideRandom(nl.InputWidth(), seeds)
			buf := make([]logic.W, nl.InputWidth())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ws.Step(src.NextWide(buf)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			secs := b.Elapsed().Seconds()
			folded := counter.Counter()
			b.ReportMetric(float64(b.N*lanes)/secs, "lane-cycles/s")
			b.ReportMetric(float64(folded.Totals().Transitions)/secs, "lane-events/s")
			b.ReportMetric(secs*1e9/float64(b.N), "ns/wide-cycle")
		})
	}
}
