package sim_test

// Steady-state allocation regression tests: once the event queues,
// change buffers and counter scratch have grown to the workload's
// working-set size, a simulation cycle must not allocate — on either
// kernel. A reintroduced per-cycle allocation (e.g. a batch slice that
// stops being reused) fails these tests long before it shows up in a
// benchmark graph.

import (
	"testing"

	"glitchsim/internal/circuits"
	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

// allocTolerance is the average allocations per Step the tests accept:
// nonzero only to absorb a rare late slice growth on a workload whose
// per-instant event counts fluctuate.
const allocTolerance = 0.1

func TestStepAllocFree(t *testing.T) {
	nl := circuits.NewArrayMultiplier(8, circuits.Cells)
	comp := sim.Compile(nl)
	for _, tc := range []struct {
		name string
		opts sim.Options
	}{
		{"calendar-unit", sim.Options{Delay: delay.Unit()}},
		{"calendar-faratio", sim.Options{Delay: delay.FullAdderRatio(2, 1)}},
		{"heap-unit", sim.Options{Delay: delay.Unit(), Scheduler: sim.SchedulerHeap}},
	} {
		s := sim.NewFromCompiled(comp, tc.opts)
		counter := core.NewCounter(nl)
		s.AttachMonitor(counter)
		src := stimulus.NewRandom(nl.InputWidth(), 1)
		for i := 0; i < 200; i++ { // grow all scratch to steady state
			if err := s.Step(src.Next()); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			if err := s.Step(src.Next()); err != nil {
				t.Fatal(err)
			}
		})
		if avg > allocTolerance {
			t.Errorf("%s: %.2f allocs per warmed-up Step, want 0", tc.name, avg)
		}
	}
}

func TestWideStepAllocFree(t *testing.T) {
	nl := circuits.NewArrayMultiplier(8, circuits.Cells)
	ws, err := sim.NewWide(sim.Compile(nl), sim.Options{Delay: delay.Unit()})
	if err != nil {
		t.Fatal(err)
	}
	counter := core.NewWideCounter(nl)
	ws.AttachWideMonitor(counter)
	seeds := make([]uint64, sim.MaxLanes)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	src := stimulus.NewWideRandom(nl.InputWidth(), seeds)
	buf := make([]logic.W, nl.InputWidth())
	for i := 0; i < 100; i++ {
		if err := ws.Step(src.NextWide(buf)); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := ws.Step(src.NextWide(buf)); err != nil {
			t.Fatal(err)
		}
	})
	if avg > allocTolerance {
		t.Errorf("wide kernel: %.2f allocs per warmed-up Step, want 0", avg)
	}
}

// TestWideEventStepAllocFree: the event-driven word-parallel kernel must
// also run steady-state alloc-free, on both its queues, with zero-delay
// coalescing, and with the inertial in-flight bookkeeping active.
func TestWideEventStepAllocFree(t *testing.T) {
	nl := circuits.NewArrayMultiplier(8, circuits.Cells)
	comp := sim.Compile(nl)
	zeroish := delay.PerType(map[netlist.CellType]int{netlist.Not: 0, netlist.Nand: 0}, 2)
	for _, tc := range []struct {
		name string
		opts sim.Options
	}{
		{"calendar-faratio", sim.Options{Delay: delay.FullAdderRatio(2, 1)}},
		{"calendar-typical", sim.Options{Delay: delay.Typical()}},
		{"calendar-zeroish", sim.Options{Delay: zeroish}},
		{"heap-faratio", sim.Options{Delay: delay.FullAdderRatio(2, 1), Scheduler: sim.SchedulerHeap}},
		{"inertial-typical", sim.Options{Delay: delay.Typical(), Mode: sim.Inertial}},
	} {
		ws := sim.NewWideEvent(comp, tc.opts)
		counter := core.NewWideCounter(nl)
		ws.AttachWideMonitor(counter)
		seeds := make([]uint64, sim.MaxLanes)
		for i := range seeds {
			seeds[i] = uint64(i + 1)
		}
		src := stimulus.NewWideRandom(nl.InputWidth(), seeds)
		buf := make([]logic.W, nl.InputWidth())
		for i := 0; i < 100; i++ {
			if err := ws.Step(src.NextWide(buf)); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			if err := ws.Step(src.NextWide(buf)); err != nil {
				t.Fatal(err)
			}
		})
		if avg > allocTolerance {
			t.Errorf("%s: %.2f allocs per warmed-up Step, want 0", tc.name, avg)
		}
	}
}
