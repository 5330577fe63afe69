package sim_test

// Sequential-circuit kernel equivalence and steady-state allocation: the
// registry's sequential subjects (pipelined multiplier, accumulators with
// feedback) must satisfy the same word-parallel contract as the
// combinational circuits — lane-summed statistics and per-lane packed
// register state bit-identical to the merged scalar runs — on the
// lockstep kernel under uniform delays and on the wide-event kernel
// under every non-uniform model, and the clocked step path must not
// allocate once warm. Selected in CI's -race step via TestSequential.

import (
	"fmt"
	"testing"

	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
)

// sequentialCircuits are the registry's DFF-bearing subjects.
var sequentialCircuits = []string{"pipemult8", "accum16", "accum16cg"}

// TestSequentialKernelEquivalence: sequential circuits × delay models ×
// seed blocks. Uniform models run the lockstep wavefront kernel,
// non-uniform ones the lane-masked wide-event kernel; both must be
// bit-identical to running the lanes one at a time on the scalar kernel
// — including the per-lane register state carried across cycles.
func TestSequentialKernelEquivalence(t *testing.T) {
	blocks := [][]uint64{seedBlock(11), seedBlock(0xBEEF), seedBlock(77)[:13]}
	for _, circuit := range sequentialCircuits {
		nl := mustBuild(t, circuit)
		if nl.NumDFFs() == 0 {
			t.Fatalf("%s: expected a sequential circuit", circuit)
		}
		c := sim.Compile(nl)
		for bi, seeds := range blocks {
			for di, dm := range []delay.Model{delay.Unit(), delay.Uniform(2)} {
				name := fmt.Sprintf("%s/block%d/uniform%d", circuit, bi, di)
				ref, refVals := mergedScalarRuns(t, c, dm, seeds, 24)
				wide, wideVals := wideRun(t, c, dm, seeds, 24)
				compareWideToScalar(t, name, nl, wide, wideVals, ref, refVals, seeds)
			}
			for mi, dm := range nonUniformModels() {
				opts := sim.Options{Delay: dm}
				name := fmt.Sprintf("%s/block%d/nonuniform%d", circuit, bi, mi)
				ref, refVals := mergedScalarModeRuns(t, c, opts, seeds, 12)
				wide, wideVals := wideEventRun(t, c, opts, seeds, 12)
				compareWideToScalar(t, name, nl, wide, wideVals, ref, refVals, seeds)
			}
		}
	}
	// Inertial mode exercises the pulse-swallowing bookkeeping together
	// with the clock-edge state capture.
	nl := mustBuild(t, "pipemult8")
	c := sim.Compile(nl)
	opts := sim.Options{Delay: delay.Typical(), Mode: sim.Inertial}
	seeds := seedBlock(5)
	ref, refVals := mergedScalarModeRuns(t, c, opts, seeds, 12)
	wide, wideVals := wideEventRun(t, c, opts, seeds, 12)
	compareWideToScalar(t, "pipemult8/inertial", nl, wide, wideVals, ref, refVals, seeds)
}

// TestSequentialStepAllocFree: the clocked step path — DFF sampling and
// t=0 Q injection included — must be alloc-free once warm on all three
// kernels.
func TestSequentialStepAllocFree(t *testing.T) {
	nl := mustBuild(t, "pipemult8")
	comp := sim.Compile(nl)

	for _, tc := range []struct {
		name string
		opts sim.Options
	}{
		{"scalar-calendar-unit", sim.Options{Delay: delay.Unit()}},
		{"scalar-calendar-faratio", sim.Options{Delay: delay.FullAdderRatio(2, 1)}},
	} {
		s := sim.NewFromCompiled(comp, tc.opts)
		counter := core.NewCounter(nl)
		s.AttachMonitor(counter)
		src := stimulus.NewRandom(nl.InputWidth(), 1)
		for i := 0; i < 200; i++ {
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

	seeds := seedBlock(1)
	for _, tc := range []struct {
		name string
		opts sim.Options
	}{
		{"wide-lockstep-unit", sim.Options{Delay: delay.Unit()}},
		{"wide-event-faratio", sim.Options{Delay: delay.FullAdderRatio(2, 1)}},
	} {
		ws := sim.NewWideKernel(comp, tc.opts)
		counter := core.NewWideCounter(nl)
		ws.AttachWideMonitor(counter)
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
