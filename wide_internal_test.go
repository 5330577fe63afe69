package glitchsim

// White-box tests of the lane-decomposition layer: the word-parallel
// execution and the scalar lane-by-lane fallback must be bit-identical
// for the same resolved configuration, quotas must partition the cycle
// budget exactly, and Lanes=1 must reproduce the historical
// single-stream measurement.

import (
	"context"
	"runtime"
	"testing"

	"glitchsim/internal/circuits"
	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/sim"
	"glitchsim/netlist"
)

func TestMeasureLanesScalarWideAgree(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		build    func() *netlist.Netlist
		cycles   int
		lanes    int
		dm       delay.Model
		inertial bool
	}{
		{"rca8-unit-64", func() *netlist.Netlist { return circuits.NewRCA(8, circuits.Cells) }, 100, 64, delay.Unit(), false},
		{"wallace8-unit-64", func() *netlist.Netlist { return circuits.NewWallaceMultiplier(8, circuits.Cells) }, 70, 64, delay.Unit(), false},
		{"dirdet8-uniform2-17", func() *netlist.Netlist {
			return circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 8, Style: circuits.Cells})
		}, 90, 17, delay.Uniform(2), false},
		{"rca8-short-run", func() *netlist.Netlist { return circuits.NewRCA(8, circuits.Cells) }, 5, 64, delay.Unit(), false},
		// Non-uniform models: the wide-event kernel replaces the deleted
		// scalar lane-by-lane fallback and must stay bit-identical to it.
		{"array8-faratio-64", func() *netlist.Netlist { return circuits.NewArrayMultiplier(8, circuits.Cells) }, 60, 64, delay.FullAdderRatio(2, 1), false},
		{"wallace8-typical-64", func() *netlist.Netlist { return circuits.NewWallaceMultiplier(8, circuits.Cells) }, 60, 64, delay.Typical(), false},
		{"dirdet8-faratio-23", func() *netlist.Netlist {
			return circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 8, Style: circuits.Cells})
		}, 90, 23, delay.FullAdderRatio(3, 1), false},
		{"rca8-zero-64", func() *netlist.Netlist { return circuits.NewRCA(8, circuits.Cells) }, 50, 64, delay.Zero(), false},
		{"array8-typical-inertial", func() *netlist.Netlist { return circuits.NewArrayMultiplier(8, circuits.Cells) }, 40, 64, delay.Typical(), true},
	} {
		nl := tc.build()
		c := sim.Compile(nl)
		cfg := Config{Cycles: tc.cycles, Seed: 9, Delay: tc.dm, Inertial: tc.inertial}.withDefaults(nl)

		lanes := tc.lanes
		if cfg.Cycles < lanes {
			lanes = cfg.Cycles
		}
		seeds := laneSeeds(cfg.Seed, lanes)
		quotas := laneQuotas(cfg.Cycles, lanes)

		wide, err := measureWide(ctx, c, cfg, lanes)
		if err != nil {
			t.Fatalf("%s: wide: %v", tc.name, err)
		}

		// Scalar reference: the same lanes, one stream at a time.
		var agg *core.Counter
		for l, seed := range seeds {
			lcfg := cfg
			lcfg.Seed = seed
			lcfg.Cycles = quotas[l]
			lcfg.Source = nil
			lcfg = lcfg.withDefaults(nl)
			counter, err := measureStream(ctx, c, lcfg)
			if err != nil {
				t.Fatalf("%s: scalar lane %d: %v", tc.name, l, err)
			}
			if agg == nil {
				agg = counter
			} else if err := agg.Merge(counter); err != nil {
				t.Fatal(err)
			}
		}

		if wide.Cycles() != agg.Cycles() || wide.Cycles() != tc.cycles {
			t.Fatalf("%s: cycles wide=%d scalar=%d want %d", tc.name, wide.Cycles(), agg.Cycles(), tc.cycles)
		}
		for i := 0; i < nl.NumNets(); i++ {
			id := netlist.NetID(i)
			if got, want := wide.Stats(id), agg.Stats(id); got != want {
				t.Fatalf("%s: net %s stats differ\nwide:   %+v\nscalar: %+v", tc.name, nl.Nets[i].Name, got, want)
			}
		}
	}
}

// TestLaneQuotasPartitionCycles: quotas sum to the cycle budget, are
// non-increasing, and differ by at most one.
func TestLaneQuotasPartitionCycles(t *testing.T) {
	for _, tc := range []struct{ cycles, lanes int }{
		{500, 64}, {64, 64}, {65, 64}, {63, 64}, {200, 7}, {1, 1}, {4320, 64},
	} {
		q := laneQuotas(tc.cycles, tc.lanes)
		sum := 0
		for l, v := range q {
			sum += v
			if l > 0 && v > q[l-1] {
				t.Fatalf("cycles=%d lanes=%d: quotas increase at %d", tc.cycles, tc.lanes, l)
			}
		}
		if sum != tc.cycles {
			t.Fatalf("cycles=%d lanes=%d: quota sum %d", tc.cycles, tc.lanes, sum)
		}
		if q[0]-q[len(q)-1] > 1 {
			t.Fatalf("cycles=%d lanes=%d: quota spread %d..%d", tc.cycles, tc.lanes, q[0], q[len(q)-1])
		}
	}
}

// TestLaneSeedsStable: lane seeds depend only on the base seed and lane
// index — a shorter lane list is a prefix of a longer one — and distinct
// base seeds give distinct streams.
func TestLaneSeedsStable(t *testing.T) {
	a := laneSeeds(1, 64)
	b := laneSeeds(1, 16)
	for l := range b {
		if a[l] != b[l] {
			t.Fatalf("lane %d seed differs across lane counts", l)
		}
	}
	c := laneSeeds(2, 16)
	same := 0
	for l := range c {
		if c[l] == b[l] {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d lane seeds collide across base seeds", same)
	}
}

// TestLanesOneIsHistoricalStream: Lanes=1 must reproduce the
// single-stream measurement exactly (the pre-lanes behaviour), and the
// default decomposed measurement must differ from it (different stream
// pairing) while agreeing on the per-cycle invariants.
func TestLanesOneIsHistoricalStream(t *testing.T) {
	ctx := context.Background()
	nl := circuits.NewRCA(8, circuits.Cells)
	c := sim.Compile(nl)
	cfg := Config{Cycles: 120, Seed: 5}.withDefaults(nl)

	historical, err := measureStream(ctx, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaLanes, err := measureCompiled(ctx, c, Config{Cycles: 120, Seed: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if historical.Totals() != viaLanes.Totals() || historical.Cycles() != viaLanes.Cycles() {
		t.Fatalf("Lanes=1 diverges from the historical stream: %+v vs %+v",
			viaLanes.Totals(), historical.Totals())
	}

	decomposed, err := measureCompiled(ctx, c, Config{Cycles: 120, Seed: 5}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if decomposed.Cycles() != 120 {
		t.Fatalf("decomposed cycles = %d, want 120", decomposed.Cycles())
	}
	if decomposed.Totals() == historical.Totals() {
		t.Error("decomposition produced the single-stream numbers (suspicious)")
	}
}

// TestSelectedKernel: the kernel predictor mirrors the actual routing —
// scalar for single-stream shapes, lockstep for uniform delay, event
// kernel for everything else.
func TestSelectedKernel(t *testing.T) {
	e := NewEngine()
	nl := circuits.NewArrayMultiplier(8, circuits.Cells)
	for _, tc := range []struct {
		name string
		req  MeasureRequest
		want Kernel
	}{
		{"default-unit", MeasureRequest{Circuit: CircuitFromNetlist(nl)}, KernelWideLockstep},
		{"faratio", MeasureRequest{Circuit: CircuitFromNetlist(nl), Config: Config{Delay: delay.FullAdderRatio(2, 1)}}, KernelWideEvent},
		{"typical-inertial", MeasureRequest{Circuit: CircuitFromNetlist(nl), Config: Config{Delay: delay.Typical(), Inertial: true}}, KernelWideEvent},
		{"zero", MeasureRequest{Circuit: CircuitFromNetlist(nl), Config: Config{Delay: delay.Zero()}}, KernelWideEvent},
		{"lanes1", MeasureRequest{Circuit: CircuitFromNetlist(nl), Config: Config{Lanes: 1}}, KernelScalar},
		{"one-cycle", MeasureRequest{Circuit: CircuitFromNetlist(nl), Config: Config{Cycles: 1}}, KernelScalar},
	} {
		got, err := e.SelectedKernel(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: kernel %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestConfigLanesOverridesEngine: laneCount precedence is Config.Lanes,
// then the WithLanes option, then MaxLanes; out-of-range values clamp.
func TestConfigLanesOverridesEngine(t *testing.T) {
	e := NewEngine(WithLanes(4))
	if got := e.laneCount(Config{}); got != 4 {
		t.Errorf("engine lanes = %d, want 4", got)
	}
	if got := e.laneCount(Config{Lanes: 2}); got != 2 {
		t.Errorf("config lanes = %d, want 2", got)
	}
	if got := e.laneCount(Config{Lanes: 999}); got != MaxLanes {
		t.Errorf("overlarge lanes = %d, want %d", got, MaxLanes)
	}
	if got := NewEngine(WithLanes(1)).laneCount(Config{}); got != 1 {
		t.Errorf("WithLanes(1): lanes = %d, want 1", got)
	}
	if got := NewEngine(WithLanes(999)).laneCount(Config{}); got != MaxLanes {
		t.Errorf("WithLanes(999): lanes = %d, want %d", got, MaxLanes)
	}
	def := NewEngine()
	if got := def.laneCount(Config{}); got != MaxLanes {
		t.Errorf("default lanes = %d, want %d", got, MaxLanes)
	}
	if got := def.laneCount(Config{Lanes: 1}); got != 1 {
		t.Errorf("config lanes on default engine = %d, want 1", got)
	}
}

// TestWorkerCountPrecedence: a per-request worker count wins, then the
// WithWorkers option, then GOMAXPROCS.
func TestWorkerCountPrecedence(t *testing.T) {
	e := NewEngine(WithWorkers(3))
	if got := e.workerCount(0); got != 3 {
		t.Errorf("engine workers = %d, want 3", got)
	}
	if got := e.workerCount(5); got != 5 {
		t.Errorf("request workers = %d, want 5", got)
	}
	if got, want := NewEngine().workerCount(0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default workers = %d, want GOMAXPROCS %d", got, want)
	}
	if got, want := NewEngine(WithWorkers(-2)).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("WithWorkers(-2) workers = %d, want GOMAXPROCS %d", got, want)
	}
}
