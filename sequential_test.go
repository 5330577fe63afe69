package glitchsim

// Sequential-subsystem tests at the public-measurement layer: DFF
// netlists must survive both interchange formats fingerprint-exact, the
// default warm-up must scale with register depth, lane decomposition
// must stay bit-identical to merged scalar runs on circuits with
// feedback and pipeline state, and Figure 10 must anchor its sweep to
// the actual sequential subject measured before retiming.

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/registry"
	"glitchsim/internal/retime"
	"glitchsim/internal/sim"
	"glitchsim/netlist"
	"glitchsim/verilog"
)

var sequentialRegistry = []string{"pipemult8", "accum16", "accum16cg"}

func buildRegistry(t *testing.T, name string) *netlist.Netlist {
	t.Helper()
	nl, err := registry.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestDFFRoundTrip: every sequential registry circuit round-trips
// through Verilog and JSON fingerprint-exact — DFF cells, feedback
// wiring, PI/PO order and buses included.
func TestDFFRoundTrip(t *testing.T) {
	for _, name := range sequentialRegistry {
		nl := buildRegistry(t, name)
		if nl.NumDFFs() == 0 {
			t.Fatalf("%s: expected DFF cells", name)
		}

		var sb strings.Builder
		if err := verilog.Write(&sb, nl); err != nil {
			t.Fatalf("%s: verilog write: %v", name, err)
		}
		fromV, err := verilog.Parse(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("%s: verilog parse: %v", name, err)
		}
		if got, want := fromV.Fingerprint(), nl.Fingerprint(); got != want {
			t.Errorf("%s: verilog round trip changed fingerprint:\n  want %s\n  got  %s", name, want, got)
		}
		if fromV.NumDFFs() != nl.NumDFFs() {
			t.Errorf("%s: verilog round trip: %d DFFs, want %d", name, fromV.NumDFFs(), nl.NumDFFs())
		}

		var buf bytes.Buffer
		if err := nl.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: json write: %v", name, err)
		}
		fromJ, err := netlist.ReadJSON(&buf)
		if err != nil {
			t.Fatalf("%s: json read: %v", name, err)
		}
		if got, want := fromJ.Fingerprint(), nl.Fingerprint(); got != want {
			t.Errorf("%s: json round trip changed fingerprint:\n  want %s\n  got  %s", name, want, got)
		}
	}
}

// TestSequentialLevels: the register-depth metric behind the warm-up
// default. The accumulators' self-loops must not diverge; their carry
// chain q[0]→q[15] is the depth that counts.
func TestSequentialLevels(t *testing.T) {
	for name, want := range map[string]int{
		"rca16":     0,  // combinational
		"dirdet8r":  1,  // input registers only
		"pipemult8": 4,  // 3 stage cuts + output register
		"accum16":   16, // carry chain across the feedback registers
		"accum16cg": 16,
	} {
		if got := buildRegistry(t, name).SequentialLevels(); got != want {
			t.Errorf("%s: SequentialLevels = %d, want %d", name, got, want)
		}
	}
}

// TestSequentialWarmupDefault: the default warm-up stays at 8 for
// shallow circuits (keeping historical numbers) and grows to
// SequentialLevels+1 on deeper pipelines; explicit values always win.
func TestSequentialWarmupDefault(t *testing.T) {
	for name, want := range map[string]int{
		"rca16":     8,
		"dirdet8r":  8,
		"pipemult8": 8,
		"accum16":   17,
	} {
		nl := buildRegistry(t, name)
		if got := (Config{}).withDefaults(nl).Warmup; got != want {
			t.Errorf("%s: default warmup = %d, want %d", name, got, want)
		}
	}
	nl := buildRegistry(t, "accum16")
	if got := (Config{Warmup: 3}).withDefaults(nl).Warmup; got != 3 {
		t.Errorf("explicit warmup overridden: got %d, want 3", got)
	}
	if got := (Config{Warmup: ExplicitZero}).withDefaults(nl).Warmup; got != 0 {
		t.Errorf("ExplicitZero warmup overridden: got %d, want 0", got)
	}
}

// TestSequentialMeasureLanes: the full Measure-layer lane decomposition
// on sequential circuits — per-lane register state, warm-up flushes and
// quota retirement — must be bit-identical to measuring the lanes one
// stream at a time, under uniform (lockstep kernel) and non-uniform
// (wide-event kernel) delay models.
func TestSequentialMeasureLanes(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		circuit string
		cycles  int
		lanes   int
		dm      delay.Model
	}{
		{"pipemult8-unit-64", "pipemult8", 80, 64, delay.Unit()},
		{"pipemult8-faratio-64", "pipemult8", 60, 64, delay.FullAdderRatio(2, 1)},
		{"accum16-unit-64", "accum16", 80, 64, delay.Unit()},
		{"accum16-typical-23", "accum16", 70, 23, delay.Typical()},
		{"accum16cg-faratio-64", "accum16cg", 60, 64, delay.FullAdderRatio(3, 1)},
	} {
		nl := buildRegistry(t, tc.circuit)
		c := sim.Compile(nl)
		cfg := Config{Cycles: tc.cycles, Seed: 9, Delay: tc.dm}.withDefaults(nl)

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

// TestSequentialFigure10BeforeAfter: Figure 10 now reports the actual
// sequential subject measured before retiming. The before row is golden
// against an independent MeasurePower of the unretimed netlist, and
// the session stream carries before as row 0 of targets+1.
func TestSequentialFigure10BeforeAfter(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	req := ExperimentRequest{Cycles: 100, Seed: 1}
	res, err := e.Figure10(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Subject != "dirdet8r" {
		t.Errorf("subject = %q, want dirdet8r", res.Subject)
	}
	b := res.Before
	if b.Circuit != 0 || b.TargetPeriod != 0 || b.Latency != 0 {
		t.Errorf("before row not anchored at circuit 0: %+v", b)
	}

	// Golden: the before row is the unretimed subject, measured with the
	// ordinary power path under the default (sequential-aware) warm-up.
	base := buildRegistry(t, "dirdet8r")
	bd, act, err := e.MeasurePower(ctx, MeasureRequest{Circuit: CircuitFromNetlist(base), Config: Config{Cycles: req.Cycles, Seed: req.Seed}})
	if err != nil {
		t.Fatal(err)
	}
	if b.FFs != bd.NumFFs || b.FFs != 48 {
		t.Errorf("before FFs = %d (breakdown %d), want 48", b.FFs, bd.NumFFs)
	}
	if b.TotalMW != bd.TotalW()*1e3 || b.LogicMW != bd.LogicW*1e3 || b.LOverF != act.LOverF() {
		t.Errorf("before row diverges from direct measurement:\nrow:    %+v\npower:  %+v", b, bd)
	}
	if want := retime.FromNetlist(base, delay.Unit(), 0).ClockPeriod(nil); b.Period != want {
		t.Errorf("before period = %d, want critical path %d", b.Period, want)
	}

	// Session stream: before is row 0 of targets+1, sweep rows follow.
	// The callback tap runs on the sweep's worker goroutines.
	var mu sync.Mutex
	var events []Event
	sess := e.NewSessionFunc(ctx, func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	defer sess.Close()
	sres, err := sess.Figure10(req)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Before != res.Before {
		t.Errorf("session before row differs from engine run")
	}
	wantTotal := len(res.Points) + 1
	if len(events) != wantTotal {
		t.Fatalf("session emitted %d events, want %d", len(events), wantTotal)
	}
	seen := make(map[int]bool)
	for _, ev := range events {
		if ev.Kind != EventRow || ev.Total != wantTotal || ev.Row == nil {
			t.Fatalf("unexpected event %+v", ev)
		}
		seen[ev.Index] = true
		if ev.Index == 0 && *ev.Row != res.Before {
			t.Errorf("event 0 is not the before row: %+v", *ev.Row)
		}
	}
	if len(seen) != wantTotal {
		t.Errorf("event indices not distinct: %v", seen)
	}
}
