// Package glitchsim reproduces "Analysis and Reduction of Glitches in
// Synchronous Networks" (Leijten, van Meerbergen, Jess; DATE 1995): an
// event-driven gate-level simulator with transition counting and parity
// evaluation that classifies every signal transition as useful or
// useless (glitching), closed-form activity analysis of ripple-carry
// adders, a Leiserson–Saxe retiming engine for glitch reduction, and a
// three-component power model (combinational logic / flipflops / clock).
//
// This root package is the high-level API: it wires stimulus, simulator,
// activity counter and power model together, and exposes one driver per
// experiment of the paper (Figure 5, Tables 1–3, the §4.2 direction
// detector study, Figure 10, and the §3.1 worst case).
package glitchsim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"glitchsim/internal/circuits"
	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/power"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

// Activity summarizes classified transition counts of one measurement,
// the quantities the paper's Tables 1 and 2 report.
type Activity struct {
	Circuit string
	Cycles  int
	// Transitions = Useful + Useless.
	Transitions, Useful, Useless uint64
	// Glitches counts pairs of consecutive useless transitions.
	Glitches uint64
	// Rising counts power-consuming (0→1) transitions.
	Rising uint64
}

// LOverF returns the paper's useless/useful ratio L/F.
func (a Activity) LOverF() float64 {
	if a.Useful == 0 {
		return 0
	}
	return float64(a.Useless) / float64(a.Useful)
}

// BalanceLimitFactor returns 1 + L/F: the factor by which combinational
// activity would drop if all delay paths were perfectly balanced.
func (a Activity) BalanceLimitFactor() float64 { return 1 + a.LOverF() }

// String renders the activity compactly.
func (a Activity) String() string {
	return fmt.Sprintf("%s: %d cycles, total=%d useful=%d useless=%d L/F=%.2f",
		a.Circuit, a.Cycles, a.Transitions, a.Useful, a.Useless, a.LOverF())
}

// ExplicitZero requests an actual count of zero for Config fields whose
// zero value selects a default (Cycles, Warmup). Any negative value
// works; the constant documents the intent:
//
//	Config{Warmup: glitchsim.ExplicitZero} // measure from reset, no warm-up
const ExplicitZero = -1

// Config controls a measurement run.
type Config struct {
	// Cycles is the number of measured cycles. 0 selects the default of
	// 500, the paper's Table 1 run length; ExplicitZero runs none.
	Cycles int
	// Warmup cycles run before measurement starts, flushing X values and
	// pipeline fill. 0 selects the default: 8 cycles, extended on
	// sequential netlists to SequentialLevels+1 when the register
	// pipeline is deeper than that, so every DFF holds flushed state
	// before counting starts. ExplicitZero disables warm-up so start-up
	// activity is measured too.
	Warmup int
	// Seed selects the random stimulus stream (default 1).
	Seed uint64
	// Delay is the propagation-delay model (default unit delay).
	Delay delay.Model
	// Inertial selects inertial instead of transport delay handling.
	Inertial bool
	// Source overrides the default uniform random stimulus.
	Source stimulus.Source
	// Lanes selects how many independent seeded stimulus streams the
	// measured Cycles are distributed over (see wide.go): all lanes
	// advance in one word-parallel simulation, evaluating every gate for
	// up to 64 patterns at once — under every delay model. Uniform
	// models ride the lockstep wavefront kernel (in either delay mode:
	// inertial and transport coincide under uniform delay), everything
	// else (the full-adder sum/carry ratios and per-type models of
	// Tables 2 and 3, zero delay) rides the lane-masked wide-event
	// kernel; both are bit-identical to running the L streams one after
	// another on the scalar kernel. 0 selects the engine default
	// (WithLanes, normally MaxLanes); 1 is the historical
	// single-stream measurement; values are capped at MaxLanes. Ignored
	// when an explicit Source is set (external sources are inherently
	// single-stream) or when at most one cycle is measured.
	//
	// Lane decomposition keeps stimulus streams invariant across delay
	// models: Table 2's unit and dsum=2·dcarry rows see identical vector
	// streams, keeping their useful counts equal. Each lane pays its own
	// Warmup (e.g. 64×8 warm-up cycles for a default decomposition, all
	// word-parallel); set Lanes=1 to reproduce pre-lanes single-stream
	// numbers exactly. Engine.SelectedKernel reports the resulting
	// kernel choice.
	Lanes int
	// Budget bounds the measurement's resource consumption; the zero
	// value is unlimited. Event and wall-clock trips abort the run with
	// a *BudgetError AND return the partial counter accumulated through
	// the last completed cycle boundary; the memory bound rejects the
	// request at admission, before compilation. See Budget.
	Budget Budget
	// CheckpointEvery, when > 0, runs the measurement in chunks of that
	// many word-parallel cycles: at every chunk boundary (except the
	// final one) the partial counter and kernel state fold into a
	// MeasureCheckpoint handed to CheckpointSink. Chunk boundaries are
	// pure observation points — they never perturb the simulation, so
	// checkpointed and plain runs are bit-identical. Requires the
	// lane-decomposed word-parallel path (no explicit Source, Lanes > 1,
	// Cycles > 1); other paths fail with ErrCheckpointUnsupported.
	CheckpointEvery int
	// CheckpointSink receives each chunk boundary's checkpoint; nil
	// disables capture (CheckpointEvery then only shapes the loop).
	// Returning ErrStopAtCheckpoint stops the measurement cleanly at
	// the boundary — see CheckpointSink's doc.
	CheckpointSink CheckpointSink
	// Resume continues a measurement from a previously captured
	// checkpoint instead of starting at cycle zero: the kernel state,
	// counter totals and stimulus position are restored, and the
	// remaining cycles run on the identical per-lane seed streams. The
	// checkpoint must match this configuration exactly (fingerprint,
	// cycles, lanes, seed, warm-up, delay model, mode) or the
	// measurement fails with ErrCheckpointMismatch.
	Resume *MeasureCheckpoint
}

func (c Config) withDefaults(n *netlist.Netlist) Config {
	switch {
	case c.Cycles == 0:
		c.Cycles = 500
	case c.Cycles < 0: // ExplicitZero
		c.Cycles = 0
	}
	switch {
	case c.Warmup == 0:
		c.Warmup = 8
		if n.NumDFFs() > 0 {
			if lv := n.SequentialLevels() + 1; lv > c.Warmup {
				c.Warmup = lv
			}
		}
	case c.Warmup < 0: // ExplicitZero
		c.Warmup = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Delay == nil {
		c.Delay = delay.Unit()
	}
	if c.Source == nil {
		c.Source = stimulus.NewRandom(n.InputWidth(), c.Seed)
	}
	return c
}

// measureCompiled is the measurement core shared by the Engine's entry
// points: the compiled netlist may be shared across goroutines,
// everything else is per-call state. ctx is checked between cycles and,
// through the kernel's Cancel hook, periodically inside the event loop,
// so cancellation lands promptly even mid-cycle on large circuits.
// lanes is the resolved lane count (see Engine.laneCount): seed-driven
// measurements of more than one cycle decompose into that many parallel
// stimulus streams, riding the word-parallel kernel when the delay model
// allows (wide.go); everything else takes the single-stream path.
func measureCompiled(ctx context.Context, c *sim.Compiled, cfg Config, lanes int) (*core.Counter, error) {
	n := c.Netlist()
	split := lanes > 1 && cfg.Source == nil
	cfg = cfg.withDefaults(n)
	if cfg.Source.Width() != n.InputWidth() {
		return nil, fmt.Errorf("glitchsim: stimulus width %d, circuit %q has %d inputs",
			cfg.Source.Width(), n.Name, n.InputWidth())
	}
	if split && cfg.Cycles > 1 {
		return measureLanes(ctx, c, cfg, lanes)
	}
	if cfg.CheckpointEvery > 0 || cfg.Resume != nil {
		return nil, fmt.Errorf("%w: circuit %q would run single-stream", ErrCheckpointUnsupported, n.Name)
	}
	return measureStream(ctx, c, cfg)
}

// measureStream measures one stimulus stream on the scalar kernel: the
// historical single-stream measurement, and the per-lane building block
// of the scalar fallback in measureLanes. cfg must have its defaults
// resolved. On a budget trip the partial counter is returned WITH the
// error: its statistics cover every cycle completed before the trip (a
// trip during warm-up yields a zero-cycle counter).
func measureStream(ctx context.Context, c *sim.Compiled, cfg Config) (*core.Counter, error) {
	n := c.Netlist()
	mode := sim.Transport
	if cfg.Inertial {
		mode = sim.Inertial
	}
	opts := sim.Options{Delay: cfg.Delay, Mode: mode, Budget: cfg.Budget.simBudget(time.Now())}
	if ctx.Done() != nil {
		opts.Cancel = ctx.Err
	}
	s := sim.NewFromCompiled(c, opts)
	// Warm-up runs unmonitored: the kernel then takes its no-monitor fast
	// path, and attaching the counter afterwards is indistinguishable
	// from attach-then-Reset (the counter carries no cross-cycle state
	// beyond the statistics a reset would clear).
	for i := 0; i < cfg.Warmup; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.Step(cfg.Source.Next()); err != nil {
			if errors.Is(err, sim.ErrBudgetExceeded) {
				return core.NewCounter(n), err
			}
			return nil, err
		}
	}
	counter := core.NewCounter(n)
	s.AttachMonitor(counter)
	for i := 0; i < cfg.Cycles; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.Step(cfg.Source.Next()); err != nil {
			if errors.Is(err, sim.ErrBudgetExceeded) {
				return counter, err
			}
			return nil, err
		}
	}
	return counter, nil
}

// ActivityFromCounter summarizes a counter's classified totals into an
// Activity named after circuit — the same reduction every measurement
// entry point applies. Useful for counters obtained from MeasureDetailed
// or the merged aggregate of MeasureSeeds.
func ActivityFromCounter(circuit string, counter *core.Counter) Activity {
	return summarize(circuit, counter)
}

func summarize(name string, counter *core.Counter) Activity {
	t := counter.Totals()
	return Activity{
		Circuit:     name,
		Cycles:      counter.Cycles(),
		Transitions: t.Transitions,
		Useful:      t.Useful,
		Useless:     t.Useless,
		Glitches:    t.Glitches,
		Rising:      t.Rising,
	}
}

// DefaultTech returns the calibrated 0.8 µm / 5 V / 5 MHz technology
// constants used by the Table 3 and Figure 10 experiments.
func DefaultTech() power.Tech { return power.Default08um() }

// Convenience circuit constructors re-exported for API users.

// NewRCA returns an N-bit ripple-carry adder built from full-adder cells.
func NewRCA(width int) *netlist.Netlist { return circuits.NewRCA(width, circuits.Cells) }

// NewArrayMultiplier returns an N×N array multiplier (Figure 6).
func NewArrayMultiplier(width int) *netlist.Netlist {
	return circuits.NewArrayMultiplier(width, circuits.Cells)
}

// NewWallaceMultiplier returns an N×N Wallace-tree multiplier (Figure 7).
func NewWallaceMultiplier(width int) *netlist.Netlist {
	return circuits.NewWallaceMultiplier(width, circuits.Cells)
}

// NewDirectionDetector returns the §4.2 video direction detector with
// the given sample width; registered=true adds the input flipflops of
// Table 3's circuit 1.
func NewDirectionDetector(width int, registered bool) *netlist.Netlist {
	return circuits.NewDirectionDetector(circuits.DirDetConfig{
		Width: width, Style: circuits.Cells, RegisterInputs: registered,
	})
}
