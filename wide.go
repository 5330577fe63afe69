package glitchsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"glitchsim/internal/core"
	"glitchsim/internal/logic"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
)

// Lane decomposition: the measurement-layer face of the word-parallel
// kernels. A measurement with L lanes distributes its Cycles random
// vectors over L independent seeded stimulus streams (each with its own
// warm-up) instead of one long stream, and all L streams advance in ONE
// word-parallel simulation, evaluating every gate for up to 64 patterns
// per visit — under every delay model. Uniform models with delay >= 1
// (the paper's unit-delay experiments; inertial and transport coincide
// there) ride the lockstep wavefront kernel; everything else (full-adder
// sum/carry ratios, per-type delays, zero delay, and inertial runs on
// those models) rides the lane-masked wide-event kernel. Both are
// bit-identical to L scalar runs merged in lane order by construction
// (TestWideKernelEquivalence, TestWideEventKernelEquivalence and
// TestMeasureLanesScalarWideAgree enforce it), so the delay model
// changes the speed of a measurement, never the meaning of its lane
// decomposition.
//
// Classification semantics are unchanged: every measured cycle is one
// random vector applied to a warmed-up circuit, and the counter sees
// exactly Cycles classified cycles. Only the pairing of consecutive
// vectors differs from a single-stream run, so lane-decomposed activity
// numbers are deterministic per (seed, lanes) but differ from the
// historical Lanes=1 stream. Set Lanes=1 (Config.Lanes or WithLanes)
// to reproduce pre-lanes measurements exactly.

// MaxLanes is the largest lane count a measurement can request: the
// 64-lane machine word of the bit-parallel kernel.
const MaxLanes = sim.MaxLanes

// WithLanes fixes the engine's lane count for measurements whose Config
// does not specify one. n <= 0 (the default) selects MaxLanes; n is
// capped at MaxLanes.
func WithLanes(n int) EngineOption {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		if n > MaxLanes {
			n = MaxLanes
		}
		e.lanes = n
	}
}

// Lanes returns the engine's effective lane count for a zero-valued
// Config.Lanes.
func (e *Engine) Lanes() int { return e.laneCount(Config{}) }

// laneCount resolves the effective lane count of a measurement: an
// explicit Config.Lanes wins, then the engine option, then MaxLanes.
func (e *Engine) laneCount(cfg Config) int {
	n := cfg.Lanes
	if n == 0 {
		n = e.lanes
	}
	if n == 0 {
		n = MaxLanes
	}
	if n < 1 {
		n = 1
	}
	if n > MaxLanes {
		n = MaxLanes
	}
	return n
}

// laneSeedsInto derives the per-lane stimulus seeds of a decomposed
// measurement from its base seed: one splitmix64 draw per lane, so lane
// streams are mutually independent and stable across lane counts.
func laneSeedsInto(seeds []uint64, base uint64) {
	sm := stimulus.NewPRNG(base)
	for l := range seeds {
		seeds[l] = sm.Uint64()
	}
}

// laneSeeds is the allocating form of laneSeedsInto.
func laneSeeds(base uint64, lanes int) []uint64 {
	seeds := make([]uint64, lanes)
	laneSeedsInto(seeds, base)
	return seeds
}

// laneQuotasInto splits cycles across lanes as evenly as possible,
// non-increasing: the first cycles%lanes lanes measure one extra cycle.
// The quota sum is exactly cycles, so a decomposed measurement reports
// the same cycle count as a single-stream one.
func laneQuotasInto(quotas []int, cycles int) {
	lanes := len(quotas)
	base, rem := cycles/lanes, cycles%lanes
	for l := range quotas {
		quotas[l] = base
		if l < rem {
			quotas[l]++
		}
	}
}

// laneQuotas is the allocating form of laneQuotasInto.
func laneQuotas(cycles, lanes int) []int {
	quotas := make([]int, lanes)
	laneQuotasInto(quotas, cycles)
	return quotas
}

// Kernel identifies the simulation kernel a measurement runs on.
type Kernel string

const (
	// KernelScalar is the single-stream event-driven kernel: Lanes=1
	// measurements, explicit stimulus sources, and runs of at most one
	// cycle. (Its scheduler — wave, calendar or heap — is an internal
	// detail chosen per delay model.)
	KernelScalar Kernel = "scalar"
	// KernelWideLockstep is the 64-lane lockstep wavefront kernel,
	// selected for lane-decomposed measurements under uniform delay
	// models with delay >= 1 (the paper's unit-delay experiments).
	KernelWideLockstep Kernel = "wide-lockstep"
	// KernelWideEvent is the 64-lane lane-masked event-driven kernel,
	// selected for lane-decomposed measurements under every other delay
	// model: unequal per-cell delays (full-adder sum/carry ratios,
	// per-type models) and zero delay, in transport or inertial mode.
	// (Inertial runs on a uniform model still select the lockstep
	// kernel — the two modes coincide when no pulse can be narrower
	// than a cell delay.)
	KernelWideEvent Kernel = "wide-event"
)

// kernelFor reports which kernel measureCompiled routes a measurement
// to, mirroring its decomposition test and sim.NewWideKernel's
// eligibility rule. cfg and lanes are as measureCompiled receives them
// (engine defaults applied, Config defaults not yet).
func kernelFor(c *sim.Compiled, cfg Config, lanes int) Kernel {
	split := lanes > 1 && cfg.Source == nil
	cfg = cfg.withDefaults(c.Netlist())
	if !split || cfg.Cycles <= 1 {
		return KernelScalar
	}
	if d, ok := sim.UniformDelay(c, cfg.Delay); ok && d >= 1 {
		return KernelWideLockstep
	}
	return KernelWideEvent
}

// SelectedKernel reports which simulation kernel the engine would run
// the request on, without measuring anything: the value the service's
// /v1/measure responses and the CLI's -format json output surface so
// users can confirm the word-parallel fast path engaged. Kernel
// selection is deterministic — it depends only on the circuit, the
// resolved configuration and the engine's lane/delay defaults — so the
// prediction is exact.
func (e *Engine) SelectedKernel(req MeasureRequest) (Kernel, error) {
	nl, err := e.requestNetlist(req.Circuit)
	if err != nil {
		return "", err
	}
	cfg := e.fillDefaults(req.Config)
	return kernelFor(e.compiled(nl), cfg, e.laneCount(cfg)), nil
}

// measureLanes measures a lane-decomposed configuration (cfg has its
// defaults resolved; cfg.Source is the unused default stream) on the
// word-parallel kernel NewWideKernel selects for the delay model. Every
// delay model runs word-parallel; the scalar kernel only ever simulates
// single-stream (Lanes=1 / explicit-Source) measurements.
func measureLanes(ctx context.Context, c *sim.Compiled, cfg Config, lanes int) (*core.Counter, error) {
	if cfg.Cycles < lanes {
		lanes = cfg.Cycles // never run a lane with nothing to measure
	}
	return measureWide(ctx, c, cfg, lanes)
}

// laneMaskOf returns the mask of the first n lanes.
func laneMaskOf(n int) uint64 {
	if n >= MaxLanes {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// wideScratch holds the per-measurement buffers of the word-parallel
// path. Measurements are short relative to their setup on small
// circuits, and batch sweeps issue thousands of them, so the buffers are
// pooled across measurement passes instead of reallocated per pass.
type wideScratch struct {
	seeds  []uint64
	quotas []int
	buf    []logic.W
}

var wideScratchPool = sync.Pool{New: func() any { return new(wideScratch) }}

// grow returns s's buffers resized to the measurement's lane count and
// input width, reusing their backing arrays when large enough.
func (s *wideScratch) grow(lanes, width int) {
	if cap(s.seeds) < lanes {
		s.seeds = make([]uint64, lanes)
		s.quotas = make([]int, lanes)
	}
	s.seeds, s.quotas = s.seeds[:lanes], s.quotas[:lanes]
	if cap(s.buf) < width {
		s.buf = make([]logic.W, width)
	}
	s.buf = s.buf[:width]
}

// measureWide runs one word-parallel measurement: lane l simulates the
// stream of laneSeeds(cfg.Seed)[l] for its quota of measured cycles
// (quotas are non-increasing; all lanes share the warm-up length). The
// folded counter is bit-identical to the per-lane scalar measurements
// merged in lane order, under every delay model.
//
// On a budget trip after k completed measured steps, the partial
// counter is returned WITH the error and its statistics equal the
// lane-order merge of scalar runs measuring min(quota_l, k) cycles
// each: per-lane masks are applied at the start of each step, so every
// completed step carries exactly the lanes that were still active.
// When cfg.CheckpointEvery > 0 the measured loop pauses at every chunk
// boundary to fold the counter and kernel state into a sealed
// MeasureCheckpoint for cfg.CheckpointSink; cfg.Resume restores such a
// checkpoint and continues from its cycle on the identical fast-
// forwarded seed streams (see checkpoint.go). Neither perturbs the
// simulation: a chunk boundary only reads state, so checkpointed,
// resumed and plain runs are bit-identical.
func measureWide(ctx context.Context, c *sim.Compiled, cfg Config, lanes int) (*core.Counter, error) {
	n := c.Netlist()
	mode := sim.Transport
	if cfg.Inertial {
		mode = sim.Inertial
	}
	dt := sim.NewDelayTable(c, cfg.Delay)
	opts := sim.Options{Delay: cfg.Delay, Delays: dt, Mode: mode, Budget: cfg.Budget.simBudget(time.Now())}
	if ctx.Done() != nil {
		opts.Cancel = ctx.Err
	}
	ws := sim.NewWideKernel(c, opts)
	scratch := wideScratchPool.Get().(*wideScratch)
	defer wideScratchPool.Put(scratch)
	scratch.grow(lanes, n.InputWidth())
	seeds, quotas, buf := scratch.seeds, scratch.quotas, scratch.buf
	laneSeedsInto(seeds, cfg.Seed)
	laneQuotasInto(quotas, cfg.Cycles)
	src := stimulus.NewWideRandom(n.InputWidth(), seeds)
	maxQ := 0
	if len(quotas) > 0 {
		maxQ = quotas[0]
	}
	counter := core.NewWideCounter(n)
	startK := 0
	if cp := cfg.Resume; cp != nil {
		if err := cp.Verify(); err != nil {
			return nil, err
		}
		if err := cp.matches(n, cfg, lanes, maxQ, dt); err != nil {
			return nil, err
		}
		if err := counter.Restore(cp.Counter); err != nil {
			return nil, err
		}
		// The kernel rejoins the run at the recorded boundary: net values
		// from the snapshot, flip-flop registers re-derived, stimulus
		// fast-forwarded past the warm-up plus the completed prefix.
		ws.ImportState(decodeNetState(cp.NetState), cfg.Warmup+cp.Cycle)
		src.Skip(cfg.Warmup + cp.Cycle)
		startK = cp.Cycle
	} else {
		// Warm-up runs unmonitored: the kernel skips change capture
		// entirely, and attaching the counter afterwards is
		// indistinguishable from attach-then-Reset (the counter carries no
		// cross-cycle state beyond the statistics a reset would clear).
		for i := 0; i < cfg.Warmup; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := ws.Step(src.NextWide(buf)); err != nil {
				if errors.Is(err, sim.ErrBudgetExceeded) {
					return core.NewCounter(n), err
				}
				return nil, err
			}
		}
	}
	counter.SetLaneMask(laneMaskOf(lanes))
	ws.AttachWideMonitor(counter)
	active := lanes
	for k := startK; k < maxQ; k++ {
		// Retire lanes whose quota is exhausted (quotas non-increasing:
		// the active set is always a prefix).
		for active > 0 && quotas[active-1] <= k {
			active--
		}
		counter.SetLaneMask(laneMaskOf(active))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := ws.Step(src.NextWide(buf)); err != nil {
			if errors.Is(err, sim.ErrBudgetExceeded) {
				return counter.Counter(), err
			}
			return nil, err
		}
		// Chunk boundary: k+1 completed steps. The final boundary is the
		// return value itself, so no checkpoint is taken there.
		if done := k + 1; cfg.CheckpointEvery > 0 && cfg.CheckpointSink != nil &&
			done < maxQ && done%cfg.CheckpointEvery == 0 {
			cp, err := captureCheckpoint(ws, counter, n, cfg, lanes, done, dt)
			if err != nil {
				return nil, err
			}
			if err := cfg.CheckpointSink(cp); err != nil {
				if errors.Is(err, ErrStopAtCheckpoint) {
					return counter.Counter(), &CheckpointedError{Cycle: done, Total: maxQ}
				}
				return nil, fmt.Errorf("glitchsim: checkpoint sink: %w", err)
			}
		}
	}
	return counter.Counter(), nil
}
