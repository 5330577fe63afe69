package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"glitchsim"
	"glitchsim/internal/delay"
	"glitchsim/internal/registry"
	"glitchsim/internal/retime"
	"glitchsim/internal/sim"
	"glitchsim/netlist"
)

// The direct-call passes of the traced run: each layer's public
// functions called from outside, in the order a request reaches them,
// with a span around every call.

// done records a span from start to now and returns its duration.
func (r *recorder) done(parent uint64, name, key string, start time.Time) time.Duration {
	end := time.Now()
	r.add(0, parent, name, key, 0, start, end)
	return end.Sub(start)
}

// measureDecomp sums the per-layer time of the measure-small sequence
// over requests calls.
type measureDecomp struct {
	requests int
	// client and handler are the spans of the same request sent over
	// HTTP just before its direct calls.
	client, handler time.Duration
	// build is zero for the uploaded circuit, which the service takes
	// from its upload store instead of the registry.
	build, fingerprint, estimate, measure time.Duration
	// measureNoWarmup is measure with Warmup: ExplicitZero.
	measureNoWarmup time.Duration
}

// perRequestUS returns d per request, in µs.
func (m measureDecomp) perRequestUS(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond) / float64(m.requests)
}

const decompReps = 4

// decomposeMeasure replays the measure-small sequence. Each request is
// sent over HTTP, traced, and then made as direct calls:
// registry.Build, (*Netlist).Fingerprint, Engine.EstimateCost and
// Engine.Measure (MeasurePower for power requests) on the prebuilt
// netlist with a warm cache, then Engine.Measure again without warm-up.
// Sending the request and its direct calls back to back keeps a change
// in host speed out of the difference between the two.
func (e *env) decomposeMeasure(ctx context.Context, rec *recorder, seed uint64, t *tally) (measureDecomp, error) {
	var d measureDecomp
	seq := measureSequence(seed, 0)
	from := time.Now()
	for rep := 0; rep < decompReps; rep++ {
		for _, q := range seq {
			e.tracer.Store(rec)
			lat, err := e.measure(q, q.body(e.uploadFP))
			e.tracer.Store(nil)
			t.note(err)
			d.client += lat

			parent, key := nextID(), q.key()
			start := time.Now()
			nl := e.uploadNL
			if q.Circuit != uploadRef {
				var err error
				if nl, err = registry.Build(q.Circuit); err != nil {
					return d, err
				}
				d.build += rec.done(parent, "registry.build", key, start)
			}
			t0 := time.Now()
			_ = nl.Fingerprint()
			d.fingerprint += rec.done(parent, "netlist.fingerprint", key, t0)

			c, cfg := glitchsim.CircuitFromNetlist(nl), q.config()
			t0 = time.Now()
			if _, err := e.eng.EstimateCost(glitchsim.MeasureRequest{Circuit: c, Config: cfg}); err != nil {
				return d, fmt.Errorf("%s: estimating: %w", key, err)
			}
			d.estimate += rec.done(parent, "engine.estimate", key, t0)

			t0 = time.Now()
			got, err := engineMeasure(ctx, e.eng, c, cfg, q.Power)
			d.measure += rec.done(parent, "engine.measure", key, t0)
			if err == nil {
				err = checkMeasure(e.x.Measure, key, got)
			}
			t.note(err)

			cfg.Warmup = glitchsim.ExplicitZero
			t0 = time.Now()
			if _, err := engineMeasure(ctx, e.eng, c, cfg, q.Power); err != nil {
				return d, fmt.Errorf("%s without warm-up: %w", key, err)
			}
			d.measureNoWarmup += rec.done(parent, "engine.measure_no_warmup", key, t0)
			rec.add(parent, 0, "direct.measure_request", key, 0, start, time.Now())
			d.requests++
		}
	}
	for _, s := range rec.named("service.handler") {
		if s.Key == "/v1/measure" && s.Start >= from.Sub(rec.epoch).Nanoseconds() {
			d.handler += s.dur()
		}
	}
	return d, nil
}

const sinkJobs = 4

// decomposeSink runs the first jobs of client 0's job sequence directly
// on the engine with checkpointing on and a benchmark CheckpointSink
// that JSON-encodes every checkpoint, as the service's job executor
// does; each encoding is a span carrying the encoded size.
func (e *env) decomposeSink(ctx context.Context, rec *recorder, seed uint64, t *tally) error {
	for _, q := range jobSequence(seed, 0)[:sinkJobs] {
		nl, err := registry.Build(q.Circuit)
		if err != nil {
			return err
		}
		parent, key := nextID(), q.key()
		cfg := q.config()
		cfg.CheckpointEvery = jobCheckpointEvery
		cfg.CheckpointSink = func(cp *glitchsim.MeasureCheckpoint) error {
			start := time.Now()
			b, err := json.Marshal(cp)
			if err != nil {
				return fmt.Errorf("encoding checkpoint: %w", err)
			}
			rec.add(0, parent, "engine.checkpoint_sink", key, int64(len(b)), start, time.Now())
			return nil
		}
		start := time.Now()
		act, err := e.eng.Measure(ctx, glitchsim.MeasureRequest{Circuit: glitchsim.CircuitFromNetlist(nl), Config: cfg})
		rec.add(parent, 0, "direct.job_measure", key, 0, start, time.Now())
		if err == nil {
			err = checkMeasure(e.x.Jobs, key, measureRec{Activity: activityOf(act)})
		}
		t.note(err)
	}
	return nil
}

// retimeSubject is the circuit the Table 3 and Figure 10 sweeps retime:
// the input-registered direction detector.
const retimeSubject = "dirdet8r"

// retimeTargets mirrors the experiments' sweeps: Table 3's four and
// Figure 10's eight target periods under unit delay, each with its
// sweep's latency budget.
func retimeTargets(base *netlist.Netlist) (targets, maxLatency []int) {
	cp := retime.FromNetlist(base, delay.Unit(), 0).ClockPeriod(nil)
	for _, tgt := range []int{cp, cp * 3 / 7, cp / 3, cp * 3 / 14} {
		targets, maxLatency = append(targets, tgt), append(maxLatency, 4*cp)
	}
	for _, tgt := range []int{cp, cp / 2, cp / 3, cp / 4, cp / 5, cp / 7, cp / 9, cp / 12} {
		targets, maxLatency = append(targets, tgt), append(maxLatency, 8*cp)
	}
	return targets, maxLatency
}

const retimeReps = 3

// retimePasses calls retime.ForPeriod for every target of one Table 3
// plus Figure 10 pass, retimeReps times, one span per pass. It returns
// the retimed netlists of the last pass.
func retimePasses(rec *recorder) ([]*netlist.Netlist, error) {
	base, err := registry.Build(retimeSubject)
	if err != nil {
		return nil, err
	}
	targets, maxLatency := retimeTargets(base)
	var variants []*netlist.Netlist
	for rep := 0; rep < retimeReps; rep++ {
		variants = variants[:0]
		start := time.Now()
		for i, tgt := range targets {
			res, err := retime.ForPeriod(base, delay.Unit(), max(tgt, 1), maxLatency[i])
			if err != nil {
				return nil, fmt.Errorf("retiming for period %d: %w", tgt, err)
			}
			variants = append(variants, res.Netlist)
		}
		rec.done(0, "retime.for_period", retimeSubject, start)
	}
	return variants, nil
}

// kernelProbe is one kernel configuration of BENCH_kernel.json,
// measured through Engine.Measure on a prebuilt circuit with a warm
// cache and no warm-up, so nearly all of the call is the kernel.
type kernelProbe struct {
	metric  string
	circuit string
	lanes   int
	cycles  int
	delay   delay.Model // nil = unit delay
}

var kernelProbes = []kernelProbe{
	{"sim.lockstep.lane_events_per_s", "array16", sim.MaxLanes, 32 * sim.MaxLanes, nil},
	{"sim.wide_event.lane_events_per_s", "array16", sim.MaxLanes, 32 * sim.MaxLanes, delay.FullAdderRatio(2, 1)},
	{"sim.sequential.lane_events_per_s", "pipemult8", sim.MaxLanes, 256 * sim.MaxLanes, nil},
	{"sim.scalar.events_per_s", "array16", 1, 256, nil},
}

const kernelReps = 5

// probeKernels runs every kernel probe kernelReps times and returns the
// median classified transitions per host second of each.
func (e *env) probeKernels(ctx context.Context, rec *recorder) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range kernelProbes {
		nl, err := registry.Build(p.circuit)
		if err != nil {
			return nil, err
		}
		req := glitchsim.MeasureRequest{Circuit: glitchsim.CircuitFromNetlist(nl), Config: glitchsim.Config{
			Cycles: p.cycles, Warmup: glitchsim.ExplicitZero, Lanes: p.lanes, Delay: p.delay, Seed: 1,
		}}
		if _, err := e.eng.Measure(ctx, req); err != nil { // compile outside the timed calls
			return nil, fmt.Errorf("%s: %w", p.metric, err)
		}
		var rates []float64
		for rep := 0; rep < kernelReps; rep++ {
			start := time.Now()
			act, err := e.eng.Measure(ctx, req)
			end := time.Now()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.metric, err)
			}
			rec.add(0, 0, p.metric, p.circuit, int64(act.Transitions), start, end)
			rates = append(rates, float64(act.Transitions)/end.Sub(start).Seconds())
		}
		out[p.metric] = median(rates)
	}
	return out, nil
}

// compiledCircuits are the registry circuits the workloads measure:
// the measure-small and job mixes, Table 1 and 2's multipliers, the
// uploaded circuit's source and the retiming subject.
func compiledCircuits() []string {
	seen := map[string]bool{}
	var names []string
	add := func(ns ...string) {
		for _, n := range ns {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	add(measureCircuits...)
	add("rca8", uploadSource)
	add(jobCircuits...)
	add("array8", "array16", "wallace8", "wallace16", retimeSubject)
	return names
}

const compileReps = 3

// probeCompile times a cold sim.Compile of every distinct netlist the
// workloads use (the retimed variants included), compileReps times,
// and returns the median total in ms.
func probeCompile(rec *recorder, variants []*netlist.Netlist) (float64, error) {
	nls := append([]*netlist.Netlist(nil), variants...)
	for _, name := range compiledCircuits() {
		nl, err := registry.Build(name)
		if err != nil {
			return 0, err
		}
		nls = append(nls, nl)
	}
	var totals []float64
	for rep := 0; rep < compileReps; rep++ {
		start := time.Now()
		for _, nl := range nls {
			sim.Compile(nl)
		}
		totals = append(totals, float64(rec.done(0, "engine.compile", fmt.Sprint(len(nls)), start))/float64(time.Millisecond))
	}
	return median(totals), nil
}
