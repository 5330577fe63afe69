// Command perfbench is glitchsim's benchmark. From one process it drives
// the engine in-process, the HTTP service over a loopback listener and
// the durable job layer with seeded closed-loop workloads, checks every
// reply against the values recorded in expected.json, and prints one
// JSON result as the last line of its standard output. It runs with
// GOMAXPROCS 1 and one caller, and reports the process's CPU time scaled
// to a reference host speed, so that neighbours on a shared host do not
// move its figures.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload measure-small --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// untraced and then traced, adds small traced samples of the other
// workloads and the direct-call passes of every layer, and reports the
// per-layer metrics; the spans go to .bench_build/perfbench/traces/.
// -record FILE recomputes the expected values through the Engine API
// and writes them to FILE; -summarize FILE... prints the median,
// quartiles and spread of each metric over saved runs. README.md lists
// the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps the reported values in report order.
type metrics struct {
	names []string
	vals  map[string]metric
}

func (m *metrics) set(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = map[string]metric{}
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times a run sets the system up; setup_s is the
// median.
const setupReps = 9

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-repro, measure-small or jobs-checkpointed")
	seed := fs.Uint64("seed", 1, "workload seed: orders the requests and picks their stimulus seeds")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	root := fs.String("root", ".", "repository root; scratch files and traces go under its .bench_build/")
	recordPath := fs.String("record", "", "recompute the expected values through the Engine API, write them to this file and exit")
	summary := fs.Bool("summarize", false, "summarize the result lines in the files named as arguments and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summary {
		if err := summarize(fs.Args(), stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	ctx := context.Background()
	if *recordPath != "" {
		if err := record(ctx, *recordPath, gitCommit(*root)); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, err := workloadNamed(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%v), --seconds >= 1 and --trace 0 or 1\n", err)
		return 2
	}
	x, err := loadExpected(expectedJSON)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// One P runs the caller, the server and the engine's workers in
	// turn, so the process's CPU time is the work done and not time spent
	// handing work between processors or spinning in wait for it.
	runtime.GOMAXPROCS(1)
	scratch := filepath.Join(*root, ".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(scratch)

	prov := provenance(*root, x)
	prov["workload"], prov["seed"], prov["seconds"], prov["trace"] = w.name, *seed, *seconds, *trace
	var t tally
	var m metrics
	dur := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		err = endToEnd(ctx, scratch, w, *seed, dur, x, &t, &m, stdout)
	} else {
		tracePath := filepath.Join(*root, ".bench_build", "perfbench", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		err = traced(ctx, scratch, tracePath, prov, w, *seed, dur, x, &t, &m)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	res := result{Attempted: t.attempted.Load(), Failed: t.failed.Load(), Metrics: m.vals}
	res.Correct = res.Attempted > 0 && res.Failed == 0
	for _, n := range m.names {
		v := m.vals[n]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s has no value\n", n)
			return 1
		}
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", n, v.Value, v.Unit)
	}
	fmt.Fprintf(stdout, "%-36s %16.6g %s\n", "fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)),
		fmt.Sprintf("ratio (%d failed of %d attempted)", res.Failed, res.Attempted))
	for _, v := range []any{map[string]any{"provenance": prov}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

// endToEnd sets the system up setupReps times, keeps the last
// instance, and measures the workload on it for at least dur. Every
// time it reports is process CPU time at the reference host speed (see
// processCPU and calibrate): on a shared 2-core host the wall-clock time
// of the same work moved by half its median between identical runs.
// The wall-clock figures and the raw CPU time are printed beside the
// metrics.
func endToEnd(ctx context.Context, scratch string, w *workload, seed uint64, dur time.Duration, x *expected, t *tally, m *metrics, stdout io.Writer) error {
	var setups []float64
	var e *env
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		speed := hostSpeed()
		start := processCPU()
		var err error
		if e, err = setUp(ctx, filepath.Join(scratch, fmt.Sprint(i)), x, []*workload{w}, t); err != nil {
			return err
		}
		setups = append(setups, (processCPU()-start).Seconds()*speed)
		if i < setupReps-1 {
			if err := e.close(); err != nil {
				return err
			}
		}
	}
	runtime.GC()
	rss := startRSS()
	p := closedLoop(dur, samplesForTail(w.tailPct), 0, t, w.op(ctx, e, seed))
	rssMB := rss.finish()
	if err := e.close(); err != nil {
		return err
	}
	tail, beyond := percentile(p.cpuMS, w.tailPct)
	if beyond < minTailBeyond {
		return fmt.Errorf("p%d of %d samples has only %d beyond it", w.tailPct, len(p.cpuMS), beyond)
	}
	m.set("setup_s", median(setups), "s")
	m.set("ops_per_cpu_s", p.cpuThroughput(), "1/s")
	m.set("cpu_p50_ms", median(p.cpuMS), "ms")
	m.set("cpu_tail_ms", tail, "ms")
	rssP90, _ := percentile(rssMB, 90)
	m.set("rss_p90_mb", rssP90, "MB")
	wallTail, _ := percentile(p.latMS, w.tailPct)
	fmt.Fprintf(stdout, "not metrics: wall clock %.6g ops/s, p50 %.6g ms, p%d %.6g ms; raw CPU p50 %.6g ms; calibration loop p50 %.6g ms; %d operations in %.3g s\n",
		p.throughput(), median(p.latMS), w.tailPct, wallTail, median(p.rawMS), median(p.calMS), len(p.latMS), p.elapsed.Seconds())
	return nil
}

// traced sets the system up once for every workload, measures w for
// dur in alternating untraced and traced blocks, adds traced samples of
// the other workloads and the direct-call passes, and derives the
// per-layer metrics from the spans.
func traced(ctx context.Context, scratch, tracePath string, prov map[string]any, w *workload, seed uint64, dur time.Duration, x *expected, t *tally, m *metrics) (err error) {
	e, err := setUp(ctx, scratch, x, workloads, t)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, e.close()) }()

	// Untraced and traced blocks alternate untraced, traced, traced,
	// untraced, so a drift in machine speed cancels out of the overhead.
	rec := newRecorder()
	var untraced, tracedPhase phase
	var hits, misses uint64
	runtime.GC()
	for _, on := range []bool{false, true, true, false} {
		if !on {
			untraced = untraced.join(closedLoop(dur/4, 0, 0, t, w.op(ctx, e, seed)))
			continue
		}
		e.tracer.Store(rec)
		before := e.eng.CacheStats()
		tracedPhase = tracedPhase.join(closedLoop(dur/4, 0, 0, t, w.op(ctx, e, seed)))
		after := e.eng.CacheStats()
		e.tracer.Store(nil)
		hits, misses = hits+after.Hits-before.Hits, misses+after.Misses-before.Misses
	}
	e.tracer.Store(rec)
	for _, o := range workloads {
		if o != w {
			closedLoop(0, 0, o.sampleOps, t, o.op(ctx, e, seed))
		}
	}
	e.tracer.Store(nil)

	d, err := e.decomposeMeasure(ctx, rec, seed, t)
	if err != nil {
		return err
	}
	if err := e.decomposeSink(ctx, rec, seed, t); err != nil {
		return err
	}
	variants, err := retimePasses(rec)
	if err != nil {
		return err
	}
	kernels, err := e.probeKernels(ctx, rec)
	if err != nil {
		return err
	}
	compileMS, err := probeCompile(rec, variants)
	if err != nil {
		return err
	}
	if err := rec.writeFile(tracePath, map[string]any{"provenance": prov}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", tracePath)

	layerMetrics(m, rec, d, kernels, compileMS)
	m.set("engine.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	m.set("trace.overhead_p50_share", median(tracedPhase.cpuMS)/median(untraced.cpuMS)-1, "ratio")
	m.set("trace.overhead_throughput_share", 1-tracedPhase.cpuThroughput()/untraced.cpuThroughput(), "ratio")
	return nil
}

// layerMetrics derives the per-layer metrics from the recorded spans
// and the direct-call passes.
func layerMetrics(m *metrics, rec *recorder, d measureDecomp, kernels map[string]float64, compileMS float64) {
	build, fp := d.perRequestUS(d.build), d.perRequestUS(d.fingerprint)
	est, meas := d.perRequestUS(d.estimate), d.perRequestUS(d.measure)
	m.set("registry.build_us", build, "us")
	m.set("netlist.fingerprint_us", fp, "us")
	m.set("engine.estimate_us", est, "us")
	m.set("engine.measure_us", meas, "us")
	m.set("engine.warmup_share", 1-float64(d.measureNoWarmup)/float64(d.measure), "ratio")

	handlerUS := d.perRequestUS(d.handler)
	m.set("service.handler_us", handlerUS, "us")
	m.set("service.glue_us", handlerUS-(build+fp+est+meas), "us")
	m.set("http.transport_us", d.perRequestUS(d.client)-handlerUS, "us")

	for _, name := range []string{"engine.table1", "engine.table2", "engine.table3", "engine.figure10", "retime.for_period"} {
		m.set(name+"_ms", median(rec.durations(name, time.Millisecond)), "ms")
	}
	for _, p := range kernelProbes {
		m.set(p.metric, kernels[p.metric], "1/s")
	}
	m.set("engine.compile_ms", compileMS, "ms")

	m.set("jobs.queue_wait_ms", median(rec.durations("jobs.queue_wait", time.Millisecond)), "ms")
	m.set("jobs.run_ms", median(rec.durations("jobs.run", time.Millisecond)), "ms")
	traced := map[string]bool{}
	for _, s := range rec.named("client.job") {
		traced[s.Key] = true
	}
	var puts, checkpoints, cpBytes float64
	var putUS []float64
	for _, s := range rec.named("jobs.store.put") {
		if traced[s.Key] {
			puts++
			putUS = append(putUS, float64(s.dur())/float64(time.Microsecond))
		}
	}
	for _, s := range rec.named("jobs.checkpoint") {
		if traced[s.Key] {
			checkpoints++
			cpBytes += float64(s.N)
		}
	}
	jobs := float64(max(len(traced), 1))
	m.set("jobs.store_put_us", mean(putUS), "us")
	m.set("jobs.store_puts_per_job", puts/jobs, "count")
	m.set("jobs.checkpoints_per_job", checkpoints/jobs, "count")
	m.set("jobs.checkpoint_bytes", cpBytes/max(checkpoints, 1), "bytes")
	m.set("engine.checkpoint_sink_us", mean(rec.durations("engine.checkpoint_sink", time.Microsecond)), "us")
}

// rssEvery is the sampling period of the resident set size.
const rssEvery = 50 * time.Millisecond

// rssSampler samples the process's resident set size, in MiB, every
// rssEvery until finish is called.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var mb []float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if v, err := residentMB(); err == nil {
				mb = append(mb, v)
			}
			select {
			case <-s.stop:
				s.done <- mb
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	return <-s.done
}

// residentMB reads the current resident set size from /proc/self/statm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("unexpected /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}
