package main

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	// server reports whether the workload talks to the HTTP service.
	server bool
	// tailPct is the percentile of CPU time reported as cpu_tail_ms;
	// the phase runs until it has minTailBeyond samples beyond it.
	tailPct int
	// sampleOps is how many operations of this workload a traced run of
	// another workload sends, so every traced run measures every layer.
	sampleOps int
	// warm is the untimed pass over every distinct request shape that
	// ends set-up: afterwards the compile cache holds every circuit.
	warm func(ctx context.Context, e *env, t *tally) error
	// op returns the phase's operation: the caller's i-th request.
	op func(ctx context.Context, e *env, seed uint64) func(i int) (time.Duration, error)
}

var workloads = []*workload{
	{
		// The paper's own artefact, in-process: Table 1, 2, 3 and
		// Figure 10 at their default run lengths, one full pass per
		// operation. With GOMAXPROCS 1 the engine runs one worker.
		name: "paper-repro", tailPct: 75, sampleOps: 3,
		warm: func(ctx context.Context, e *env, t *tally) error {
			_, err := e.repro(ctx, 1)
			t.note(err)
			return nil
		},
		op: func(ctx context.Context, e *env, seed uint64) func(i int) (time.Duration, error) {
			seq := reproSequence(seed)
			return func(i int) (time.Duration, error) {
				start := time.Now()
				_, err := e.repro(ctx, seq[i%len(seq)])
				return time.Since(start), err
			}
		},
	},
	{
		// Small synchronous measurements over loopback HTTP, where
		// per-request overhead is about half of each reply.
		name: "measure-small", server: true, tailPct: 95, sampleOps: 400,
		warm: func(_ context.Context, e *env, t *tally) error {
			if err := e.upload(); err != nil {
				return err
			}
			for _, q := range measureShapes() {
				_, err := e.measure(q, q.body(e.uploadFP))
				t.note(err)
			}
			return nil
		},
		op: func(_ context.Context, e *env, seed uint64) func(i int) (time.Duration, error) {
			seq := measureSequence(seed, 0)
			bodies := make([][]byte, len(seq))
			for k, q := range seq {
				bodies[k] = q.body(e.uploadFP)
			}
			return func(i int) (time.Duration, error) {
				k := i % len(seq)
				return e.measure(seq[k], bodies[k])
			}
		},
	},
	{
		// Durable, checkpointed measure jobs: writes beside reads.
		name: "jobs-checkpointed", server: true, tailPct: 95, sampleOps: 30,
		warm: func(_ context.Context, e *env, t *tally) error {
			for _, q := range jobShapes() {
				_, err := e.job(q, q.body())
				t.note(err)
			}
			return nil
		},
		op: func(_ context.Context, e *env, seed uint64) func(i int) (time.Duration, error) {
			seq := jobSequence(seed, 0)
			return func(i int) (time.Duration, error) {
				q := seq[i%len(seq)]
				return e.job(q, q.body())
			}
		},
	},
}

func workloadNamed(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (one of %v)", name, names)
}

// setUp constructs an environment under dir and warms it for every
// workload in ws.
func setUp(ctx context.Context, dir string, x *expected, ws []*workload, t *tally) (*env, error) {
	server := false
	for _, w := range ws {
		server = server || w.server
	}
	e, err := newEnv(ctx, dir, x, server)
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		if err := w.warm(ctx, e, t); err != nil {
			return nil, fmt.Errorf("warming %s: %w", w.name, errors.Join(err, e.close()))
		}
	}
	return e, nil
}

// repro runs one full paper pass at the given stimulus seed and checks
// it. In a traced phase each experiment call gets a span under the
// pass's span.
func (e *env) repro(ctx context.Context, seed uint64) (reproRec, error) {
	rec := e.tracer.Load()
	id := nextID()
	var timed func(string, time.Time)
	if rec != nil {
		timed = func(name string, start time.Time) { rec.add(0, id, name, fmt.Sprint(seed), 0, start, time.Now()) }
	}
	start := time.Now()
	got, err := reproPass(ctx, e.eng, seed, timed)
	rec.add(id, 0, "client.repro", fmt.Sprint(seed), 0, start, time.Now())
	if err != nil {
		return got, err
	}
	return got, checkRepro(e.x, seed, got)
}
