package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from the benchmark's own code only: the
// client request, the handler that wraps service.Server, the jobs.Store
// decorator, the CheckpointSink, each experiment call and each call of
// the direct-call decomposition pass. Spans stay in memory and are
// written out as JSON lines when the run ends.

// spanIDs numbers spans and client requests; the client sends its
// span's ID as X-Request-Id so the handler span can name it as parent.
var spanIDs atomic.Uint64

func nextID() uint64 { return spanIDs.Add(1) }

// span is one timed call into a layer.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Key names what the call served: a request key, a route or a job.
	Key string `json:"key,omitempty"`
	// N is a count taken at the boundary (bytes written, say).
	N int64 `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory. A nil *recorder records nothing, so
// untraced code paths pay one nil check.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// add records a span that ran from start to end. id 0 draws a fresh ID.
func (r *recorder) add(id, parent uint64, name, key string, n int64, start, end time.Time) {
	if r == nil {
		return
	}
	if id == 0 {
		id = nextID()
	}
	s := span{ID: id, Parent: parent, Name: name, Key: key, N: n,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// named returns the recorded spans with the given name, in record order.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the spans named name, in units of
// unit.
func (r *recorder) durations(name string, unit time.Duration) []float64 {
	spans := r.named(name)
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}

// writeFile writes header and then every span as one JSON line each.
func (r *recorder) writeFile(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
