package glitchsim

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/power"
	"glitchsim/internal/sim"
	"glitchsim/netlist"
)

// Engine is the execution core of the package: it owns a worker pool
// configuration, an engine-wide simulation concurrency bound
// (WithMaxConcurrency), default delay/technology models, and a cache of
// compiled netlists keyed by structural identity, so repeated
// measurements of the same circuit — across calls, goroutines and
// service requests — pay for compilation once. All measurement entry
// points take a context.Context and honour cancellation promptly, with
// periodic checks inside the simulator's event loop.
//
// An Engine is safe for concurrent use by any number of goroutines; a
// long-running service shares one Engine across all requests.
type Engine struct {
	workers   int
	lanes     int // word-parallel stimulus lanes per measurement; 0 means MaxLanes
	delay     delay.Model
	tech      power.Tech
	cacheSize int
	maxConc   int
	sem       chan struct{}   // engine-wide simulation slots, cap = maxConc
	sources   []CircuitSource // name-resolution chain ahead of the registry

	mu        sync.Mutex
	lru       *list.List // of *cacheEntry; front = most recently used
	entries   map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// cacheEntry is one compiled netlist in the Engine's cache. Compilation
// happens inside the entry's once, outside the cache lock, so concurrent
// first requests for the same circuit do not serialize the whole engine
// and do not compile twice.
type cacheEntry struct {
	key  string
	once sync.Once
	c    *sim.Compiled
}

// DefaultCacheSize is the number of distinct compiled netlists an Engine
// retains when WithCacheSize is not given.
const DefaultCacheSize = 128

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// WithWorkers fixes the engine's worker-pool size for batch and sweep
// measurements. n <= 0 (the default) selects GOMAXPROCS.
func WithWorkers(n int) EngineOption {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.workers = n
	}
}

// WithDelayModel sets the delay model measurements fall back to when
// their Config.Delay is nil. The default is unit delay, matching the
// paper's experiments.
func WithDelayModel(m delay.Model) EngineOption {
	return func(e *Engine) { e.delay = m }
}

// WithTech sets the technology constants MeasurePower and the power
// experiments use when the request does not carry its own. The default
// is the calibrated 0.8 µm model of DefaultTech.
func WithTech(t power.Tech) EngineOption {
	return func(e *Engine) { e.tech = t }
}

// WithMaxConcurrency bounds the number of simulations the engine runs
// simultaneously across ALL its calls and sessions, so a service facing
// many concurrent requests cannot oversubscribe the machine: each
// request still fans out onto its own workers, but at most n of them
// simulate at any instant (the rest wait, honouring cancellation). n <=
// 0 (the default) selects GOMAXPROCS. Per-request worker counts larger
// than n are not an error — they just contend for the n slots.
func WithMaxConcurrency(n int) EngineOption {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.maxConc = n
	}
}

// WithCacheSize bounds the compiled-netlist cache to n distinct
// circuits (LRU eviction). n <= 0 disables caching entirely: every
// measurement compiles its netlist, as the pre-Engine API did.
func WithCacheSize(n int) EngineOption {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.cacheSize = n
	}
}

// NewEngine returns an Engine with the given options applied over the
// defaults: GOMAXPROCS workers, MaxLanes lanes, unit fallback delay,
// DefaultTech technology, DefaultCacheSize cache entries.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{
		tech:      power.Default08um(),
		cacheSize: DefaultCacheSize,
		lru:       list.New(),
		entries:   make(map[string]*list.Element),
	}
	for _, o := range opts {
		o(e)
	}
	if e.maxConc <= 0 {
		e.maxConc = runtime.GOMAXPROCS(0)
	}
	e.sem = make(chan struct{}, e.maxConc)
	return e
}

// ErrEngineBusy marks a measurement that gave up waiting for an engine
// simulation slot: its context ended while every WithMaxConcurrency
// slot was held by other work. The returned error also wraps the
// context's own error (context.Canceled or context.DeadlineExceeded),
// so existing errors.Is checks keep working. Async callers use the mark
// to classify the failure as transient — the engine was loaded, not
// broken — and retry with backoff.
var ErrEngineBusy = errors.New("glitchsim: engine at concurrency limit")

// acquire claims one of the engine's simulation slots, blocking until a
// slot frees up or ctx is cancelled.
func (e *Engine) acquire(ctx context.Context) error {
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", ErrEngineBusy, ctx.Err())
	}
}

func (e *Engine) release() { <-e.sem }

// Tech returns the engine's default technology constants.
func (e *Engine) Tech() power.Tech { return e.tech }

// Workers returns the engine's effective worker-pool size.
func (e *Engine) Workers() int { return e.workerCount(0) }

// workerCount resolves the effective pool size: an explicit per-request
// count wins, then the engine option, then GOMAXPROCS.
func (e *Engine) workerCount(request int) int {
	if request > 0 {
		return request
	}
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// fillDefaults applies the engine-level fallbacks a request config did
// not specify. Only the delay model is engine-scoped; everything else is
// handled by Config.withDefaults at measurement time.
func (e *Engine) fillDefaults(cfg Config) Config {
	if cfg.Delay == nil && e.delay != nil {
		cfg.Delay = e.delay
	}
	return cfg
}

// CacheStats reports the compiled-netlist cache counters since the
// engine was created.
type CacheStats struct {
	// Size is the number of compiled netlists currently retained;
	// Capacity the configured bound (0 = caching disabled).
	Size, Capacity int
	// Hits and Misses count cache lookups; Evictions counts entries
	// dropped by the LRU bound.
	Hits, Misses, Evictions uint64
}

// CacheStats returns a snapshot of the cache counters.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return CacheStats{
		Size:      e.lru.Len(),
		Capacity:  e.cacheSize,
		Hits:      e.hits,
		Misses:    e.misses,
		Evictions: e.evictions,
	}
}

// compiled returns the compiled form of n, from cache when possible.
// The cache key is the netlist's structural fingerprint, so separately
// built instances of the same circuit share one compilation. Compile
// panics on invalid netlists (matching the historical Measure
// behaviour); a panicked compilation never poisons the cache.
func (e *Engine) compiled(n *netlist.Netlist) *sim.Compiled {
	if e.cacheSize <= 0 {
		return sim.Compile(n)
	}
	key := n.Fingerprint()

	e.mu.Lock()
	if el, ok := e.entries[key]; ok {
		e.lru.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		e.hits++
		e.mu.Unlock()
		ent.once.Do(func() { ent.c = sim.Compile(n) })
		if c := ent.c; c != nil {
			return c
		}
		// The goroutine that owned the once panicked in Compile (invalid
		// netlist). Drop the poisoned entry and report on this caller too.
		e.dropEntry(key)
		return sim.Compile(n)
	}
	ent := &cacheEntry{key: key}
	e.entries[key] = e.lru.PushFront(ent)
	e.misses++
	if e.lru.Len() > e.cacheSize {
		oldest := e.lru.Back()
		e.lru.Remove(oldest)
		delete(e.entries, oldest.Value.(*cacheEntry).key)
		e.evictions++
	}
	e.mu.Unlock()

	defer func() {
		if ent.c == nil {
			e.dropEntry(key) // Compile panicked: do not cache the failure
		}
	}()
	ent.once.Do(func() { ent.c = sim.Compile(n) })
	return ent.c
}

func (e *Engine) dropEntry(key string) {
	e.mu.Lock()
	if el, ok := e.entries[key]; ok {
		e.lru.Remove(el)
		delete(e.entries, key)
	}
	e.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Request structs.

// MeasureRequest asks for one measurement of one circuit.
type MeasureRequest struct {
	// Circuit references the circuit to measure: a registry name, a
	// Builder-built netlist, Verilog source or the JSON wire format
	// (see CircuitNamed and friends).
	Circuit Circuit
	// Config controls the run; zero-value fields select the documented
	// defaults (and the engine's delay model, if one was configured).
	Config Config
	// Tech overrides the engine's technology constants for MeasurePower.
	// Nil selects the engine default.
	Tech *power.Tech
}

// BatchRequest asks for a set of independent measurements.
type BatchRequest struct {
	Jobs []MeasureJob
	// Workers overrides the engine's pool size for this batch; 0 keeps
	// the engine default.
	Workers int
}

// SeedSweepRequest asks for the same circuit measured under several
// stimulus seeds, merged into one aggregate counter.
type SeedSweepRequest struct {
	// Circuit references the circuit to sweep (see MeasureRequest).
	Circuit Circuit
	Config  Config
	Seeds   []uint64
	// Workers overrides the engine's pool size for this sweep; 0 keeps
	// the engine default.
	Workers int
}

// ExperimentRequest parameterizes the paper's experiment drivers.
// Zero-value fields select each experiment's documented defaults.
type ExperimentRequest struct {
	// Cycles is the number of measured cycles per point (0 = the
	// experiment's default run length).
	Cycles int
	// Seed selects the stimulus stream (0 = 1).
	Seed uint64
	// Width parameterizes width-dependent studies (Figure5, WorstCase,
	// AdderStudy, MultiplierStudy).
	Width int
	// Targets overrides the Figure10 retiming-period sweep; nil selects
	// the default eight-point sweep.
	Targets []int
	// Seeds parameterizes multi-seed studies (SeedSweep).
	Seeds []uint64
	// Circuit overrides the subject circuit of the retiming power
	// sweeps (Table3, Figure10): the sweep retimes and measures this
	// circuit instead of the paper's input-registered direction
	// detector. Experiments with a fixed circuit set (Table1, Table2,
	// …) reject a non-zero Circuit.
	Circuit Circuit
}

// ---------------------------------------------------------------------------
// Core measurement entry points.

// measureNetlist is the single-measurement core: admit (the memory
// budget is checked against the cost estimate before anything is
// compiled), compile (cached), claim an engine slot, simulate.
func (e *Engine) measureNetlist(ctx context.Context, nl *netlist.Netlist, cfg Config) (*core.Counter, error) {
	cfg = e.fillDefaults(cfg)
	if err := e.admitMemory(nl, cfg); err != nil {
		return nil, err
	}
	c := e.compiled(nl)
	if err := e.acquire(ctx); err != nil {
		return nil, err
	}
	defer e.release()
	return measureCompiled(ctx, c, cfg, e.laneCount(cfg))
}

// MeasureDetailed simulates the request and returns the attached
// activity counter with per-net statistics. Cancellation of ctx aborts
// the simulation promptly, returning ctx's error. On a budget trip
// (errors.Is(err, ErrBudgetExceeded)) the partial counter is returned
// WITH the error: its statistics are well defined through the cycle
// boundary recorded in the *BudgetError.
func (e *Engine) MeasureDetailed(ctx context.Context, req MeasureRequest) (*core.Counter, error) {
	nl, err := e.requestNetlist(req.Circuit)
	if err != nil {
		return nil, err
	}
	return e.measureNetlist(ctx, nl, req.Config)
}

// Measure runs MeasureDetailed and summarizes the totals. On a budget
// trip (errors.Is(err, ErrBudgetExceeded)) the returned Activity holds
// the partial statistics through the last completed cycle boundary,
// alongside the error.
func (e *Engine) Measure(ctx context.Context, req MeasureRequest) (Activity, error) {
	nl, err := e.requestNetlist(req.Circuit)
	if err != nil {
		return Activity{}, err
	}
	counter, err := e.measureNetlist(ctx, nl, req.Config)
	if err != nil {
		if counter != nil {
			return summarize(nl.Name, counter), err
		}
		return Activity{}, err
	}
	return summarize(nl.Name, counter), nil
}

// MeasurePower measures activity and evaluates the paper's
// three-component power model on it, using the request's technology
// constants or the engine default.
func (e *Engine) MeasurePower(ctx context.Context, req MeasureRequest) (power.Breakdown, Activity, error) {
	nl, err := e.requestNetlist(req.Circuit)
	if err != nil {
		return power.Breakdown{}, Activity{}, err
	}
	counter, err := e.measureNetlist(ctx, nl, req.Config)
	if err != nil {
		return power.Breakdown{}, Activity{}, err
	}
	tech := e.tech
	if req.Tech != nil {
		tech = *req.Tech
	}
	return power.FromActivity(counter, tech), summarize(nl.Name, counter), nil
}

// MeasureMany measures every job of the batch on the engine's worker
// pool and returns one result per job, in job order. Per-job failures
// land in the corresponding MeasureResult and never abort the batch; the
// returned error is non-nil only when ctx is cancelled, in which case
// jobs that never ran carry the context's error in their result.
func (e *Engine) MeasureMany(ctx context.Context, req BatchRequest) ([]MeasureResult, error) {
	return e.measureMany(ctx, req.Jobs, req.Workers, nil)
}

// measureMany is the fan-out core behind MeasureMany, MeasureSeeds and
// the experiment drivers. emit, when non-nil, is called once per
// completed job from the worker goroutines (concurrently, in completion
// order) — the Session layer streams progress through it.
func (e *Engine) measureMany(ctx context.Context, jobs []MeasureJob, workers int, emit func(int, *MeasureResult)) ([]MeasureResult, error) {
	results := make([]MeasureResult, len(jobs))
	if len(jobs) == 0 {
		return results, ctx.Err()
	}

	// Resolve every job's Circuit and compile each distinct netlist once,
	// up front and serially, so the fan-out below only sees compiled
	// netlists. A job that fails to resolve carries the error in its
	// result, like any other per-job failure. Compile panics on invalid
	// netlists (as Measure does) and the panic should surface on the
	// caller's goroutine. The cache makes this a lookup for circuits the
	// engine has seen before. Memory-budget admission happens here too,
	// before the job's netlist is ever compiled.
	nls := make([]*netlist.Netlist, len(jobs))
	compiled := make(map[*netlist.Netlist]*sim.Compiled, len(jobs))
	for i := range jobs {
		if jobs[i].Circuit.IsZero() {
			continue
		}
		nl, err := e.Resolve(jobs[i].Circuit)
		if err != nil {
			results[i].Err = fmt.Errorf("glitchsim: job %d: %w", i, err)
			continue
		}
		if err := e.admitMemory(nl, e.fillDefaults(jobs[i].Config)); err != nil {
			results[i].Err = err
			continue
		}
		nls[i] = nl
		if compiled[nl] == nil {
			compiled[nl] = e.compiled(nl)
		}
	}

	err := parallelEachCtx(ctx, len(jobs), e.workerCount(workers), func(i int) error {
		nl := nls[i]
		if results[i].Err != nil {
			// Circuit resolution or admission already failed above.
		} else if nl == nil {
			results[i].Err = fmt.Errorf("glitchsim: job %d names no circuit", i)
		} else if err := e.acquire(ctx); err != nil {
			results[i].Err = err
		} else {
			cfg := e.fillDefaults(jobs[i].Config)
			counter, err := measureCompiled(ctx, compiled[nl], cfg, e.laneCount(cfg))
			e.release()
			if err != nil {
				results[i].Err = err
			} else {
				results[i].Counter = counter
				results[i].Activity = summarize(nl.Name, counter)
			}
		}
		if emit != nil {
			emit(i, &results[i])
		}
		return nil // per-job errors live in results, never abort the batch
	})
	if err != nil {
		// Mark jobs the cancelled pool never ran, so callers inspecting
		// results see why they are empty.
		for i := range results {
			if results[i].Err == nil && results[i].Counter == nil {
				results[i].Err = err
			}
		}
		return results, err
	}
	return results, nil
}

// MeasureSeeds measures the request's circuit under each seed in
// parallel and merges the per-seed counters into one aggregate, which
// reads like a single measurement of len(Seeds)*Cycles cycles. Any
// Source in the config is ignored (each seed gets its own stream). The
// merge order is fixed (seed order), so the aggregate is deterministic.
func (e *Engine) MeasureSeeds(ctx context.Context, req SeedSweepRequest) (*core.Counter, error) {
	counter, _, err := e.measureSeeds(ctx, req, nil)
	return counter, err
}

// measureSeeds also returns the resolved circuit name, so the Session
// layer can label its final event without resolving the reference a
// second time.
func (e *Engine) measureSeeds(ctx context.Context, req SeedSweepRequest, emit func(int, *MeasureResult)) (*core.Counter, string, error) {
	if len(req.Seeds) == 0 {
		return nil, "", fmt.Errorf("glitchsim: MeasureSeeds needs at least one seed")
	}
	nl, err := e.requestNetlist(req.Circuit)
	if err != nil {
		return nil, "", err
	}
	jobs := make([]MeasureJob, len(req.Seeds))
	for i, seed := range req.Seeds {
		c := req.Config
		c.Seed = seed
		c.Source = nil
		jobs[i] = MeasureJob{Circuit: CircuitFromNetlist(nl), Config: c}
	}
	res, err := e.measureMany(ctx, jobs, req.Workers, emit)
	if err != nil {
		return nil, "", err
	}
	agg := res[0].Counter
	for i, r := range res {
		if r.Err != nil {
			return nil, "", fmt.Errorf("glitchsim: seed %d: %w", req.Seeds[i], r.Err)
		}
		if i == 0 {
			continue
		}
		if err := agg.Merge(r.Counter); err != nil {
			return nil, "", err
		}
	}
	return agg, nl.Name, nil
}
