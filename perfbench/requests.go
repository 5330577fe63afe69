package main

import (
	"encoding/json"
	"fmt"

	"glitchsim"
	"glitchsim/internal/delay"
)

// Every request a workload sends is drawn from a small fixed pool, so
// the expected reply of each one can be recorded once (expected.json).
// The workload seed only orders the pool and picks stimulus seeds; the
// mix of request shapes is the same for every seed, so the cost of a
// run does not depend on which seed it is given.

// rng is splitmix64: tiny, fast and stable across Go releases.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed ^ stream*0x9e3779b97f4a7c15}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// ---------------------------------------------------------------------------
// measure-small

// measureCircuits are the registry circuits of the measure-small base
// mix: every round of the sequence measures each of them once.
var measureCircuits = []string{"rca16", "cla16", "cskip16", "csel16", "wallace8", "array8", "pipemult8", "accum16"}

const (
	measureCycles = 500
	// measureSeeds is the number of stimulus seeds (1..measureSeeds) a
	// measure request draws from.
	measureSeeds = 8
	// uploadRef stands for the circuit uploaded at set-up; the request
	// names it by the fingerprint the upload returned.
	uploadRef = "upload"
	// uploadSource is the registry circuit exported as JSON and
	// uploaded at set-up.
	uploadSource = "dirdet8"
	// measureRounds is the number of rounds in one client's sequence;
	// the power slice rotates through measureCircuits once per sequence.
	measureRounds = 8
)

// measureReq is one POST /v1/measure.
type measureReq struct {
	Circuit      string // registry name or uploadRef
	Seed         uint64
	DSum, DCarry int
	Lanes        int
	Power        bool
}

// key names the request in expected.json.
func (r measureReq) key() string {
	k := fmt.Sprintf("%s/seed=%d", r.Circuit, r.Seed)
	if r.DSum != 0 {
		k += fmt.Sprintf("/dsum=%d/dcarry=%d", r.DSum, r.DCarry)
	}
	if r.Lanes != 0 {
		k += fmt.Sprintf("/lanes=%d", r.Lanes)
	}
	if r.Power {
		k += "/power"
	}
	return k
}

// body is the request's JSON body; the upload is referenced by its
// fingerprint.
func (r measureReq) body(uploadFP string) []byte {
	circuit := r.Circuit
	if circuit == uploadRef {
		circuit = uploadFP
	}
	m := map[string]any{"circuit": circuit, "cycles": measureCycles, "seed": r.Seed}
	if r.DSum != 0 {
		m["dsum"], m["dcarry"] = r.DSum, r.DCarry
	}
	if r.Lanes != 0 {
		m["lanes"] = r.Lanes
	}
	if r.Power {
		m["power"] = true
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(err) // a map of strings and numbers always encodes
	}
	return b
}

// config is the engine configuration the service derives from body.
func (r measureReq) config() glitchsim.Config {
	cfg := glitchsim.Config{Cycles: measureCycles, Seed: r.Seed, Lanes: r.Lanes}
	if r.DSum != 0 {
		cfg.Delay = delay.FullAdderRatio(r.DSum, r.DCarry)
	}
	return cfg
}

// measureRound returns round i of the mix, stimulus seeds unset: each
// base circuit once, plus one request of each fixed slice — the
// uploaded circuit by fingerprint, a dsum=2·dcarry multiplier (the
// wide-event kernel), rca8 with lanes=1 (the scalar kernel) and a
// power breakdown.
func measureRound(i int) []measureReq {
	round := make([]measureReq, 0, len(measureCircuits)+4)
	for _, c := range measureCircuits {
		round = append(round, measureReq{Circuit: c})
	}
	ratio := "array8"
	if i%2 == 1 {
		ratio = "wallace8"
	}
	return append(round,
		measureReq{Circuit: uploadRef},
		measureReq{Circuit: ratio, DSum: 2, DCarry: 1},
		measureReq{Circuit: "rca8", Lanes: 1},
		measureReq{Circuit: measureCircuits[i%len(measureCircuits)], Power: true},
	)
}

// measureSequence is the request sequence of one client: measureRounds
// rounds, each shuffled, with seeded stimulus seeds.
func measureSequence(seed uint64, client int) []measureReq {
	r := newRNG(seed, uint64(1+client))
	var seq []measureReq
	for i := 0; i < measureRounds; i++ {
		round := measureRound(i)
		for j := range round {
			round[j].Seed = uint64(1 + r.intn(measureSeeds))
		}
		r.shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		seq = append(seq, round...)
	}
	return seq
}

// measureShapes returns one request of every distinct shape the
// sequences contain (stimulus seed 1): the set-up pass that fills the
// compile cache.
func measureShapes() []measureReq {
	seen := map[string]bool{}
	var out []measureReq
	for i := 0; i < measureRounds; i++ {
		for _, q := range measureRound(i) {
			q.Seed = 1
			if !seen[q.key()] {
				seen[q.key()] = true
				out = append(out, q)
			}
		}
	}
	return out
}

// measurePool returns every request any sequence can contain.
func measurePool() []measureReq {
	var out []measureReq
	for _, q := range measureShapes() {
		for s := uint64(1); s <= measureSeeds; s++ {
			q.Seed = s
			out = append(out, q)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// jobs-checkpointed

// jobCircuits are the job subjects; jobMix is the order each client
// cycles through them. pipemult8 jobs take about twice as long as
// accum16 ones, and with a 1:2 mix the latency median lies inside the
// pipemult8 mode instead of in the gap between two equal modes, where
// it would jump with small changes of either.
var (
	jobCircuits = []string{"accum16", "pipemult8"}
	jobMix      = []string{"accum16", "pipemult8", "pipemult8"}
)

const (
	jobCycles          = 40000
	jobCheckpointEvery = 32
	jobSeeds           = 8
	jobSequenceLen     = 18
)

// jobReq is one measure job: POST /v1/jobs, follow the events, fetch
// the result.
type jobReq struct {
	Circuit string
	Seed    uint64
}

func (r jobReq) key() string {
	return fmt.Sprintf("%s/seed=%d/cycles=%d/every=%d", r.Circuit, r.Seed, jobCycles, jobCheckpointEvery)
}

func (r jobReq) body() []byte {
	b, err := json.Marshal(map[string]any{
		"kind": "measure",
		"measure": map[string]any{
			"circuit": r.Circuit, "cycles": jobCycles, "seed": r.Seed,
			"checkpoint_every": jobCheckpointEvery,
		},
	})
	if err != nil {
		panic(err) // a map of strings and numbers always encodes
	}
	return b
}

// config is the job's measurement without checkpointing: checkpointed
// and plain runs are bit-identical, so the expected values come from
// the plain run.
func (r jobReq) config() glitchsim.Config {
	return glitchsim.Config{Cycles: jobCycles, Seed: r.Seed}
}

// jobSequence cycles through jobMix, starting at a different point per
// client, with seeded stimulus seeds.
func jobSequence(seed uint64, client int) []jobReq {
	r := newRNG(seed, uint64(1001+client))
	seq := make([]jobReq, jobSequenceLen)
	for i := range seq {
		seq[i] = jobReq{Circuit: jobMix[(i+client)%len(jobMix)], Seed: uint64(1 + r.intn(jobSeeds))}
	}
	return seq
}

func jobShapes() []jobReq {
	out := make([]jobReq, len(jobCircuits))
	for i, c := range jobCircuits {
		out[i] = jobReq{Circuit: c, Seed: 1}
	}
	return out
}

func jobPool() []jobReq {
	var out []jobReq
	for _, c := range jobCircuits {
		for s := uint64(1); s <= jobSeeds; s++ {
			out = append(out, jobReq{Circuit: c, Seed: s})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// paper-repro

const (
	reproSeeds       = 4
	reproSequenceLen = 16
)

// reproSequence is the stimulus seed of each full pass.
func reproSequence(seed uint64) []uint64 {
	r := newRNG(seed, 2001)
	seq := make([]uint64, reproSequenceLen)
	for i := range seq {
		seq[i] = uint64(1 + r.intn(reproSeeds))
	}
	return seq
}
