package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"glitchsim"
	"glitchsim/internal/registry"
	"glitchsim/internal/service"
)

// The correctness gate. Simulated statistics are deterministic, so every
// reply is compared field by field with the value recorded in
// expected.json. The values were computed through the Engine API with
// Circuit references only (perfbench -record), never through the
// service, so the gate also checks that the HTTP and job paths report
// what the engine reports. Only the fields named below are compared:
// a reply that gains a field still passes, one whose numbers move fails.

//go:embed expected.json
var expectedJSON []byte

// activityRec is the compared part of an Activity.
type activityRec struct {
	Circuit     string `json:"circuit"`
	Cycles      int    `json:"cycles"`
	Transitions uint64 `json:"transitions"`
	Useful      uint64 `json:"useful"`
	Useless     uint64 `json:"useless"`
	Glitches    uint64 `json:"glitches"`
	Rising      uint64 `json:"rising"`
}

// powerRec is the compared part of a power breakdown, in the units of
// the service's reply.
type powerRec struct {
	FFs        int     `json:"ffs"`
	AreaMM2    float64 `json:"area_mm2"`
	ClockCapPF float64 `json:"clock_cap_pf"`
	LogicMW    float64 `json:"logic_mw"`
	FlipflopMW float64 `json:"flipflop_mw"`
	ClockMW    float64 `json:"clock_mw"`
	TotalMW    float64 `json:"total_mw"`
}

// measureRec is the compared part of a /v1/measure reply or job result.
type measureRec struct {
	Activity activityRec `json:"activity"`
	Power    *powerRec   `json:"power,omitempty"`
}

type multRec struct {
	Arch     string      `json:"arch"`
	Width    int         `json:"width"`
	DSum     int         `json:"dsum"`
	DCarry   int         `json:"dcarry"`
	Activity activityRec `json:"activity"`
}

type table3Rec struct {
	Circuit      int     `json:"circuit"`
	TargetPeriod int     `json:"target_period"`
	Period       int     `json:"period"`
	Latency      int     `json:"latency"`
	FFs          int     `json:"ffs"`
	AreaMM2      float64 `json:"area_mm2"`
	ClockCapPF   float64 `json:"clock_cap_pf"`
	LogicMW      float64 `json:"logic_mw"`
	FlipflopMW   float64 `json:"flipflop_mw"`
	ClockMW      float64 `json:"clock_mw"`
	TotalMW      float64 `json:"total_mw"`
	LOverF       float64 `json:"l_over_f"`
}

type fig10Rec struct {
	Subject string      `json:"subject"`
	Before  table3Rec   `json:"before"`
	Points  []table3Rec `json:"points"`
}

// reproRec is one full paper pass at one stimulus seed.
type reproRec struct {
	Table1   []multRec   `json:"table1"`
	Table2   []multRec   `json:"table2"`
	Table3   []table3Rec `json:"table3"`
	Figure10 fig10Rec    `json:"figure10"`
}

// expected is the content of expected.json.
type expected struct {
	// Commit is the repository commit the values were recorded at.
	Commit string `json:"commit"`
	// UploadFingerprint is the fingerprint POST /v1/circuits must
	// return for the uploaded circuit.
	UploadFingerprint string                `json:"upload_fingerprint"`
	Measure           map[string]measureRec `json:"measure"`
	Jobs              map[string]measureRec `json:"jobs"`
	// Repro is keyed by stimulus seed.
	Repro map[string]reproRec `json:"repro"`
}

func loadExpected(data []byte) (*expected, error) {
	x := new(expected)
	if err := json.Unmarshal(data, x); err != nil {
		return nil, fmt.Errorf("decoding expected values: %w", err)
	}
	return x, nil
}

// checkMeasure compares a decoded reply with the recorded value of key.
func checkMeasure(want map[string]measureRec, key string, got measureRec) error {
	w, ok := want[key]
	if !ok {
		return fmt.Errorf("%s: no expected value recorded", key)
	}
	if got.Activity != w.Activity {
		return fmt.Errorf("%s: activity %+v, want %+v", key, got.Activity, w.Activity)
	}
	switch {
	case (got.Power == nil) != (w.Power == nil):
		return fmt.Errorf("%s: power present=%t, want %t", key, got.Power != nil, w.Power != nil)
	case got.Power != nil && *got.Power != *w.Power:
		return fmt.Errorf("%s: power %+v, want %+v", key, *got.Power, *w.Power)
	}
	return nil
}

// checkReply decodes a reply body and checks it.
func checkReply(want map[string]measureRec, key string, body []byte) error {
	var got measureRec
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: decoding reply: %w", key, err)
	}
	return checkMeasure(want, key, got)
}

func checkRepro(x *expected, seed uint64, got reproRec) error {
	w, ok := x.Repro[fmt.Sprint(seed)]
	if !ok {
		return fmt.Errorf("repro seed %d: no expected value recorded", seed)
	}
	for _, part := range []struct {
		name      string
		got, want any
	}{
		{"table1", got.Table1, w.Table1},
		{"table2", got.Table2, w.Table2},
		{"table3", got.Table3, w.Table3},
		{"figure10", got.Figure10, w.Figure10},
	} {
		if !reflect.DeepEqual(part.got, part.want) {
			return fmt.Errorf("repro seed %d: %s differs from the recorded value", seed, part.name)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Conversions from the engine's results to the compared records.

func activityOf(a glitchsim.Activity) activityRec {
	return activityRec{Circuit: a.Circuit, Cycles: a.Cycles, Transitions: a.Transitions,
		Useful: a.Useful, Useless: a.Useless, Glitches: a.Glitches, Rising: a.Rising}
}

func multRecs(rows []glitchsim.MultRow) []multRec {
	out := make([]multRec, len(rows))
	for i, r := range rows {
		out[i] = multRec{Arch: r.Arch, Width: r.Width, DSum: r.DSum, DCarry: r.DCarry, Activity: activityOf(r.Activity)}
	}
	return out
}

func table3Of(r glitchsim.Table3Row) table3Rec {
	return table3Rec{Circuit: r.Circuit, TargetPeriod: r.TargetPeriod, Period: r.Period, Latency: r.Latency,
		FFs: r.FFs, AreaMM2: r.AreaMM2, ClockCapPF: r.ClockCapPF, LogicMW: r.LogicMW,
		FlipflopMW: r.FlipflopMW, ClockMW: r.ClockMW, TotalMW: r.TotalMW, LOverF: r.LOverF}
}

func table3Recs(rows []glitchsim.Table3Row) []table3Rec {
	out := make([]table3Rec, len(rows))
	for i, r := range rows {
		out[i] = table3Of(r)
	}
	return out
}

func fig10Of(res glitchsim.Fig10Result) fig10Rec {
	return fig10Rec{Subject: res.Subject, Before: table3Of(res.Before), Points: table3Recs(res.Points)}
}

// ---------------------------------------------------------------------------
// Recording.

// uploadJSON returns the JSON wire form of the circuit uploaded at
// set-up.
func uploadJSON() ([]byte, error) {
	nl, err := registry.Build(uploadSource)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := nl.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("exporting %s: %w", uploadSource, err)
	}
	return buf.Bytes(), nil
}

// engineMeasure measures one measure-small request directly on the
// engine, the way the service does for the same body.
func engineMeasure(ctx context.Context, eng *glitchsim.Engine, c glitchsim.Circuit, cfg glitchsim.Config, power bool) (measureRec, error) {
	req := glitchsim.MeasureRequest{Circuit: c, Config: cfg}
	if !power {
		act, err := eng.Measure(ctx, req)
		return measureRec{Activity: activityOf(act)}, err
	}
	bd, act, err := eng.MeasurePower(ctx, req)
	if err != nil {
		return measureRec{}, err
	}
	var p powerRec
	if err := roundTrip(service.PowerFrom(bd), &p); err != nil {
		return measureRec{}, err
	}
	return measureRec{Activity: activityOf(act), Power: &p}, nil
}

// roundTrip converts v to out through its JSON encoding.
func roundTrip(v, out any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}

// reproPass runs Table 1, Table 2, Table 3 and Figure 10 once, at the
// experiments' default run lengths. timed, when non-nil, is called
// after each experiment with its name and start time.
func reproPass(ctx context.Context, eng *glitchsim.Engine, seed uint64, timed func(name string, start time.Time)) (reproRec, error) {
	req := glitchsim.ExperimentRequest{Seed: seed}
	var out reproRec
	mark := func(name string, start time.Time) {
		if timed != nil {
			timed(name, start)
		}
	}
	t := time.Now()
	t1, err := eng.Table1(ctx, req)
	if err != nil {
		return out, fmt.Errorf("table1: %w", err)
	}
	mark("engine.table1", t)
	t = time.Now()
	t2, err := eng.Table2(ctx, req)
	if err != nil {
		return out, fmt.Errorf("table2: %w", err)
	}
	mark("engine.table2", t)
	t = time.Now()
	t3, err := eng.Table3(ctx, req)
	if err != nil {
		return out, fmt.Errorf("table3: %w", err)
	}
	mark("engine.table3", t)
	t = time.Now()
	f10, err := eng.Figure10(ctx, req)
	if err != nil {
		return out, fmt.Errorf("figure10: %w", err)
	}
	mark("engine.figure10", t)
	return reproRec{Table1: multRecs(t1), Table2: multRecs(t2), Table3: table3Recs(t3), Figure10: fig10Of(f10)}, nil
}

// record computes every expected value through the Engine API and
// writes expected.json to path.
func record(ctx context.Context, path, commit string) error {
	eng := glitchsim.NewEngine()
	src, err := uploadJSON()
	if err != nil {
		return err
	}
	upload := glitchsim.CircuitFromJSON(src)
	nl, err := eng.Resolve(upload)
	if err != nil {
		return fmt.Errorf("resolving the upload: %w", err)
	}
	x := &expected{
		Commit:            commit,
		UploadFingerprint: nl.Fingerprint(),
		Measure:           map[string]measureRec{},
		Jobs:              map[string]measureRec{},
		Repro:             map[string]reproRec{},
	}
	for _, q := range measurePool() {
		c := glitchsim.CircuitNamed(q.Circuit)
		if q.Circuit == uploadRef {
			c = upload
		}
		rec, err := engineMeasure(ctx, eng, c, q.config(), q.Power)
		if err != nil {
			return fmt.Errorf("%s: %w", q.key(), err)
		}
		x.Measure[q.key()] = rec
	}
	for _, q := range jobPool() {
		act, err := eng.Measure(ctx, glitchsim.MeasureRequest{Circuit: glitchsim.CircuitNamed(q.Circuit), Config: q.config()})
		if err != nil {
			return fmt.Errorf("%s: %w", q.key(), err)
		}
		x.Jobs[q.key()] = measureRec{Activity: activityOf(act)}
	}
	for s := uint64(1); s <= reproSeeds; s++ {
		rec, err := reproPass(ctx, eng, s, nil)
		if err != nil {
			return fmt.Errorf("repro seed %d: %w", s, err)
		}
		x.Repro[fmt.Sprint(s)] = rec
	}
	data, err := json.MarshalIndent(x, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
