package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

func mustExpected(t *testing.T) *expected {
	t.Helper()
	x, err := loadExpected(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestGateRejectsPerturbedReply feeds the gate a reply exactly as the
// service sends it, then the same reply with one number moved.
func TestGateRejectsPerturbedReply(t *testing.T) {
	x := mustExpected(t)
	key := measureReq{Circuit: "rca16", Seed: 3, Power: true}.key()
	want, ok := x.Measure[key]
	if !ok || want.Power == nil {
		t.Fatalf("no recorded power reply for %s", key)
	}
	// reply builds the service's JSON reply for key; edit may change
	// the activity, the power breakdown or the body around them.
	reply := func(edit func(body, act, pw map[string]any)) []byte {
		act, pw := map[string]any{}, map[string]any{}
		if err := roundTrip(want.Activity, &act); err != nil {
			t.Fatal(err)
		}
		if err := roundTrip(*want.Power, &pw); err != nil {
			t.Fatal(err)
		}
		act["l_over_f"] = 0.5 // a field the gate does not compare
		body := map[string]any{"activity": act, "power": pw, "kernel": "wide-lockstep"}
		edit(body, act, pw)
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	exact := func(_, _, _ map[string]any) {}
	if err := checkReply(x.Measure, key, reply(exact)); err != nil {
		t.Fatalf("the recorded reply fails the gate: %v", err)
	}
	for name, edit := range map[string]func(body, act, pw map[string]any){
		"useless+1":    func(_, act, _ map[string]any) { act["useless"] = want.Activity.Useless + 1 },
		"circuit":      func(_, act, _ map[string]any) { act["circuit"] = "rca8" },
		"cycles":       func(_, act, _ map[string]any) { act["cycles"] = 499 },
		"total_mw ulp": func(_, _, pw map[string]any) { pw["total_mw"] = math.Nextafter(want.Power.TotalMW, math.Inf(1)) },
		"no power":     func(body, _, _ map[string]any) { delete(body, "power") },
	} {
		if err := checkReply(x.Measure, key, reply(edit)); err == nil {
			t.Errorf("%s: the gate accepted a perturbed reply", name)
		}
	}
	if err := checkReply(x.Measure, "rca16/seed=99", reply(exact)); err == nil {
		t.Error("the gate accepted a reply to a request with no recorded value")
	}
	if err := checkReply(x.Measure, key, []byte("not json")); err == nil {
		t.Error("the gate accepted an undecodable reply")
	}
}

func TestGateRejectsPerturbedRepro(t *testing.T) {
	x := mustExpected(t)
	want := x.Repro["2"]
	if err := checkRepro(x, 2, want); err != nil {
		t.Fatalf("the recorded pass fails the gate: %v", err)
	}
	bad := want
	bad.Figure10.Points = slices.Clone(want.Figure10.Points)
	bad.Figure10.Points[3].LogicMW = math.Nextafter(bad.Figure10.Points[3].LogicMW, 0)
	if err := checkRepro(x, 2, bad); err == nil {
		t.Error("the gate accepted a Figure 10 point moved by one ulp")
	}
	bad = want
	bad.Table1 = slices.Clone(want.Table1)
	bad.Table1[0].Activity.Glitches++
	if err := checkRepro(x, 2, bad); err == nil {
		t.Error("the gate accepted a Table 1 row with one glitch more")
	}
}

// TestEverySequencedRequestIsRecorded checks that for any seed every
// request the workloads can send has an expected value, and that the
// mix of request shapes does not depend on the seed.
func TestEverySequencedRequestIsRecorded(t *testing.T) {
	x := mustExpected(t)
	shapes := func(seq []measureReq) []string {
		var out []string
		for _, q := range seq {
			q.Seed = 0
			out = append(out, q.key())
		}
		slices.Sort(out)
		return out
	}
	jobShapesOf := func(seq []jobReq) []string {
		var out []string
		for _, q := range seq {
			out = append(out, q.Circuit)
		}
		slices.Sort(out)
		return out
	}
	baseMeasure := shapes(measureSequence(1, 0))
	baseJobs := jobShapesOf(jobSequence(1, 0))
	for seed := uint64(0); seed < 200; seed++ {
		for c := 0; c < 4; c++ {
			ms := measureSequence(seed, c)
			for _, q := range ms {
				if _, ok := x.Measure[q.key()]; !ok {
					t.Fatalf("seed %d client %d: %s has no expected value", seed, c, q.key())
				}
			}
			if !slices.Equal(shapes(ms), baseMeasure) {
				t.Fatalf("seed %d client %d: the measure mix differs from seed 1's", seed, c)
			}
			js := jobSequence(seed, c)
			for _, q := range js {
				if _, ok := x.Jobs[q.key()]; !ok {
					t.Fatalf("seed %d client %d: job %s has no expected value", seed, c, q.key())
				}
			}
			if !slices.Equal(jobShapesOf(js), baseJobs) {
				t.Fatalf("seed %d client %d: the job mix differs from seed 1's", seed, c)
			}
		}
		for _, s := range reproSequence(seed) {
			if _, ok := x.Repro[fmt.Sprint(s)]; !ok {
				t.Fatalf("seed %d: repro seed %d has no expected value", seed, s)
			}
		}
	}
	if !reflect.DeepEqual(measureSequence(7, 1), measureSequence(7, 1)) {
		t.Error("the same seed gave two different sequences")
	}
	if reflect.DeepEqual(measureSequence(7, 1), measureSequence(8, 1)) {
		t.Error("two seeds gave the same sequence")
	}
}

// TestExpectedMatchesEngine records the expected values afresh through
// the Engine API and compares them with expected.json: the tree still
// computes the numbers the benchmark's gate demands.
func TestExpectedMatchesEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("records every expected value")
	}
	path := filepath.Join(t.TempDir(), "expected.json")
	if err := record(context.Background(), path, "test"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loadExpected(data)
	if err != nil {
		t.Fatal(err)
	}
	want := mustExpected(t)
	got.Commit = want.Commit
	if !reflect.DeepEqual(got, want) {
		t.Error("values recorded from this tree differ from expected.json")
	}
}

// TestWorkloadsSmoke sets the system up for every workload, sends a few
// operations of each through the real engine, service and job store,
// and runs the traced-run passes: nothing fails the gate.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the service and runs jobs")
	}
	ctx := context.Background()
	var tl tally
	e, err := setUp(ctx, t.TempDir(), mustExpected(t), workloads, &tl)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	e.tracer.Store(rec)
	for _, w := range workloads {
		p := closedLoop(0, 0, 3, &tl, w.op(ctx, e, 5))
		if len(p.latMS) != 3 || p.ok != 3 {
			t.Errorf("%s: %d operations, %d passed the gate; want 3 and 3", w.name, len(p.latMS), p.ok)
		}
	}
	e.tracer.Store(nil)
	if _, err := e.decomposeMeasure(ctx, rec, 5, &tl); err != nil {
		t.Error(err)
	}
	if err := e.decomposeSink(ctx, rec, 5, &tl); err != nil {
		t.Error(err)
	}
	if err := e.close(); err != nil {
		t.Error(err)
	}
	if tl.failed.Load() != 0 || tl.attempted.Load() == 0 {
		t.Errorf("%d of %d checked operations failed", tl.failed.Load(), tl.attempted.Load())
	}
	for _, name := range []string{"client.measure", "service.handler", "client.job", "jobs.store.put", "jobs.checkpoint",
		"jobs.queue_wait", "jobs.run", "engine.table1", "engine.figure10", "registry.build", "engine.checkpoint_sink"} {
		if len(rec.named(name)) == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
}
