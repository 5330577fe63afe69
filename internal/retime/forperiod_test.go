package retime

import (
	"fmt"
	"sync"
	"testing"

	"glitchsim/internal/delay"
	"glitchsim/internal/registry"
	"glitchsim/internal/stimulus"
	"glitchsim/internal/testutil"
	"glitchsim/netlist"
)

// forPeriodRef is the reference ForPeriod: a fresh graph, FEAS run and
// Apply for every probed depth k, with nothing shared between probes.
func forPeriodRef(n *netlist.Netlist, dm delay.Model, period, maxStages int) (Result, error) {
	for k := 0; k <= maxStages; k++ {
		g := FromNetlist(n, dm, k)
		if r, ok := g.Feasible(period); ok {
			out := g.Apply(r, fmt.Sprintf("%s_t%d", n.Name, period))
			return Result{Netlist: out, Period: g.ClockPeriod(r), Latency: k, Registers: out.NumDFFs()}, nil
		}
	}
	return Result{}, fmt.Errorf("unreachable")
}

// sweepTargets returns the Table 3 and Figure 10 retiming targets of a
// circuit under a delay model, each with its sweep's latency budget,
// derived from the critical path exactly as the experiments derive them.
func sweepTargets(n *netlist.Netlist, dm delay.Model) (targets, maxLatency []int) {
	cp := FromNetlist(n, dm, 0).ClockPeriod(nil)
	for _, tgt := range []int{cp, cp * 3 / 7, cp / 3, cp * 3 / 14} {
		targets, maxLatency = append(targets, max(tgt, 1)), append(maxLatency, 4*cp)
	}
	for _, tgt := range []int{cp, cp / 2, cp / 3, cp / 4, cp / 5, cp / 7, cp / 9, cp / 12} {
		targets, maxLatency = append(targets, max(tgt, 1)), append(maxLatency, 8*cp)
	}
	return targets, maxLatency
}

// sameResult fails the test unless two retiming results are identical:
// equal latency, period and register count, equal fingerprints, and the
// same sink order on every net.
func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if got.Latency != want.Latency || got.Period != want.Period || got.Registers != want.Registers {
		t.Fatalf("%s: latency/period/registers %d/%d/%d, want %d/%d/%d", what,
			got.Latency, got.Period, got.Registers, want.Latency, want.Period, want.Registers)
	}
	if g, w := got.Netlist.Fingerprint(), want.Netlist.Fingerprint(); g != w {
		t.Fatalf("%s: fingerprint %s, want %s", what, g, w)
	}
	for i := range want.Netlist.Nets {
		gs, ws := got.Netlist.Nets[i].Sinks, want.Netlist.Nets[i].Sinks
		if len(gs) != len(ws) {
			t.Fatalf("%s: net %d has %d sinks, want %d", what, i, len(gs), len(ws))
		}
		for j := range ws {
			if gs[j] != ws[j] {
				t.Fatalf("%s: net %d sink %d is %+v, want %+v", what, i, j, gs[j], ws[j])
			}
		}
	}
}

// checkForPeriod runs ForPeriod and the reference on every sweep target
// and requires identical outcomes, failures included.
func checkForPeriod(t *testing.T, name string, n *netlist.Netlist, dm delay.Model) {
	t.Helper()
	targets, maxLatency := sweepTargets(n, dm)
	for i, tgt := range targets {
		what := fmt.Sprintf("%s/%s/target %d", name, dm.Name(), tgt)
		got, gerr := ForPeriod(n, dm, tgt, maxLatency[i])
		want, werr := forPeriodRef(n, dm, tgt, maxLatency[i])
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: error %v, reference error %v", what, gerr, werr)
		}
		if werr == nil {
			sameResult(t, what, got, want)
			if k := FromNetlist(n, dm, 0).minLatency(tgt); k > want.Latency {
				t.Fatalf("%s: latency bound %d exceeds the feasible depth %d", what, k, want.Latency)
			}
		}
	}
}

var forPeriodModels = []delay.Model{delay.Unit(), delay.FullAdderRatio(2, 1), delay.Typical()}

// TestForPeriodMatchesReference: ForPeriod produces exactly the netlist
// a fresh graph per probed depth produces, for every registry circuit
// under three delay models at every Table 3 and Figure 10 target.
func TestForPeriodMatchesReference(t *testing.T) {
	for _, name := range registry.Names() {
		n, err := registry.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, dm := range forPeriodModels {
			checkForPeriod(t, name, n, dm)
		}
	}
}

// TestForPeriodMatchesReferenceRandom is the same comparison on random
// netlists, half of them with flipflops already in place.
func TestForPeriodMatchesReferenceRandom(t *testing.T) {
	rng := stimulus.NewPRNG(1995)
	for trial := 0; trial < 30; trial++ {
		n := testutil.RandomNetlist(rng, testutil.RandConfig{
			Inputs:       2 + int(rng.Uintn(5)),
			Gates:        10 + int(rng.Uintn(60)),
			Outputs:      1 + int(rng.Uintn(4)),
			WithCompound: trial%3 != 0,
			WithDFFs:     trial%2 == 0,
		})
		for _, dm := range forPeriodModels {
			checkForPeriod(t, fmt.Sprintf("trial %d (%s)", trial, n.Name), n, dm)
		}
	}
}

// TestForPeriodMinPeriodMatchesReference: the minimum pure-retiming
// period of every registry circuit is reached by ForPeriod at depth 0
// with the netlist Retime builds for it.
func TestForPeriodMinPeriodMatchesReference(t *testing.T) {
	for _, name := range registry.Names() {
		n, err := registry.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		c := MinPeriodOf(n, delay.Unit())
		got, err := ForPeriod(n, delay.Unit(), c, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := forPeriodRef(n, delay.Unit(), c, 0)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		sameResult(t, name+"/min period", got, want)
	}
}

// TestForPeriodConcurrentReaders: the sweep retimes one base netlist for
// several targets at once, and a Graph serves concurrent Feasible and
// ClockPeriod calls; every goroutine must see the serial results.
func TestForPeriodConcurrentReaders(t *testing.T) {
	n, err := registry.Build("dirdet8r")
	if err != nil {
		t.Fatal(err)
	}
	targets, maxLatency := sweepTargets(n, delay.Unit())
	want := make([]Result, len(targets))
	for i, tgt := range targets {
		if want[i], err = ForPeriod(n, delay.Unit(), tgt, maxLatency[i]); err != nil {
			t.Fatal(err)
		}
	}
	g := FromNetlist(n, delay.Unit(), 2)
	cp := g.ClockPeriod(nil)
	wantR, wantOK := g.Feasible(cp / 2)

	var wg sync.WaitGroup
	got := make([]Result, len(targets))
	errs := make([]error, len(targets))
	for i, tgt := range targets {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got[i], errs[i] = ForPeriod(n, delay.Unit(), tgt, maxLatency[i])
		}()
		go func() {
			defer wg.Done()
			if c := g.ClockPeriod(nil); c != cp {
				t.Errorf("concurrent ClockPeriod %d, want %d", c, cp)
			}
			r, ok := g.Feasible(cp / 2)
			if ok != wantOK || fmt.Sprint(r) != fmt.Sprint(wantR) {
				t.Errorf("concurrent Feasible(%d) = %v, %v; want %v, %v", cp/2, r, ok, wantR, wantOK)
			}
		}()
	}
	wg.Wait()
	for i := range targets {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameResult(t, fmt.Sprintf("concurrent target %d", targets[i]), got[i], want[i])
	}
}
