package registry

import (
	"math"
	"sort"
	"strings"
	"testing"

	"glitchsim/internal/delay"
	"glitchsim/netlist"
)

// TestBuildAllCircuitsValid: every registered circuit must build into a
// valid netlist with at least one primary input (the simulator's
// stimulus contract) and carry the registry name's rough shape.
func TestBuildAllCircuitsValid(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	for _, name := range names {
		nl, err := Build(name)
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		if nl == nil {
			t.Fatalf("Build(%q): nil netlist", name)
		}
		if err := nl.Validate(); err != nil {
			t.Errorf("Build(%q): invalid netlist: %v", name, err)
		}
		if nl.InputWidth() == 0 {
			t.Errorf("Build(%q): no primary inputs", name)
		}
		if nl.NumCells() == 0 {
			t.Errorf("Build(%q): no cells", name)
		}
	}
}

// TestBuildReturnsFreshInstances: builders must return a new netlist per
// call (the engine's fingerprint cache, not pointer identity, dedups
// compilation), and repeated builds must be structurally identical.
func TestBuildReturnsFreshInstances(t *testing.T) {
	a, err := Build("wallace8")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("wallace8")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("Build returned a shared *Netlist")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("two builds of wallace8 differ structurally")
	}
}

func TestBuildUnknownCircuit(t *testing.T) {
	_, err := Build("nonesuch")
	if err == nil {
		t.Fatal("unknown circuit built")
	}
	// The error must teach the caller the valid names (it is surfaced
	// verbatim by the CLI and the HTTP 400 reply).
	if !strings.Contains(err.Error(), "rca8") || !strings.Contains(err.Error(), "nonesuch") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names not sorted: %v", names)
	}
	if len(names) != len(builders) {
		t.Errorf("Names lists %d of %d builders", len(names), len(builders))
	}
	list := NameList()
	for _, n := range names {
		if !strings.Contains(list, n) {
			t.Errorf("NameList misses %q", n)
		}
	}
}

// TestDelayModelResolution: the shared CLI/service delay-flag mapping.
func TestDelayModelResolution(t *testing.T) {
	fa := &netlist.Cell{Type: netlist.FA, Out: []netlist.NetID{0, 1}}
	inv := &netlist.Cell{Type: netlist.Not, Out: []netlist.NetID{0}}

	model := func(dsum, dcarry int, typical bool) delay.Model {
		t.Helper()
		m, err := DelayModel(dsum, dcarry, typical)
		if err != nil {
			t.Fatalf("(%d,%d,%v): %v", dsum, dcarry, typical, err)
		}
		return m
	}
	if m := model(1, 1, false); m.Name() != delay.Unit().Name() {
		t.Errorf("(1,1,false) resolved to %s, want unit", m.Name())
	}
	if m := model(3, 3, false); m.Delay(inv, 0) != 3 {
		t.Errorf("(3,3) not uniform(3): %d", m.Delay(inv, 0))
	}
	m := model(2, 1, false)
	if m.Delay(fa, netlist.PinSum) != 2 || m.Delay(fa, netlist.PinCarry) != 1 {
		t.Errorf("(2,1) FA delays = (%d,%d), want (2,1)", m.Delay(fa, netlist.PinSum), m.Delay(fa, netlist.PinCarry))
	}
	if m.Delay(inv, 0) != 1 {
		t.Errorf("(2,1) non-adder delay = %d, want 1", m.Delay(inv, 0))
	}
	if m := model(2, 1, true); m.Name() != delay.Typical().Name() {
		t.Errorf("typical flag ignored: %s", m.Name())
	}
	if m := model(0, 0, false); m.Delay(inv, 0) != 0 {
		t.Errorf("(0,0) not zero delay: %d", m.Delay(inv, 0))
	}
	// Out-of-range delays are an error, never a panic, whatever the
	// model they would have selected.
	for _, c := range [][2]int{{-1, 1}, {1, -1}, {-1, -1}, {-2, -2}, {math.MaxInt32 + 1, 1}, {1, math.MaxInt32 + 1}} {
		for _, typical := range []bool{false, true} {
			if m, err := DelayModel(c[0], c[1], typical); err == nil {
				t.Errorf("(%d,%d,%v) accepted as %s", c[0], c[1], typical, m.Name())
			}
		}
	}
}

// TestHazardDemonstrator: the hand-rolled hazard circuit keeps its
// defining property — a single AND of a signal with its own inverse.
func TestHazardDemonstrator(t *testing.T) {
	nl, err := Build("hazard")
	if err != nil {
		t.Fatal(err)
	}
	if nl.InputWidth() != 1 || nl.OutputWidth() != 1 {
		t.Fatalf("hazard is %d-in/%d-out, want 1/1", nl.InputWidth(), nl.OutputWidth())
	}
	counts := nl.CellCounts()
	if counts[netlist.And] != 1 || counts[netlist.Not] != 1 {
		t.Errorf("hazard cells = %v, want one and + one not", counts)
	}
}
