package netlist

import (
	"strings"
	"testing"

	"glitchsim/internal/logic"
)

// buildXorFA builds a gate-level full adder: s = a^b^cin, co = maj(a,b,cin)
// decomposed into 2-input gates.
func buildXorFA(t *testing.T) (*Netlist, []NetID) {
	t.Helper()
	b := NewBuilder("fa_gates")
	a := b.Input("a")
	bb := b.Input("b")
	cin := b.Input("cin")
	axb := b.Xor(a, bb)
	s := b.Xor(axb, cin)
	co := b.Or(b.And(a, bb), b.And(axb, cin))
	b.Output("s", s)
	b.Output("co", co)
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return n, []NetID{s, co}
}

func TestBuilderBasics(t *testing.T) {
	n, outs := buildXorFA(t)
	if n.NumCells() != 5 {
		t.Errorf("cells = %d, want 5", n.NumCells())
	}
	if n.InputWidth() != 3 || n.OutputWidth() != 2 {
		t.Errorf("io = %d/%d, want 3/2", n.InputWidth(), n.OutputWidth())
	}
	if n.NetByName("a") == NoNet || n.NetByName("nope") != NoNet {
		t.Error("NetByName lookup wrong")
	}
	if len(n.InternalNets()) != n.NumNets()-3 {
		t.Error("InternalNets should exclude the 3 PIs")
	}
	for _, o := range outs {
		if n.Net(o).IsPrimaryInput() {
			t.Error("output net claims to be PI")
		}
	}
}

func TestCellTypeMeta(t *testing.T) {
	if FA.Outputs() != 2 || Not.Outputs() != 1 {
		t.Error("Outputs wrong")
	}
	min, max := And.InputRange()
	if min != 2 || max != -1 {
		t.Error("And range wrong")
	}
	if !DFF.Sequential() || FA.Sequential() {
		t.Error("Sequential wrong")
	}
	if And.String() != "and" || DFF.String() != "dff" {
		t.Error("String wrong")
	}
	if !strings.Contains(CellType(200).String(), "200") {
		t.Error("unknown type String wrong")
	}
}

func TestEvalFullAdderExhaustive(t *testing.T) {
	n, outs := buildXorFA(t)
	vals := make([]logic.V, n.NumNets())
	for u := uint64(0); u < 8; u++ {
		vals[n.NetByName("a")] = logic.FromBit(u)
		vals[n.NetByName("b")] = logic.FromBit(u >> 1)
		vals[n.NetByName("cin")] = logic.FromBit(u >> 2)
		n.EvalOutputs(vals)
		total := (u & 1) + (u >> 1 & 1) + (u >> 2 & 1)
		if vals[outs[0]].Bit() != total&1 {
			t.Errorf("inputs %03b: sum = %v", u, vals[outs[0]])
		}
		if vals[outs[1]].Bit() != total>>1 {
			t.Errorf("inputs %03b: cout = %v", u, vals[outs[1]])
		}
	}
}

func TestEvalCompoundCells(t *testing.T) {
	b := NewBuilder("compound")
	x := b.Input("x")
	y := b.Input("y")
	z := b.Input("z")
	s, co := b.FullAdder(x, y, z)
	hs, hc := b.HalfAdder(x, y)
	m := b.Mux(x, y, z)
	mj := b.Maj(x, y, z)
	b.Output("s", s)
	b.Output("co", co)
	b.Output("hs", hs)
	b.Output("hc", hc)
	b.Output("m", m)
	b.Output("mj", mj)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]logic.V, n.NumNets())
	for u := uint64(0); u < 8; u++ {
		xb, yb, zb := u&1, u>>1&1, u>>2&1
		vals[x], vals[y], vals[z] = logic.FromBit(xb), logic.FromBit(yb), logic.FromBit(zb)
		n.EvalOutputs(vals)
		if vals[s].Bit() != (xb+yb+zb)&1 || vals[co].Bit() != (xb+yb+zb)>>1 {
			t.Errorf("FA(%d%d%d) wrong", xb, yb, zb)
		}
		if vals[hs].Bit() != (xb+yb)&1 || vals[hc].Bit() != (xb+yb)>>1 {
			t.Errorf("HA(%d%d) wrong", xb, yb)
		}
		wantM := xb
		if zb == 1 {
			wantM = yb
		}
		if vals[m].Bit() != wantM {
			t.Errorf("Mux(%d,%d,%d) = %v, want %d", xb, yb, zb, vals[m], wantM)
		}
		if vals[mj].Bit() != map[bool]uint64{true: 1, false: 0}[xb+yb+zb >= 2] {
			t.Errorf("Maj wrong")
		}
	}
}

func TestEvalAllGateTypes(t *testing.T) {
	b := NewBuilder("gates")
	x := b.Input("x")
	y := b.Input("y")
	outs := map[string]NetID{
		"c0":   b.Const(0),
		"c1":   b.Const(1),
		"buf":  b.Buf(x),
		"not":  b.Not(x),
		"and":  b.And(x, y),
		"nand": b.Nand(x, y),
		"or":   b.Or(x, y),
		"nor":  b.Nor(x, y),
		"xor":  b.Xor(x, y),
		"xnor": b.Xnor(x, y),
	}
	for name, id := range outs {
		b.Output(name, id)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]logic.V, n.NumNets())
	for u := uint64(0); u < 4; u++ {
		xb, yb := u&1 == 1, u>>1&1 == 1
		vals[x], vals[y] = logic.FromBool(xb), logic.FromBool(yb)
		n.EvalOutputs(vals)
		want := map[string]bool{
			"c0": false, "c1": true, "buf": xb, "not": !xb,
			"and": xb && yb, "nand": !(xb && yb), "or": xb || yb,
			"nor": !(xb || yb), "xor": xb != yb, "xnor": xb == yb,
		}
		for name, id := range outs {
			if vals[id] != logic.FromBool(want[name]) {
				t.Errorf("inputs %v %v: %s = %v, want %v", xb, yb, name, vals[id], want[name])
			}
		}
	}
}

func TestBusHelpers(t *testing.T) {
	b := NewBuilder("bus")
	a := b.InputBus("a", 4)
	if len(a) != 4 {
		t.Fatal("bus width")
	}
	inv := make([]NetID, 4)
	for i, id := range a {
		inv[i] = b.Not(id)
	}
	b.NameBus("inv", inv)
	b.OutputBus("out", inv)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Bus("a")) != 4 || len(n.Bus("inv")) != 4 || len(n.Bus("out")) != 4 {
		t.Error("bus registration wrong")
	}
	if n.NetByName("a[2]") == NoNet {
		t.Error("bus bit naming wrong")
	}
	if n.Bus("missing") != nil {
		t.Error("missing bus should be nil")
	}
}

func TestDFFHelpers(t *testing.T) {
	b := NewBuilder("regs")
	d := b.Input("d")
	q1 := b.DFF(d)
	q3 := b.DFFChain(d, 3)
	same := b.DFFChain(d, 0)
	bus := b.RegisterBus([]NetID{d, q1})
	b.Output("q1", q1)
	b.Output("q3", q3)
	b.OutputBus("rb", bus)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if same != d {
		t.Error("DFFChain(0) should return input")
	}
	if n.NumDFFs() != 6 {
		t.Errorf("NumDFFs = %d, want 6", n.NumDFFs())
	}
	if n.NumCombinationalCells() != 0 {
		t.Error("no combinational cells expected")
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	b := NewBuilder("cyclic")
	x := b.Input("x")
	// Build a, then patch a's input to form a combinational loop a->o->a.
	a := b.AddCell(And, "a", x, x)
	o := b.AddCell(Or, "o", a[0], x)
	// Manually rewire: a reads o.
	nl := b.n
	nl.Cells[0].In[1] = o[0]
	nl.Nets[o[0]].Sinks = append(nl.Nets[o[0]].Sinks, Pin{Cell: 0, Port: 1})
	// Remove stale sink record of x at (cell 0, port 1).
	sinks := nl.Nets[x].Sinks[:0]
	for _, s := range nl.Nets[x].Sinks {
		if !(s.Cell == 0 && s.Port == 1) {
			sinks = append(sinks, s)
		}
	}
	nl.Nets[x].Sinks = sinks
	err := nl.Validate()
	if err == nil || !strings.Contains(err.Error(), "combinational cycle") {
		t.Fatalf("expected cycle error, got %v", err)
	}
}

func TestSequentialLoopIsLegal(t *testing.T) {
	// A DFF in the loop makes it sequential: q = DFF(not q). Legal.
	b := NewBuilder("toggle")
	// Bootstrap: create DFF first with a placeholder input then rewire.
	x := b.Input("seed")
	nq := b.AddCell(Not, "inv", x)
	q := b.DFF(nq[0])
	nl := b.n
	// Rewire inverter to read q instead of seed.
	nl.Cells[0].In[0] = q
	nl.Nets[q].Sinks = append(nl.Nets[q].Sinks, Pin{Cell: 0, Port: 0})
	nl.Nets[x].Sinks = nil
	b.Output("q", q)
	n, err := b.Build()
	if err != nil {
		t.Fatalf("sequential loop rejected: %v", err)
	}
	if n.NumDFFs() != 1 {
		t.Fatal("dff count")
	}
}

func TestValidateCatchesUndrivenNet(t *testing.T) {
	b := NewBuilder("undriven")
	x := b.Input("x")
	floating := b.newNet("floating")
	b.AddCell(And, "", x, floating)
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "no driver") {
		t.Fatalf("expected undriven error, got %v", err)
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := map[string]func(b *Builder){
		"bad pin count": func(b *Builder) { b.AddCell(And, "", b.Input("x")) },
		"dup net":       func(b *Builder) { b.Input("x"); b.Input("x") },
		"foreign net":   func(b *Builder) { b.Not(NetID(99)) },
		"after build": func(b *Builder) {
			b.Input("x")
			if _, err := b.Build(); err != nil {
				panic(err)
			}
			b.Input("y")
		},
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f(NewBuilder("p"))
		}()
	}
}

func TestTopoOrderProperty(t *testing.T) {
	n, _ := buildXorFA(t)
	order := n.TopoOrder()
	if len(order) != n.NumCells() {
		t.Fatalf("order has %d cells, want %d", len(order), n.NumCells())
	}
	pos := make(map[CellID]int)
	for i, cid := range order {
		pos[cid] = i
	}
	for i := range n.Cells {
		c := &n.Cells[i]
		if c.Type == DFF {
			continue
		}
		for _, in := range c.In {
			d := n.Nets[in].Driver
			if d != NoCell && n.Cells[d].Type != DFF && pos[d] > pos[c.ID] {
				t.Errorf("cell %d before its fanin %d", c.ID, d)
			}
		}
	}
}

func TestArrivalTimesAndDepth(t *testing.T) {
	n, outs := buildXorFA(t)
	at := n.ArrivalTimes(func(*Cell, int) int { return 1 })
	// s = xor(xor(a,b),cin): depth 2. co = or(and, and(xor)): depth 3.
	if at[outs[0]] != 2 {
		t.Errorf("sum arrival = %d, want 2", at[outs[0]])
	}
	if at[outs[1]] != 3 {
		t.Errorf("cout arrival = %d, want 3", at[outs[1]])
	}
	if n.LogicDepth() != 3 {
		t.Errorf("depth = %d, want 3", n.LogicDepth())
	}
	// Weighted delays: xor twice as slow.
	cp := n.CriticalPathLength(func(c *Cell, _ int) int {
		if c.Type == Xor {
			return 2
		}
		return 1
	})
	// co path: xor(2) -> and(1) -> or(1) = 4; s path: xor+xor = 4.
	if cp != 4 {
		t.Errorf("weighted CP = %d, want 4", cp)
	}
}

func TestDFFCutsTiming(t *testing.T) {
	b := NewBuilder("cut")
	x := b.Input("x")
	y := b.Not(x)
	q := b.DFF(y)
	z := b.Not(q)
	b.Output("z", z)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if n.LogicDepth() != 1 {
		t.Errorf("depth = %d, want 1 (DFF must cut path)", n.LogicDepth())
	}
}

func TestWriteDOT(t *testing.T) {
	n, _ := buildXorFA(t)
	var sb strings.Builder
	if err := n.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	for _, want := range []string{"digraph", "PI:a", "PO:", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestSummary(t *testing.T) {
	n, _ := buildXorFA(t)
	s := n.Summary()
	for _, want := range []string{"fa_gates", "5 cells", "xor", "depth 3"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q in %q", want, s)
		}
	}
}

func TestCellCounts(t *testing.T) {
	n, _ := buildXorFA(t)
	c := n.CellCounts()
	if c[Xor] != 2 || c[And] != 2 || c[Or] != 1 {
		t.Errorf("counts wrong: %v", c)
	}
}

// TestBuilderRewire: rewiring a pin removes exactly that pin from the old
// net, keeping the other sinks in order, and appends it to the new net.
func TestBuilderRewire(t *testing.T) {
	sinksOf := func(b *Builder, id NetID) []Pin { return b.n.Nets[id].Sinks }
	same := func(t *testing.T, what string, got, want []Pin) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: sinks %v, want %v", what, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sinks %v, want %v", what, got, want)
			}
		}
	}
	// x feeds cell 0 port 0, cell 1 ports 0 and 1, and cell 2 port 1.
	setup := func() (b *Builder, x, y NetID) {
		b = NewBuilder("rewire")
		x, y = b.Input("x"), b.Input("y")
		b.Not(x)
		b.And(x, x)
		b.Or(y, x)
		return b, x, y
	}

	t.Run("middle", func(t *testing.T) {
		b, x, y := setup()
		b.Rewire(1, 1, y)
		same(t, "old net", sinksOf(b, x), []Pin{{0, 0}, {1, 0}, {2, 1}})
		same(t, "new net", sinksOf(b, y), []Pin{{2, 0}, {1, 1}})
		if got := b.n.Cells[1].In[1]; got != y {
			t.Fatalf("cell 1 port 1 reads net %d, want %d", got, y)
		}
	})
	t.Run("head", func(t *testing.T) {
		b, x, y := setup()
		b.Rewire(0, 0, y)
		same(t, "old net", sinksOf(b, x), []Pin{{1, 0}, {1, 1}, {2, 1}})
		same(t, "new net", sinksOf(b, y), []Pin{{2, 0}, {0, 0}})
	})
	t.Run("same net", func(t *testing.T) {
		b, x, y := setup()
		b.Rewire(2, 1, x)
		same(t, "old net", sinksOf(b, x), []Pin{{0, 0}, {1, 0}, {1, 1}, {2, 1}})
		same(t, "other net", sinksOf(b, y), []Pin{{2, 0}})
	})
}
