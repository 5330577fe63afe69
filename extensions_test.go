package glitchsim

import (
	"context"
	"strings"
	"testing"
)

func TestBalanceStudy(t *testing.T) {
	e, ctx := NewEngine(), context.Background()
	rows, err := e.BalanceStudy(ctx, ExperimentRequest{Cycles: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 circuits, got %d", len(rows))
	}
	for _, r := range rows {
		if r.After.Useless != 0 {
			t.Errorf("%s: balanced circuit still has %d useless transitions", r.Circuit, r.After.Useless)
		}
		if r.Buffers == 0 {
			t.Errorf("%s: no buffers inserted", r.Circuit)
		}
		// The paper's claim, measured: original cells' activity falls by
		// 1 + L/F (within sampling noise between the two runs).
		if rel := r.CoreFactor/r.PredictedFactor - 1; rel < -0.05 || rel > 0.05 {
			t.Errorf("%s: core reduction %.2f deviates from predicted limit %.2f",
				r.Circuit, r.CoreFactor, r.PredictedFactor)
		}
		if r.CoreTransitions+r.BufferTransitions != r.After.Transitions {
			t.Errorf("%s: core+buffer transitions don't add up", r.Circuit)
		}
	}
}

func TestAdderStudy(t *testing.T) {
	e, ctx := NewEngine(), context.Background()
	rows, err := e.AdderStudy(ctx, ExperimentRequest{Width: 16, Cycles: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 architectures, got %d", len(rows))
	}
	get := func(arch string) AdderRow {
		for _, r := range rows {
			if r.Arch == arch {
				return r
			}
		}
		t.Fatalf("missing %s", arch)
		return AdderRow{}
	}
	rca, cla := get("ripple-carry"), get("carry-lookahead")
	if cla.Depth >= rca.Depth {
		t.Error("CLA must be shallower than RCA")
	}
	if cla.LOverF() >= rca.LOverF() {
		t.Errorf("CLA L/F %.2f not below RCA %.2f — balanced carry trees must glitch less",
			cla.LOverF(), rca.LOverF())
	}
	csel := get("carry-select")
	if csel.Depth >= rca.Depth {
		t.Error("carry-select must be shallower than RCA")
	}
}

func TestCorrelationStudy(t *testing.T) {
	e, ctx := NewEngine(), context.Background()
	rows, err := e.CorrelationStudy(ctx, ExperimentRequest{Cycles: 3000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].Stage != "video inputs" {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	in, diff := rows[0].LowBitAutocorr, rows[1].LowBitAutocorr
	if in < 0.1 {
		t.Fatalf("inputs not correlated: %v", in)
	}
	if diff > in/2 {
		t.Errorf("correlation after |a-b| = %.3f, not well below inputs %.3f", diff, in)
	}
}

func TestMultiplierStudy(t *testing.T) {
	e, ctx := NewEngine(), context.Background()
	rows, err := e.MultiplierStudy(ctx, ExperimentRequest{Width: 8, Cycles: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 architectures, got %d", len(rows))
	}
	byArch := map[string]AdderRow{}
	for _, r := range rows {
		byArch[r.Arch] = r
		if r.Useful == 0 || r.Useless == 0 {
			t.Errorf("%s: degenerate activity %+v", r.Arch, r.Activity)
		}
	}
	// The balanced wallace tree glitches the least; both the ripple
	// array and the booth multiplier (whose gate-level recode/select
	// trees skew the partial-product arrival times) sit well above it.
	if byArch["array"].LOverF() <= byArch["wallace"].LOverF() {
		t.Error("array must out-glitch wallace")
	}
	if byArch["booth"].LOverF() <= byArch["wallace"].LOverF() {
		t.Error("booth's recode logic must out-glitch the wallace tree")
	}
	if byArch["booth"].Cells <= byArch["wallace"].Cells {
		t.Error("booth should spend more cells (select logic) than wallace")
	}
}

func TestCompareEstimators(t *testing.T) {
	e, ctx := NewEngine(), context.Background()
	res, err := e.CompareEstimators(ctx, ExperimentRequest{Width: 16, Cycles: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Ordering: zero-delay ≈ useful < density < measured total... the
	// density estimate may over- or undershoot the truth globally, but
	// must exceed the glitch-blind estimate.
	if res.ZeroDelay >= res.Density {
		t.Errorf("density %v should exceed zero-delay %v", res.Density, res.ZeroDelay)
	}
	if res.ZeroDelay >= res.Measured {
		t.Errorf("zero-delay %v should undershoot measured %v", res.ZeroDelay, res.Measured)
	}
	if rel := res.ZeroDelay/res.MeasuredUseful - 1; rel < -0.05 || rel > 0.05 {
		t.Errorf("zero-delay %v should track useful %v", res.ZeroDelay, res.MeasuredUseful)
	}
}

func TestBalanceNetlistHelper(t *testing.T) {
	e, ctx := NewEngine(), context.Background()
	n := NewRCA(8)
	bal, buffers, err := BalanceNetlist(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if buffers == 0 {
		t.Error("expected buffers")
	}
	act, err := e.MeasureCircuit(ctx, CircuitFromNetlist(bal), Config{Cycles: 200})
	if err != nil {
		t.Fatal(err)
	}
	if act.Useless != 0 {
		t.Errorf("balanced RCA has %d useless transitions", act.Useless)
	}
}

func TestVerilogExportImport(t *testing.T) {
	e, ctx := NewEngine(), context.Background()
	n := NewRCA(4)
	var sb strings.Builder
	if err := ExportVerilog(&sb, n); err != nil {
		t.Fatal(err)
	}
	back, err := ImportVerilog(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumCells() != n.NumCells() {
		t.Errorf("cells %d -> %d", n.NumCells(), back.NumCells())
	}
	a1, err := e.MeasureCircuit(ctx, CircuitFromNetlist(n), Config{Cycles: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.MeasureCircuit(ctx, CircuitFromNetlist(back), Config{Cycles: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Same structure, same stimulus => identical activity totals.
	if a1.Transitions != a2.Transitions || a1.Useless != a2.Useless {
		t.Errorf("activity changed through Verilog: %v vs %v", a1, a2)
	}
}

func TestNewAdderConstructors(t *testing.T) {
	if NewCLA(16).Name != "cla16g" {
		t.Error("cla name")
	}
	if NewCarrySelect(16, 4).Name != "csel16g" {
		t.Error("csel name")
	}
	if s := Summary(Activity{Circuit: "x", Useful: 2, Useless: 4}); !strings.Contains(s, "L/F=2.00") {
		t.Errorf("summary %q", s)
	}
}
