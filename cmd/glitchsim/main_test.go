package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"glitchsim"
	"glitchsim/internal/registry"
	"glitchsim/netlist"
	"glitchsim/verilog"
)

// selectCircuit resolves a subcommand's circuit flags the way the
// subcommands do: addCircuitFlags, then circuitSelector.build.
func selectCircuit(args ...string) (*netlist.Netlist, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sel := addCircuitFlags(fs, "rca16")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return sel.build(glitchsim.NewEngine())
}

func TestBuildCircuitAllNames(t *testing.T) {
	for _, name := range glitchsim.BuiltinCircuits() {
		n, err := selectCircuit("-circuit", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("%s: invalid netlist: %v", name, err)
		}
		if n.InputWidth() == 0 || n.OutputWidth() == 0 {
			t.Errorf("%s: degenerate interface", name)
		}
	}
}

func TestBuildCircuitUnknown(t *testing.T) {
	_, err := selectCircuit("-circuit", "nope")
	if !errors.Is(err, glitchsim.ErrUnknownCircuit) || !strings.Contains(err.Error(), "available") {
		t.Fatalf("want descriptive unknown-circuit error, got %v", err)
	}
}

// TestCircuitNamesSorted: the -circuit flag's help text lists every
// built-in circuit, sorted.
func TestCircuitNamesSorted(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	addCircuitFlags(fs, "rca16")
	usage := fs.Lookup("circuit").Usage
	list := strings.TrimSuffix(strings.TrimPrefix(usage, "circuit name ("), ")")
	names := strings.Split(list, ", ")
	if len(names) != len(registry.Names()) {
		t.Fatalf("name list incomplete: %q", usage)
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatal("names unsorted")
		}
	}
}

// TestDelayFlag: sim's -dsum/-dcarry flags accept the delay models and
// reject out-of-range delays with an error instead of a panic.
func TestDelayFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-dsum", "2", "-dcarry", "1"},
		{"-dsum", "3", "-dcarry", "3"},
		{"-typical"},
	} {
		args = append([]string{"-circuit", "rca4", "-cycles", "5", "-top", "0"}, args...)
		if err := commands["sim"](glitchsim.NewEngine(), args); err != nil {
			t.Errorf("sim %v: %v", args, err)
		}
	}
	for _, args := range [][]string{
		{"-dsum", "-1"},
		{"-dcarry", "-1"},
		{"-dsum", "2147483648"},
	} {
		args = append([]string{"-circuit", "rca4", "-cycles", "5"}, args...)
		err := commands["sim"](glitchsim.NewEngine(), args)
		if err == nil || !strings.Contains(err.Error(), "delays must lie in") {
			t.Errorf("sim %v: err = %v, want a delay range error", args, err)
		}
	}
}

func TestExperimentCommandsRunQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment commands in -short mode")
	}
	// Exercise each experiment entry point with tiny workloads; output
	// goes to stdout but correctness is the absence of errors.
	cases := map[string][]string{
		"worstcase": {"-n", "3"},
		"fig5":      {"-n", "4", "-cycles", "50", "-chart=false"},
		"table1":    {"-cycles", "20"},
		"table2":    {"-cycles", "20"},
		"dirdet":    {"-cycles", "50"},
		"adders":    {"-width", "8", "-cycles", "30"},
		"corr":      {"-cycles", "200"},
		"sim":       {"-circuit", "rca4", "-cycles", "30"},
		"retime":    {"-circuit", "rca8", "-stages", "1", "-cycles", "30"},
	}
	for name, args := range cases {
		if err := commands[name](glitchsim.NewEngine(), args); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestHazardCircuit(t *testing.T) {
	n, err := selectCircuit("-circuit", "hazard")
	if err != nil {
		t.Fatal(err)
	}
	if n.NumCells() != 2 || n.Name != "hazard" {
		t.Error("hazard circuit wrong")
	}
	if n.NetByName("a") == netlist.NoNet {
		t.Error("input missing")
	}
}

// TestCircuitSelectorFiles: the -verilog and -netlist flags load a
// circuit from disk and resolve to the same structure (fingerprint) as
// the registry build they were exported from.
func TestCircuitSelectorFiles(t *testing.T) {
	n, err := selectCircuit("-circuit", "rca4")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	vPath := filepath.Join(dir, "rca4.v")
	var vb strings.Builder
	if err := verilog.Write(&vb, n); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(vPath, []byte(vb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	jPath := filepath.Join(dir, "rca4.json")
	var jb strings.Builder
	if err := n.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jPath, []byte(jb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	for flagName, path := range map[string]string{"-verilog": vPath, "-netlist": jPath} {
		got, err := selectCircuit(flagName, path)
		if err != nil {
			t.Fatalf("%s: %v", flagName, err)
		}
		if got.Fingerprint() != n.Fingerprint() {
			t.Errorf("%s: fingerprint differs from registry build", flagName)
		}
	}

	// Both files set: a clear error instead of a silent pick.
	if _, err := selectCircuit("-verilog", vPath, "-netlist", jPath); err == nil {
		t.Error("conflicting -verilog/-netlist accepted")
	}

	// The sim subcommand end to end on a file circuit.
	if err := commands["sim"](glitchsim.NewEngine(), []string{"-verilog", vPath, "-cycles", "10"}); err != nil {
		t.Errorf("sim -verilog: %v", err)
	}
}
