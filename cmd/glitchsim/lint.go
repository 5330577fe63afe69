package main

import (
	"flag"
	"fmt"

	"glitchsim"
	"glitchsim/netlist"
)

// cmdLint runs the netlist lint pass over a circuit and reports its
// findings: warnings (floating inputs, undriven nets, dead cells,
// combinational loops) first, then the structure profile infos (fanout,
// reconvergent fanout, register feedback). The exit status is nonzero
// when any warning-severity finding is present, so the subcommand works
// as a CI gate over exported designs.
func cmdLint(engine *glitchsim.Engine, args []string) error {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	sel := addCircuitFlags(fs, "rca8")
	quiet := fs.Bool("quiet", false, "report warnings only, suppress info findings")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n, err := sel.build(engine)
	if err != nil {
		return err
	}
	findings := n.Lint()
	shown := findings
	if *quiet {
		shown = shown[:0:0]
		for _, f := range findings {
			if f.Severity == netlist.SeverityWarning {
				shown = append(shown, f)
			}
		}
	}
	if jsonOut() {
		if err := emitJSON(struct {
			Circuit  string            `json:"circuit"`
			Findings []netlist.Finding `json:"findings"`
		}{Circuit: n.Name, Findings: shown}); err != nil {
			return err
		}
	} else {
		if len(shown) == 0 {
			fmt.Printf("%s: clean\n", n.Name)
		}
		for _, f := range shown {
			fmt.Printf("%s: %v\n", n.Name, f)
		}
	}
	warnings := 0
	for _, f := range findings {
		if f.Severity == netlist.SeverityWarning {
			warnings++
		}
	}
	if warnings > 0 {
		return fmt.Errorf("%d warning(s)", warnings)
	}
	return nil
}
