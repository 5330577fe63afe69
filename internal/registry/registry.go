// Package registry names the built-in benchmark circuits, so the CLI
// and the HTTP service resolve the same circuit identifiers to the same
// generators. Builders return a fresh netlist per call; the Engine's
// fingerprint-keyed cache makes repeated builds of the same circuit
// share one compiled form.
package registry

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"glitchsim/internal/circuits"
	"glitchsim/internal/delay"
	"glitchsim/netlist"
)

// builders maps circuit names to generators.
var builders = map[string]func() *netlist.Netlist{
	"rca4":      func() *netlist.Netlist { return circuits.NewRCA(4, circuits.Cells) },
	"rca8":      func() *netlist.Netlist { return circuits.NewRCA(8, circuits.Cells) },
	"rca16":     func() *netlist.Netlist { return circuits.NewRCA(16, circuits.Cells) },
	"rca16g":    func() *netlist.Netlist { return circuits.NewRCA(16, circuits.Gates) },
	"array8":    func() *netlist.Netlist { return circuits.NewArrayMultiplier(8, circuits.Cells) },
	"array16":   func() *netlist.Netlist { return circuits.NewArrayMultiplier(16, circuits.Cells) },
	"wallace8":  func() *netlist.Netlist { return circuits.NewWallaceMultiplier(8, circuits.Cells) },
	"wallace16": func() *netlist.Netlist { return circuits.NewWallaceMultiplier(16, circuits.Cells) },
	"dirdet8": func() *netlist.Netlist {
		return circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 8, Style: circuits.Cells})
	},
	"dirdet8r": func() *netlist.Netlist {
		return circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 8, Style: circuits.Cells, RegisterInputs: true})
	},
	"dirdet8g": func() *netlist.Netlist {
		return circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 8, Style: circuits.Gates})
	},
	"booth8":  func() *netlist.Netlist { return circuits.NewBoothMultiplier(8, circuits.Cells) },
	"booth16": func() *netlist.Netlist { return circuits.NewBoothMultiplier(16, circuits.Cells) },
	"cskip16": func() *netlist.Netlist { return circuits.NewCarrySkip(16, 4, circuits.Gates) },
	"cla16":   func() *netlist.Netlist { return circuits.NewCLA(16) },
	"csel16":  func() *netlist.Netlist { return circuits.NewCarrySelect(16, 4, circuits.Gates) },
	"hazard":  newHazard,

	// Sequential subjects: a pipelined 8×8 array multiplier (register
	// bank every two adder rows), a 16-bit accumulator and its
	// clock-gated variant.
	"pipemult8": func() *netlist.Netlist { return circuits.NewPipelinedMultiplier(8, 2, circuits.Cells) },
	"accum16":   func() *netlist.Netlist { return circuits.NewAccumulator(16, false) },
	"accum16cg": func() *netlist.Netlist { return circuits.NewAccumulator(16, true) },
}

// newHazard is the two-gate static-hazard demonstrator (a AND NOT a),
// the classic single-glitch circuit for waveform dumps.
func newHazard() *netlist.Netlist {
	b := netlist.NewBuilder("hazard")
	a := b.Input("a")
	out := b.And(a, b.Not(a))
	b.Output("out", out)
	return b.MustBuild()
}

// Names returns the sorted circuit names.
func Names() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NameList returns the circuit names as one comma-separated string, for
// flag help text and error messages.
func NameList() string { return strings.Join(Names(), ", ") }

// Build returns a fresh netlist for the named circuit.
func Build(name string) (*netlist.Netlist, error) {
	f, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("unknown circuit %q (available: %s)", name, NameList())
	}
	return f(), nil
}

// DelayModel resolves the (dsum, dcarry, typical) delay parameters the
// CLI flags and service requests share: the heterogeneous typical model,
// a full-adder sum/carry ratio, a uniform delay, or unit delay. Delays
// outside [0, MaxInt32] are rejected: the delay package panics on a
// negative delay and the simulator on one that overflows its int32
// timeline, and both are user input here.
func DelayModel(dsum, dcarry int, typical bool) (delay.Model, error) {
	if dsum < 0 || dcarry < 0 || dsum > math.MaxInt32 || dcarry > math.MaxInt32 {
		return nil, fmt.Errorf("delays must lie in [0, %d], got dsum=%d dcarry=%d", math.MaxInt32, dsum, dcarry)
	}
	if typical {
		return delay.Typical(), nil
	}
	if dsum != dcarry {
		return delay.FullAdderRatio(dsum, dcarry), nil
	}
	if dsum != 1 {
		return delay.Uniform(dsum), nil
	}
	return delay.Unit(), nil
}
