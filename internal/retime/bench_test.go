package retime

import (
	"testing"

	"glitchsim/internal/delay"
	"glitchsim/internal/registry"
)

// BenchmarkRetimePaperSweep retimes the input-registered direction
// detector for every Table 3 and Figure 10 target under unit delay: one
// op is the retiming work of one paper pass.
func BenchmarkRetimePaperSweep(b *testing.B) {
	n, err := registry.Build("dirdet8r")
	if err != nil {
		b.Fatal(err)
	}
	targets, maxLatency := sweepTargets(n, delay.Unit())
	b.ReportAllocs()
	for b.Loop() {
		for i, tgt := range targets {
			if _, err := ForPeriod(n, delay.Unit(), tgt, maxLatency[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
