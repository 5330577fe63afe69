package sim_test

// Cross-kernel equivalence: the calendar scheduler must produce
// bit-identical simulation results to the reference binary heap — same
// per-net activity statistics (transition, useful/useless, glitch and
// rising counts), same settled values, same settle times — on every
// built-in circuit, under transport and inertial modes, several delay
// models and several stimulus seeds. This is the test that licenses the
// O(1) scheduler to replace the heap on the hot path.

import (
	"fmt"
	"testing"

	"glitchsim/internal/circuits"
	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

// kernelRun simulates cycles of random stimulus and returns the counter
// plus the final settled net values and last settle time.
func kernelRun(t *testing.T, n *netlist.Netlist, opts sim.Options, seed uint64, cycles int) (*core.Counter, []int, int) {
	t.Helper()
	s := sim.New(n, opts)
	counter := core.NewCounter(n)
	s.AttachMonitor(counter)
	src := stimulus.NewRandom(n.InputWidth(), seed)
	for i := 0; i < cycles; i++ {
		if err := s.Step(src.Next()); err != nil {
			t.Fatal(err)
		}
	}
	vals := make([]int, n.NumNets())
	for i := range vals {
		vals[i] = int(s.Value(netlist.NetID(i)))
	}
	return counter, vals, s.SettleTime()
}

func TestKernelEquivalence(t *testing.T) {
	builds := []struct {
		name  string
		build func() *netlist.Netlist
	}{
		{"rca8-cells", func() *netlist.Netlist { return circuits.NewRCA(8, circuits.Cells) }},
		{"rca8-gates", func() *netlist.Netlist { return circuits.NewRCA(8, circuits.Gates) }},
		{"array8", func() *netlist.Netlist { return circuits.NewArrayMultiplier(8, circuits.Cells) }},
		{"wallace8", func() *netlist.Netlist { return circuits.NewWallaceMultiplier(8, circuits.Cells) }},
		{"dirdet8", func() *netlist.Netlist {
			return circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 8, Style: circuits.Cells})
		}},
		{"dirdet8-reg", func() *netlist.Netlist {
			return circuits.NewDirectionDetector(circuits.DirDetConfig{
				Width: 8, Style: circuits.Cells, RegisterInputs: true,
			})
		}},
	}
	models := []delay.Model{
		delay.Unit(),               // uniform
		delay.Zero(),               // uniform zero delay: coalescing path
		delay.Uniform(3),           // uniform, wider ring
		delay.FullAdderRatio(2, 1), // mixed
		delay.Typical(),            // heterogeneous incl. 0-delay constants: coalescing
	}
	modes := []sim.Mode{sim.Transport, sim.Inertial}
	seeds := []uint64{1, 2, 99}

	const cycles = 40
	for _, b := range builds {
		nl := b.build()
		for _, dm := range models {
			for _, mode := range modes {
				for _, seed := range seeds {
					name := fmt.Sprintf("%s/%s/%v/seed%d", b.name, dm.Name(), mode, seed)
					// Every model here fits the calendar window, so
					// SchedulerAuto runs the calendar queue.
					ref, refVals, refSettle := kernelRun(t, nl,
						sim.Options{Delay: dm, Mode: mode, Scheduler: sim.SchedulerHeap}, seed, cycles)
					cal, calVals, calSettle := kernelRun(t, nl,
						sim.Options{Delay: dm, Mode: mode}, seed, cycles)

					if calSettle != refSettle {
						t.Fatalf("%s: settle times heap=%d calendar=%d", name, refSettle, calSettle)
					}
					for i := range refVals {
						if calVals[i] != refVals[i] {
							t.Fatalf("%s: net %s values heap=%d calendar=%d",
								name, nl.Nets[i].Name, refVals[i], calVals[i])
						}
					}
					for i := 0; i < nl.NumNets(); i++ {
						id := netlist.NetID(i)
						if got, want := cal.Stats(id), ref.Stats(id); got != want {
							t.Fatalf("%s: net %s stats differ (calendar scheduler)\nheap: %+v\ncal:  %+v",
								name, nl.Nets[i].Name, want, got)
						}
					}
				}
			}
		}
	}
}

// TestKernelEquivalenceHugeDelays forces the auto scheduler onto its
// heap fallback (per-hop delay beyond the calendar window cap) and
// checks the explicitly grown calendar still matches.
func TestKernelEquivalenceHugeDelays(t *testing.T) {
	nl := circuits.NewRCA(6, circuits.Cells)
	dm := delay.Func{F: func(c *netlist.Cell, pin int) int {
		if c.Type == netlist.FA && pin == netlist.PinSum {
			return 6000 // beyond the auto calendar window cap
		}
		return 7
	}, N: "huge"}
	opts := func(sched sim.Scheduler) sim.Options {
		return sim.Options{Delay: dm, Scheduler: sched, MaxTimePerCycle: 1 << 20}
	}
	ref, refVals, _ := kernelRun(t, nl, opts(sim.SchedulerHeap), 5, 25)
	auto, autoVals, _ := kernelRun(t, nl, opts(sim.SchedulerAuto), 5, 25)
	cal, calVals, _ := kernelRun(t, nl, opts(sim.SchedulerCalendar), 5, 25)
	for i := range refVals {
		if autoVals[i] != refVals[i] || calVals[i] != refVals[i] {
			t.Fatalf("net %d: values heap=%d auto=%d calendar=%d",
				i, refVals[i], autoVals[i], calVals[i])
		}
	}
	for i := 0; i < nl.NumNets(); i++ {
		id := netlist.NetID(i)
		if auto.Stats(id) != ref.Stats(id) || cal.Stats(id) != ref.Stats(id) {
			t.Fatalf("net %d: stats differ across kernels", i)
		}
	}
}
