package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

// spin keeps the processor busy for about d of CPU time.
func spin(d time.Duration) {
	for start := processCPU(); processCPU()-start < d; {
	}
}

func TestProcessCPUCountsWorkNotSleep(t *testing.T) {
	start := processCPU()
	spin(20 * time.Millisecond)
	busy := processCPU() - start
	if busy < 20*time.Millisecond {
		t.Errorf("20 ms of spinning counted as %v of CPU time", busy)
	}
	start = processCPU()
	time.Sleep(50 * time.Millisecond)
	if idle := processCPU() - start; idle > 25*time.Millisecond {
		t.Errorf("sleeping 50 ms counted as %v of CPU time", idle)
	}
}

// TestClosedLoopScalesByCalibration checks that closedLoop reports each
// operation's CPU time scaled by the median calibration time of its
// block, and counts the operations that fail the gate.
func TestClosedLoopScalesByCalibration(t *testing.T) {
	var tl tally
	fail := errors.New("perturbed reply")
	p := closedLoop(0, 0, 4, &tl, func(i int) (time.Duration, error) {
		spin(2 * time.Millisecond)
		if i == 3 {
			return time.Millisecond, fail
		}
		return time.Millisecond, nil
	})
	if len(p.cpuMS) != 4 || len(p.rawMS) != 4 || len(p.latMS) != 4 || p.ok != 3 {
		t.Fatalf("got %d scaled, %d raw, %d latencies, %d ok; want 4, 4, 4, 3", len(p.cpuMS), len(p.rawMS), len(p.latMS), p.ok)
	}
	if tl.attempted.Load() != 4 || tl.failed.Load() != 1 {
		t.Errorf("tally %d attempted, %d failed; want 4 and 1", tl.attempted.Load(), tl.failed.Load())
	}
	if len(p.calMS) == 0 {
		t.Fatal("no calibration run")
	}
	// Four 2 ms operations fit in one calBlock, so one factor scales all.
	scale := speedFactor(median(p.calMS))
	for i := range p.cpuMS {
		if p.rawMS[i] < 2 {
			t.Errorf("operation %d: raw CPU time %v ms, want at least 2", i, p.rawMS[i])
		}
		if got := p.cpuMS[i] / p.rawMS[i]; math.Abs(got-scale) > 1e-9*scale {
			t.Errorf("operation %d scaled by %v, want %v", i, got, scale)
		}
	}
	if got, want := p.cpuThroughput(), 3/(sum(p.cpuMS)/1000); math.Abs(got-want) > 1e-9*want {
		t.Errorf("cpuThroughput = %v, want %v", got, want)
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
