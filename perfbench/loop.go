package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// tally counts the checked operations of a run: every reply, job and
// direct call whose result the gate compared. The first few failures
// are reported on standard error.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

const reportedFailures = 5

func (t *tally) note(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	if n := t.failed.Add(1); n <= reportedFailures {
		fmt.Fprintf(os.Stderr, "perfbench: failed: %v\n", err)
	}
}

// Linux's CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}

// processCPU returns the CPU time every thread of this process has used
// so far, as the kernel's scheduler accounts it. Time the processor
// spends on other processes is not in it and, on a virtual machine whose
// kernel accounts steal time (Linux with CONFIG_PARAVIRT_TIME_ACCOUNTING),
// neither is time the host gives to other guests.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// A shared host runs the same instructions faster or slower for spells
// of seconds to many minutes: on a 2-core Xeon guest the CPU time of a
// paper pass was 66 ms in one spell and 130 ms in another. The
// benchmark therefore times a fixed, benchmark-owned calibration loop
// beside the workload and scales every CPU time it reports to the host
// speed at which that loop takes calRefMS. Nothing in the repository's
// own code runs in the loop, so no change to the program moves it.
const (
	// calRefMS is the reference CPU time of one calibration loop.
	calRefMS = 1.0
	// calExponent is how much harder a slow spell hits the workloads
	// than the loop: between spells, a workload's CPU time went as the
	// loop's to the power 1.2 to 1.5 on measure-small, 1.4 on
	// jobs-checkpointed and 1.8 to 1.9 on paper-repro. Within one spell
	// the two moved in proportion. A CPU time t measured while the loop
	// takes c is reported as t·(calRefMS/c)^calExponent.
	calExponent = 1.5
	// calIters sizes the loop to about calRefMS on a 2-core Xeon guest.
	calIters = 140_000
	// calEvery is how often a phase runs the calibration loop, between
	// two operations.
	calEvery = 100 * time.Millisecond
	// calBlock is the span of operations one speed estimate, the
	// median of its calibration runs, applies to.
	calBlock = time.Second
)

// calTable is the calibration loop's working set: 256 KiB, which stays
// in a core's private cache.
const calTableLen = 1 << 15

var (
	calTable [calTableLen]uint64
	calSink  uint64
)

// calibrate runs the calibration loop once and returns its CPU time in
// ms: xorshift64 addresses into calTable with a data-dependent branch,
// so it is bound by the core's clock and not by memory. It runs on a
// locked thread and reads that thread's clock, so work other
// goroutines do meanwhile, such as a finished job's last store write,
// is not in its time.
func calibrate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := cpuClock(clockThreadCPUTimeID)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < calIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calTableLen - 1)
		calTable[j] += x
		if calTable[j]&1 == 0 {
			calSink += calTable[(j*7)&(calTableLen-1)]
		}
	}
	return ms(cpuClock(clockThreadCPUTimeID) - start)
}

// speedFactor scales a CPU time measured while the calibration loop
// takes calMS to the reference host speed.
func speedFactor(calMS float64) float64 { return math.Pow(calRefMS/calMS, calExponent) }

// hostSpeed returns the factor that scales a CPU time measured now to
// the reference host speed, from the median of a few calibration runs.
func hostSpeed() float64 {
	cal := make([]float64, 5)
	for i := range cal {
		cal[i] = calibrate()
	}
	return speedFactor(median(cal))
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	latMS   []float64 // wall-clock latency of every operation, ms
	cpuMS   []float64 // CPU time of every operation at the reference host speed, ms
	rawMS   []float64 // CPU time of every operation as measured, ms
	calMS   []float64 // CPU time of every calibration run, ms
	ok      int       // operations that passed the gate
	elapsed time.Duration
}

// join pools two phases.
func (p phase) join(q phase) phase {
	return phase{
		latMS: append(p.latMS, q.latMS...), cpuMS: append(p.cpuMS, q.cpuMS...),
		rawMS: append(p.rawMS, q.rawMS...), calMS: append(p.calMS, q.calMS...),
		ok: p.ok + q.ok, elapsed: p.elapsed + q.elapsed,
	}
}

// throughput is the rate of operations that passed the gate per second
// of wall-clock time.
func (p phase) throughput() float64 { return float64(p.ok) / p.elapsed.Seconds() }

// cpuThroughput is the rate of operations that passed the gate per
// second of the process's CPU time at the reference host speed.
func (p phase) cpuThroughput() float64 {
	sum := 0.0
	for _, v := range p.cpuMS {
		sum += v
	}
	return float64(p.ok) / (sum / 1000)
}

// maxPhase bounds a phase that keeps going to collect enough samples
// for its tail percentile, so a run always ends.
const maxPhase = 120 * time.Second

// closedLoop runs one caller that waits for each operation to return
// before it starts the next. An operation's CPU time is all the
// process's CPU time from the end of the previous operation to its own
// end, less the calibration loop's: work a server goroutine finishes
// after it has replied counts toward the next operation, every time.
// Between
// operations it runs the calibration loop every calEvery and scales the
// CPU time of the operations of each calBlock by the speedFactor of
// that block's median calibration time. The phase ends once minDur has passed
// and minOps operations have completed or, when maxOps > 0, once maxOps
// operations have run. op(i) runs the i-th operation.
func closedLoop(minDur time.Duration, minOps, maxOps int, t *tally, op func(i int) (time.Duration, error)) phase {
	var p phase
	begin, mark := time.Now(), processCPU()
	var calSpent float64 // ms of calibration since mark
	var blockStart, lastCal time.Time
	var raw, cal []float64 // the current block's operations and calibration runs
	flush := func() {
		scale := speedFactor(median(cal))
		for _, v := range raw {
			p.cpuMS = append(p.cpuMS, v*scale)
		}
		p.rawMS, p.calMS = append(p.rawMS, raw...), append(p.calMS, cal...)
		raw, cal = raw[:0], cal[:0]
	}
	for i := 0; ; i++ {
		if maxOps > 0 {
			if i >= maxOps {
				break
			}
		} else if since := time.Since(begin); since >= maxPhase || (since >= minDur && i >= minOps) {
			break
		}
		now := time.Now()
		if len(raw) > 0 && now.Sub(blockStart) >= calBlock {
			flush()
		}
		if len(raw) == 0 {
			blockStart = now
		}
		if len(cal) == 0 || now.Sub(lastCal) >= calEvery {
			c := calibrate()
			cal, lastCal, calSpent = append(cal, c), now, calSpent+c
		}
		lat, err := op(i)
		end := processCPU()
		raw = append(raw, ms(end-mark)-calSpent)
		mark, calSpent = end, 0
		p.latMS = append(p.latMS, ms(lat))
		t.note(err)
		if err == nil {
			p.ok++
		}
	}
	if len(raw) > 0 {
		flush()
	}
	p.elapsed = time.Since(begin)
	return p
}
