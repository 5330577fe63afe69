package sim

// The word-parallel EVENT-DRIVEN kernel: 64 independent stimulus lanes
// advanced by one event-driven simulation under an arbitrary
// non-negative integer delay model — the kernel behind the paper's
// realistic-delay experiments (full-adder sum/carry ratios, per-type
// delays), where the lockstep wavefront kernel does not apply because
// different cells finish at different times.
//
// # Lane-masked events
//
// Nets stay packed (one logic.W per net) and cell evaluation stays the
// branch-free bitwise evalCellWide, but the schedule is the scalar
// kernel's calendar/heap event queue with one twist: a scheduled event
// is (net, t, mask, val), where mask selects the lanes whose value
// changes at time t. Delays are per cell output, not per lane, so when a
// cell is re-evaluated at time t every lane's new output value lands at
// the same instant t+d — one word event carries all lanes that actually
// change there, however few.
//
// # Per-lane equivalence
//
// Lane l of a wide-event simulation is bit-identical to a scalar
// simulation driven with lane l's stimulus:
//
//   - A cell's packed output equals the per-lane scalar eval by the
//     init-time cross-check in internal/logic.
//   - In transport mode an output event's mask is the set of lanes where
//     the new value differs from the net's projected value (its value
//     once all in-flight events have applied). A lane whose inputs did
//     not change evaluates to its projected value and drops out of the
//     mask, so it sees exactly the transitions its scalar run would: the
//     projection replays the scalar kernel's pending/no-op elision lane
//     by lane, and events on one net apply in schedule order (a net has
//     one driver pin with one fixed delay, so arrival order is schedule
//     order).
//   - In inertial mode a re-evaluated lane's claim cancels that lane
//     from the net's in-flight events before the replacement is
//     scheduled — the lane image of the scalar kernel's lastSerial
//     cancellation. Only lanes in which some input actually changed
//     re-evaluate (the per-cell changed-lane mask), so lanes idle in
//     their scalar run never cancel or reschedule anything.
//   - Zero-delay pins re-schedule within the instant, exactly like the
//     scalar kernel: an instant then spans several event batches and the
//     per-instant coalescing machinery reports one change per net with
//     the instant's initial and final packed values, dropping per-lane
//     zero-width excursions.
//
// TestWideEventKernelEquivalence enforces the equivalence against 64
// merged scalar runs for every built-in circuit under every non-uniform
// delay model family.

import (
	"fmt"

	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/netlist"
)

// maskedEvent is one scheduled net update in the wide-event kernel: the
// lanes selected by mask take val's levels at the time the queues carry
// the event for (the calendar bucket / heap entry holds the time, so
// the arena entry does not repeat it). Events live in a per-cycle
// arena; the queues carry arena indices, so inertial cancellation can
// shrink an in-flight event's mask in place.
type maskedEvent struct {
	val  logic.W
	mask uint64
	net  netlist.NetID
}

// wideChangeState tracks one net's membership in the current instant's
// changed set on the zero-delay coalescing path: epoch matches
// flushEpoch while the net is in changedList, and init holds its packed
// value from before the instant.
type wideChangeState struct {
	epoch int32
	init  logic.W
}

// WideEventSimulator drives one netlist for MaxLanes independent
// stimulus lanes at once under an arbitrary non-negative integer delay
// model. Like the other kernels it is not safe for concurrent use, but
// any number may share one Compiled netlist (and one DelayTable).
type WideEventSimulator struct {
	c     *Compiled
	dt    *DelayTable
	mode  Mode
	guard int

	values []logic.W
	sched  []logic.W // per net: projected value after all in-flight events
	ffQ    []logic.W // sampled Q, indexed like Compiled.dffCells

	arena []maskedEvent // per-cycle event storage, indexed by the queues
	cal   *calendarQueue[int32]
	hq    *wideEventHeap

	// Inertial-only state: the live in-flight events per net (for claim
	// cancellation) and the lanes in which each touched cell's inputs
	// changed this batch (only those lanes re-evaluate, scalar-wise).
	inertial  bool
	inflight  [][]int32 // per net: arena indices of live events
	cellLanes []uint64  // per cell: changed-lane mask of the current batch

	coalesce    bool // multi-batch instants possible (some delay is 0)
	changed     []wideChangeState
	flushEpoch  int32
	changedList []netlist.NetID
	changes     []WideChange

	touchEpoch []int32
	epoch      int32
	touched    []netlist.CellID

	monitors []WideMonitor
	cycle    int
	settle   int
	events   uint64 // word events processed (each spans all lanes)

	poll pollState // periodic cancellation + budget check

	evalIn  logic.Vector // per-lane scratch for the reference fallback
	evalOut [outputsPerCell]logic.V
}

// NewWideEvent returns a word-parallel event-driven simulator. It
// accepts every delay model the scalar kernel accepts — unequal
// per-cell delays, zero delays, transport and inertial modes — so it
// never fails; use NewWideKernel to get the faster lockstep kernel when
// the model happens to be uniform. Options.Scheduler selects the event
// queue as for the scalar kernel.
func NewWideEvent(c *Compiled, opts Options) *WideEventSimulator {
	dm := opts.Delay
	if dm == nil {
		dm = delay.Unit()
	}
	dt := opts.Delays
	if dt == nil {
		dt = NewDelayTable(c, dm)
	}
	guard := opts.MaxTimePerCycle
	if guard == 0 {
		guard = 1 << 16
	}
	nc, nn := c.n.NumCells(), c.n.NumNets()
	s := &WideEventSimulator{
		c:          c,
		dt:         dt,
		mode:       opts.Mode,
		guard:      guard,
		values:     make([]logic.W, nn),
		sched:      make([]logic.W, nn),
		ffQ:        make([]logic.W, len(c.dffCells)),
		inertial:   opts.Mode == Inertial,
		coalesce:   dt.Min() == 0,
		flushEpoch: 1,
		changed:    make([]wideChangeState, nn),
		touchEpoch: make([]int32, nc),
		evalIn:     make(logic.Vector, c.maxIn),
	}
	s.poll.init(opts)
	for i, v := range c.initVals {
		s.values[i] = logic.SplatW(v)
	}
	copy(s.sched, s.values)
	for i := range s.ffQ {
		s.ffQ[i] = logic.SplatW(logic.L0)
	}
	if s.inertial {
		s.inflight = make([][]int32, nn)
		s.cellLanes = make([]uint64, nc)
	}
	switch {
	case opts.Scheduler == SchedulerHeap:
		s.hq = newWideEventHeap()
	case opts.Scheduler == SchedulerCalendar || dt.Max()+2 <= maxCalendarWindow:
		s.cal = newCalendarQueue[int32](dt.Max())
	default:
		s.hq = newWideEventHeap()
	}
	return s
}

// AttachWideMonitor registers a monitor for subsequent cycles.
func (s *WideEventSimulator) AttachWideMonitor(m WideMonitor) { s.monitors = append(s.monitors, m) }

// DetachWideMonitors removes all monitors.
func (s *WideEventSimulator) DetachWideMonitors() { s.monitors = nil }

// Netlist returns the simulated netlist.
func (s *WideEventSimulator) Netlist() *netlist.Netlist { return s.c.n }

// Cycle returns the number of completed cycles.
func (s *WideEventSimulator) Cycle() int { return s.cycle }

// SettleTime returns the time of the last instant of the most recent
// cycle.
func (s *WideEventSimulator) SettleTime() int { return s.settle }

// Events returns the total number of word events processed; each word
// event updates the masked lanes of one net at one instant.
func (s *WideEventSimulator) Events() uint64 { return s.events }

// KernelName implements WideKernel.
func (s *WideEventSimulator) KernelName() string { return "wide-event" }

// Value returns the packed settled value of a net.
func (s *WideEventSimulator) Value(id netlist.NetID) logic.W { return s.values[id] }

// Step simulates one clock cycle for all lanes: pi holds, per primary
// input, the packed per-lane stimulus bits (aligned with the netlist's
// PIs). It returns an error if the network fails to settle within the
// guard time in any lane; all in-flight events are discarded first.
//
//glitchsim:hotpath
func (s *WideEventSimulator) Step(pi []logic.W) error {
	if len(pi) != len(s.c.n.PIs) {
		panic(fmt.Sprintf("sim: stimulus width %d, netlist has %d inputs", len(pi), len(s.c.n.PIs)))
	}

	// 1. Sample DFF D inputs lane-wise: lanes with a known D take it,
	// lanes still at X hold the flipflop's current state.
	for i, d := range s.c.dffD {
		v := s.values[d]
		k := v.Zero | v.One
		q := &s.ffQ[i]
		q.Zero = (v.Zero & k) | (q.Zero &^ k)
		q.One = (v.One & k) | (q.One &^ k)
	}

	// 2. Inject PI changes and DFF Q updates at t=0. The queue is empty
	// here, so projections equal settled values and the diff against the
	// projection is the scalar kernel's v==values no-op elision lane by
	// lane. Injection nets (PIs, DFF Qs) have no combinational driver,
	// so they never interact with inertial claims.
	s.arena = s.arena[:0]
	if s.cal != nil {
		s.cal.reset()
	}
	for i, id := range s.c.n.PIs {
		s.schedule(0, id, pi[i], logic.DiffMask(pi[i], s.sched[id]))
	}
	for i, q := range s.c.dffQ {
		s.schedule(0, q, s.ffQ[i], logic.DiffMask(s.ffQ[i], s.sched[q]))
	}

	// 3. Propagate.
	if s.flushEpoch >= 1<<31-1 {
		for i := range s.changed {
			s.changed[i].epoch = 0
		}
		s.flushEpoch = 1
	}
	if err := s.run(); err != nil {
		return err
	}
	for _, m := range s.monitors {
		m.OnCycleEnd(s.cycle)
	}
	s.cycle++
	return nil
}

// schedule appends an event updating the masked lanes of net to val at
// time t and advances the net's projection. mask must be the lanes that
// differ from the projection (transport) or the re-evaluated lanes to
// claim (inertial); a zero mask is a no-op.
//
//glitchsim:hotpath
func (s *WideEventSimulator) schedule(t int, net netlist.NetID, v logic.W, mask uint64) {
	if mask == 0 {
		return
	}
	s.sched[net] = s.sched[net].Merge(v, mask)
	idx := int32(len(s.arena))
	s.arena = append(s.arena, maskedEvent{val: v, mask: mask, net: net})
	if s.cal != nil {
		s.cal.push(t, idx)
	} else {
		s.hq.push(t, idx)
	}
}

//glitchsim:hotpath
func (s *WideEventSimulator) run() error {
	flushAt := -1
	for !s.queueEmpty() {
		t := s.queueNextTime()
		if t > s.guard {
			// The batch past the guard holds the nets still toggling; pop
			// it for the report — everything is discarded right after.
			var batch []int32
			if s.cal != nil {
				batch = s.cal.popBatch(t)
			} else {
				batch = s.hq.popBatch(t)
			}
			nets := make([]netlist.NetID, 0, maxHotNets)
		collect:
			for _, idx := range batch {
				net := s.arena[idx].net
				for _, seen := range nets {
					if seen == net {
						continue collect
					}
				}
				if nets = append(nets, net); len(nets) == maxHotNets {
					break
				}
			}
			s.discardInFlight()
			return newOscillationError(s.c.n, s.cycle, s.guard, nets)
		}
		if flushAt >= 0 && t > flushAt {
			s.flush(flushAt)
		}
		flushAt = t
		s.applyBatch(t)
		s.evalTouched(t)
		if s.poll.due(s.events) {
			if err := s.poll.poll(s.events, s.cycle); err != nil {
				s.discardInFlight()
				return err
			}
		}
	}
	if flushAt >= 0 {
		s.flush(flushAt)
		s.settle = flushAt
	} else {
		s.settle = 0
	}
	return nil
}

//glitchsim:hotpath
func (s *WideEventSimulator) queueEmpty() bool {
	if s.cal != nil {
		return s.cal.empty()
	}
	return s.hq.empty()
}

//glitchsim:hotpath
func (s *WideEventSimulator) queueNextTime() int {
	if s.cal != nil {
		return s.cal.nextTime()
	}
	return s.hq.nextTime()
}

// applyBatch pops and commits every event at time t: masked lanes merge
// into the packed net values, changes are recorded (directly, or into
// the per-instant coalescing state when zero delays can split an
// instant into several batches), and fanout cells are marked.
//
//glitchsim:hotpath
func (s *WideEventSimulator) applyBatch(t int) {
	if s.epoch == 1<<31-1 {
		clear(s.touchEpoch)
		s.epoch = 0
	}
	s.epoch++
	epoch := s.epoch
	var batch []int32
	if s.cal != nil {
		batch = s.cal.popBatch(t)
	} else {
		batch = s.hq.popBatch(t)
	}
	s.events += uint64(len(batch))
	monitored := len(s.monitors) > 0
	fanStart, fanCells := s.c.fanStart, s.c.fanCells
	values, touchEpoch := s.values, s.touchEpoch
	flushEpoch := s.flushEpoch
	for _, idx := range batch {
		e := &s.arena[idx]
		if s.inertial {
			s.unlist(e.net, idx)
		}
		old := values[e.net]
		// Inertial cancellation can empty a lane's claim after a revert,
		// leaving an event lane equal to the committed value; like the
		// scalar kernel's values==val check, such lanes commit nothing
		// and touch no fanout.
		cm := e.mask & logic.DiffMask(e.val, old)
		if cm == 0 {
			continue
		}
		if monitored {
			if !s.coalesce {
				s.changes = append(s.changes, WideChange{Net: e.net, Old: old, New: old.Merge(e.val, cm)})
			} else if s.changed[e.net].epoch != flushEpoch {
				s.changed[e.net] = wideChangeState{epoch: flushEpoch, init: old}
				s.changedList = append(s.changedList, e.net)
			}
		}
		values[e.net] = old.Merge(e.val, cm)
		for _, cid := range fanCells[fanStart[e.net]:fanStart[e.net+1]] {
			if touchEpoch[cid] != epoch {
				touchEpoch[cid] = epoch
				s.touched = append(s.touched, cid)
			}
			if s.inertial {
				s.cellLanes[cid] |= cm
			}
		}
	}
}

// evalTouched re-evaluates every cell with a changed input and schedules
// the lanes whose outputs will change.
//
//glitchsim:hotpath
func (s *WideEventSimulator) evalTouched(t int) {
	c := s.c
	delays := s.dt.delays
	for _, cid := range s.touched {
		o0, o1, twoOut := evalCellWide(c, s.values, &s.evalIn, &s.evalOut, cid)
		base := outputsPerCell * int(cid)
		var em uint64
		if s.inertial {
			em = s.cellLanes[cid]
			s.cellLanes[cid] = 0
		}
		if o := c.outNets[base]; o != netlist.NoNet {
			s.scheduleOutput(t+int(delays[base]), o, o0, em)
		}
		if twoOut {
			if o := c.outNets[base+1]; o != netlist.NoNet {
				s.scheduleOutput(t+int(delays[base+1]), o, o1, em)
			}
		}
	}
	s.touched = s.touched[:0]
}

// scheduleOutput schedules a re-evaluated cell output. In transport mode
// the mask is the diff against the net's projection (the lane image of
// the scalar kernel's no-op elision — lanes already heading to this
// value schedule nothing). In inertial mode only the lanes in em (those
// whose inputs changed) participate: each claims its net, cancelling the
// lane from any in-flight event, unless it is already settled at the new
// value with nothing in flight.
//
//glitchsim:hotpath
func (s *WideEventSimulator) scheduleOutput(t int, net netlist.NetID, v logic.W, em uint64) {
	if !s.inertial {
		s.schedule(t, net, v, logic.DiffMask(v, s.sched[net]))
		return
	}
	list := s.inflight[net]
	var pend uint64
	for _, idx := range list {
		pend |= s.arena[idx].mask
	}
	m := em & (logic.DiffMask(v, s.values[net]) | pend)
	if m == 0 {
		return
	}
	if m&pend != 0 {
		// The claimed lanes cancel out of every in-flight event (the
		// wide image of lastSerial: per lane, only the newest scheduled
		// value survives).
		kept := list[:0]
		for _, idx := range list {
			if s.arena[idx].mask &= ^m; s.arena[idx].mask != 0 {
				kept = append(kept, idx)
			}
		}
		list = kept
	}
	idx := int32(len(s.arena))
	s.arena = append(s.arena, maskedEvent{val: v, mask: m, net: net})
	s.inflight[net] = append(list, idx)
	if s.cal != nil {
		s.cal.push(t, idx)
	} else {
		s.hq.push(t, idx)
	}
}

// unlist removes a popped event from its net's in-flight list (inertial
// mode only; fully cancelled events are removed at cancellation time, so
// the list is usually one entry).
//
//glitchsim:hotpath
func (s *WideEventSimulator) unlist(net netlist.NetID, idx int32) {
	list := s.inflight[net]
	for i, v := range list {
		if v == idx {
			s.inflight[net] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// flush reports the instant's transitions to the monitors, folding the
// coalescing state (zero-delay models) into per-net initial/final
// changes and dropping lanes that excursed back to their initial value
// within the instant.
//
//glitchsim:hotpath
func (s *WideEventSimulator) flush(t int) {
	if s.coalesce {
		buf := s.changes[:0]
		for _, net := range s.changedList {
			init := s.changed[net].init
			final := s.values[net]
			if init == final {
				continue
			}
			buf = append(buf, WideChange{Net: net, Old: init, New: final})
		}
		s.changes = buf
		s.flushEpoch++
		s.changedList = s.changedList[:0]
	}
	if len(s.changes) > 0 {
		for _, m := range s.monitors {
			m.OnWideChanges(s.cycle, t, s.changes)
		}
	}
	s.changes = s.changes[:0]
}

// ExportState implements WideKernel: at a cycle boundary the settled
// net values are the event kernel's entire dynamic state (the queues
// drained before Step returned, so the projections equal the settled
// values and ffQ[i] == values[dffQ[i]] via the Q-net push at injection).
func (s *WideEventSimulator) ExportState(dst []logic.W) []logic.W {
	return append(dst, s.values...)
}

// ImportState implements WideKernel: it restores the settled net values
// captured by ExportState, resyncs the projections, re-derives the
// flip-flop sample registers from their Q nets, and resets per-cycle
// bookkeeping.
func (s *WideEventSimulator) ImportState(vals []logic.W, cycle int) {
	if len(vals) != len(s.values) {
		panic(fmt.Sprintf("sim: imported state has %d nets, netlist has %d", len(vals), len(s.values)))
	}
	copy(s.values, vals)
	for i, q := range s.c.dffQ {
		s.ffQ[i] = s.values[q]
	}
	s.discardInFlight()
	s.cycle = cycle
}

// discardInFlight clears all pending events and per-cycle bookkeeping so
// a Step after a guard or cancellation error starts from a consistent
// (if functionally stale) state.
func (s *WideEventSimulator) discardInFlight() {
	if s.cal != nil {
		s.cal.clear()
	} else {
		s.hq.clear()
	}
	s.arena = s.arena[:0]
	copy(s.sched, s.values)
	if s.inertial {
		for i := range s.inflight {
			s.inflight[i] = s.inflight[i][:0]
		}
		clear(s.cellLanes)
	}
	s.flushEpoch++
	s.changedList = s.changedList[:0]
	s.changes = s.changes[:0]
	s.touched = s.touched[:0]
}

// wideEventHeap is the fallback scheduler of the wide-event kernel for
// delay models whose per-hop delays exceed the calendar window: a binary
// min-heap of (time, arena index) pairs. Arena indices increase in
// schedule order, so the ordering is exactly the scalar heap's
// (time, serial).
type wideEventHeap struct {
	h     []heapEntry
	batch []int32
}

type heapEntry struct {
	time int32
	idx  int32
}

func newWideEventHeap() *wideEventHeap { return &wideEventHeap{} }

func (q *wideEventHeap) empty() bool   { return len(q.h) == 0 }
func (q *wideEventHeap) nextTime() int { return int(q.h[0].time) }
func (q *wideEventHeap) clear()        { q.h = q.h[:0] }

func (q *wideEventHeap) less(i, j int) bool {
	if q.h[i].time != q.h[j].time {
		return q.h[i].time < q.h[j].time
	}
	return q.h[i].idx < q.h[j].idx
}

func (q *wideEventHeap) push(t int, idx int32) {
	q.h = append(q.h, heapEntry{time: int32(t), idx: idx})
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.less(p, i) {
			break
		}
		q.h[p], q.h[i] = q.h[i], q.h[p]
		i = p
	}
}

func (q *wideEventHeap) pop() int32 {
	top := q.h[0].idx
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && q.less(l, small) {
			small = l
		}
		if r < last && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q.h[i], q.h[small] = q.h[small], q.h[i]
		i = small
	}
	return top
}

func (q *wideEventHeap) popBatch(t int) []int32 {
	q.batch = q.batch[:0]
	for len(q.h) > 0 && int(q.h[0].time) == t {
		q.batch = append(q.batch, q.pop())
	}
	return q.batch
}
