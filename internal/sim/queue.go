package sim

import (
	"glitchsim/internal/logic"
	"glitchsim/netlist"
)

// The simulator's pending-event queue. Two implementations coexist
// behind a common method set (push / empty / nextTime / popBatch /
// reset / clear), selected at construction and dispatched through a nil
// check on the calendar so its O(1) operations inline into the event
// loop:
//
//   - calendarQueue: a ring of per-time-slot FIFO buckets indexed by
//     t mod window. Cell delays are small bounded integers, so push and
//     pop are O(1); within one time slot events pop in push (= serial)
//     order, which is exactly the (time, serial) order the heap produces.
//     Uniform delay models (the paper's unit-delay runs) use it too.
//   - heapQueue: the classic binary min-heap ordered by (time, serial),
//     kept as the reference order and as the fallback for delay models
//     whose per-hop delays exceed the calendar window cap.
//
// Both implementations deliver events in identical order, so the choice
// of scheduler never changes observable simulation results (the
// cross-kernel equivalence test in kernel_test.go enforces this).

type event struct {
	serial uint64
	time   int32
	net    netlist.NetID
	key    int32 // cell-output key for inertial cancellation; -1 for injections
	val    logic.V
}

// The queue contract shared by both implementations:
//
//   - push enqueues an event; its time must be >= the time of the last
//     batch popped since the last reset (events never travel backwards).
//   - nextTime returns the earliest pending event time and must only be
//     called when the queue is non-empty.
//   - popBatch removes and returns every event queued at time t (the
//     value nextTime just returned), in serial order; the returned slice
//     is only valid until the next popBatch call.
//   - reset rewinds the time origin to 0 and is only legal when empty;
//     clear additionally discards all pending events.

// calendarQueue is the O(1) scheduler: a power-of-two ring of event
// buckets where an event at absolute time t lives in bucket t&mask. It
// is generic over the element type: the scalar kernel stores events
// directly, the word-parallel event kernel stores arena indices (its
// events are wide and live in a per-cycle arena).
//
// Invariant: all in-flight event times span less than window time units
// (guaranteed by construction: the window exceeds the largest per-hop
// delay of the simulator's delay model, and events are only pushed at or
// after the time of the batch being processed). Each bucket therefore
// holds events of a single absolute time, and a forward scan from cur
// finds the earliest one.
type calendarQueue[E any] struct {
	buckets [][]E
	mask    int
	cur     int // absolute time the next-bucket scan starts from
	size    int
	spare   []E // previous popBatch result, recycled as a fresh bucket
}

// newCalendarQueue returns a calendar queue whose window is the smallest
// power of two that can hold per-hop delays up to maxDelay.
func newCalendarQueue[E any](maxDelay int) *calendarQueue[E] {
	w := 4
	for w < maxDelay+2 {
		w <<= 1
	}
	return &calendarQueue[E]{buckets: make([][]E, w), mask: w - 1}
}

func (q *calendarQueue[E]) push(t int, e E) {
	i := t & q.mask
	q.buckets[i] = append(q.buckets[i], e)
	q.size++
}

func (q *calendarQueue[E]) empty() bool { return q.size == 0 }

func (q *calendarQueue[E]) nextTime() int {
	for len(q.buckets[q.cur&q.mask]) == 0 {
		q.cur++
	}
	return q.cur
}

func (q *calendarQueue[E]) popBatch(t int) []E {
	i := t & q.mask
	b := q.buckets[i]
	q.buckets[i] = q.spare[:0]
	q.spare = b
	q.size -= len(b)
	return b
}

func (q *calendarQueue[E]) reset() { q.cur = 0 }

func (q *calendarQueue[E]) clear() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.cur = 0
	q.size = 0
}

// heapQueue is the fallback scheduler: a binary min-heap ordered by
// (time, serial), with no bound on per-hop delays.
type heapQueue struct {
	h     eventHeap
	batch []event
}

func newHeapQueue() *heapQueue { return &heapQueue{} }

func (q *heapQueue) push(e event)  { q.h.push(e) }
func (q *heapQueue) empty() bool   { return len(q.h) == 0 }
func (q *heapQueue) nextTime() int { return int(q.h[0].time) }
func (q *heapQueue) reset()        {}
func (q *heapQueue) clear()        { q.h = q.h[:0] }

func (q *heapQueue) popBatch(t int) []event {
	q.batch = q.batch[:0]
	for len(q.h) > 0 && int(q.h[0].time) == t {
		q.batch = append(q.batch, q.h.pop())
	}
	return q.batch
}

// eventHeap is a binary min-heap ordered by (time, serial).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].serial < h[j].serial
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h).less(p, i) {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && (*h).less(l, small) {
			small = l
		}
		if r < last && (*h).less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}
