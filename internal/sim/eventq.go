package sim

import (
	"fmt"
	"math/bits"
)

// The pending-event set. Dispatch order is the total order of (at, seq):
// arrival time, then scheduling order. Most events wait one of a few fixed
// delays — a same-instant wake, a packet head's or tail's wire time, a
// switch's routing latency — so the set is kept in two kinds of structure:
//
//   - lanes: FIFOs of events that share one delay at - now. Lane 0 is the
//     run queue, delay zero: events at the current instant, the dominant
//     case, from unparks, process wake-ups and zero-delay sleeps. The
//     others are delay lanes, each claimed by the delay of the first event
//     that finds it empty and free again once it drains. Appending costs
//     no comparison and keeps each lane sorted.
//   - the heap: a 4-ary min-heap for every event no lane takes. The wide
//     fan-out halves a binary heap's depth.
//
// The next event is the (at, seq) minimum of the heap top and the heads of
// the busy lanes, so the order is the one a single heap would give.

// event is a scheduled action. Events with equal times fire in scheduling
// order (seq), which keeps the simulation deterministic. The lanes and the
// heap hold events by value: an event fires an Action — a plain callback
// (Schedule), a typed action (Post), or a process wake, which resumes the
// process instead of firing — carried as one interface value, so queuing
// one needs no record of its own and no per-event closure.
type event struct {
	at  Time
	seq int64
	act Action
}

// before orders events by (at, seq), the simulation's total event order.
func (ev *event) before(o *event) bool {
	return ev.at < o.at || ev.at == o.at && ev.seq < o.seq
}

// delayLanes is the number of delay lanes beside the run queue. The
// fabric's packet hops wait three fixed delays (a head's and a tail's wire
// time, and the routing latency), and a fourth lane takes the next most
// common delay of the moment.
const delayLanes = 4

// delayLaneBits masks the delay lanes' bits in Engine.busy.
const delayLaneBits = 1<<(delayLanes+1) - 2

// fifo is one lane: events in (at, seq) order, buf[head:] still queued.
type fifo struct {
	buf  []event
	head int
	// delay is the lane's at - now while it is busy; the run queue's is 0.
	delay Time
}

// len reports how many events the lane holds.
func (q *fifo) len() int { return len(q.buf) - q.head }

// push appends ev. A full buffer whose front half has been consumed slides
// its queued events down instead of growing, so a lane that never drains —
// a constant-delay chain always holds its next event — stays within a few
// times its longest queue rather than growing with every event it passes.
func (q *fifo) push(ev event) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, ev)
}

// pop removes the lane's first event, which must exist, and reports whether
// the lane is now empty. The slot drops its action, so a consumed slot
// never pins dead state.
func (q *fifo) pop() (event, bool) {
	ev := q.buf[q.head]
	q.buf[q.head].act = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
		return ev, true
	}
	return ev, false
}

// schedule queues an action or a process wake.
func (e *Engine) schedule(at Time, a Action) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", at, e.now))
	}
	e.seq++
	e.enqueue(event{at: at, seq: e.seq, act: a})
}

// enqueue files ev in the busy lane of its delay, else in a free delay lane
// it claims, else in the heap. Delay zero always means the run queue.
//
// The clock only moves forward (a RunUntil that Stop cut short leaves it at
// the stopping event rather than at the deadline), so an event appended at
// now + d never precedes the lane's earlier appends at an older now + d, and
// every lane stays (at, seq)-sorted with no comparison. The tail check keeps
// that order from resting on the clock alone: it costs one comparison
// against an entry that is already in cache, and an event that would break
// the order goes to the heap instead of firing out of turn.
func (e *Engine) enqueue(ev event) {
	d := ev.at - e.now
	i := 0
	if d != 0 {
		if i = e.laneFor(d); i < 0 {
			e.heapPush(ev)
			return
		}
	}
	q := &e.lanes[i]
	if bit := uint8(1) << i; e.busy&bit == 0 {
		q.delay = d
		e.busy |= bit
	} else if q.buf[len(q.buf)-1].at > ev.at {
		e.heapPush(ev)
		return
	}
	q.push(ev)
}

// laneFor picks the delay lane for a delay d > 0: the busy lane of that
// delay, else the first free lane, else -1 (the heap).
func (e *Engine) laneFor(d Time) int {
	for m := e.busy &^ 1; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros8(m); e.lanes[i].delay == d {
			return i
		}
	}
	if free := ^e.busy & delayLaneBits; free != 0 {
		return bits.TrailingZeros8(free)
	}
	return -1
}

// front returns the earliest queued event, or nil when none is, and where
// it sits: the index of its lane, or -1 for the heap top.
func (e *Engine) front() (*event, int) {
	var first *event
	src := -1
	if len(e.heap) > 0 {
		first = &e.heap[0]
	}
	for m := e.busy; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		q := &e.lanes[i]
		if h := &q.buf[q.head]; first == nil || h.before(first) {
			first, src = h, i
		}
	}
	return first, src
}

// popNext removes and returns the earliest pending event within the phase
// deadline: the (at, seq) minimum of the heap top and the busy lanes'
// heads. Each of those orders its own events, so the minimum of their
// fronts is the minimum of the whole set.
func (e *Engine) popNext() (event, bool) {
	for {
		next, src := e.front()
		// End-of-instant settle: once no event remains at the current time,
		// promote pending hooks (oldest first) before letting the clock move
		// or the phase end. A promoted hook lands in the run queue at e.now,
		// so it is popped immediately — and any same-instant work it creates
		// drains before the next hook is promoted.
		if e.settleHead < len(e.settleq) && (next == nil || next.at > e.now) {
			e.promoteSettle()
			continue
		}
		if next == nil || next.at > e.deadline {
			return event{}, false
		}
		if src < 0 {
			return e.heapPop(), true
		}
		ev, empty := e.lanes[src].pop()
		if empty {
			e.busy &^= 1 << src
		}
		return ev, true
	}
}

// pending reports how many events are queued.
func (e *Engine) pending() int {
	n := len(e.heap)
	for m := e.busy; m != 0; m &= m - 1 {
		n += e.lanes[bits.TrailingZeros8(m)].len()
	}
	return n
}

// nextEventTime reports the earliest pending event's timestamp.
func (e *Engine) nextEventTime() (Time, bool) {
	if next, _ := e.front(); next != nil {
		return next.at, true
	}
	return 0, false
}

// queuedBy counts the queued events at or before deadline, stopping at
// limit. It walks each lane from its head, then the heap, skipping every
// subtree whose root lies past the deadline (the heap orders each child
// after its parent), so it visits O(limit) entries and allocates nothing.
// The Group calls it at barriers to size a round's windows.
func (e *Engine) queuedBy(deadline Time, limit int) int {
	n := 0
	for i := range e.lanes {
		q := &e.lanes[i]
		for j := q.head; j < len(q.buf) && n < limit && q.buf[j].at <= deadline; j++ {
			n++
		}
	}
	if n < limit && len(e.heap) > 0 && e.heap[0].at <= deadline {
		n += e.heapQueuedBy(0, deadline, limit-n)
	}
	return n
}

// heapQueuedBy counts the entries at or before deadline in the heap subtree
// rooted at position i, whose own entry is one of them, stopping at limit.
func (e *Engine) heapQueuedBy(i int, deadline Time, limit int) int {
	n := 1
	for c := i<<2 + 1; c <= i<<2+4 && c < len(e.heap) && n < limit; c++ {
		if e.heap[c].at <= deadline {
			n += e.heapQueuedBy(c, deadline, limit-n)
		}
	}
	return n
}

// heapPush inserts an event into the 4-ary heap.
func (e *Engine) heapPush(ev event) {
	e.heap = append(e.heap, ev)
	e.heapUp(len(e.heap) - 1)
}

// heapPop removes and returns the minimum entry.
func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	e.heap = h[:n]
	if n > 0 {
		e.heapDown(0)
	}
	return top
}

// heapUp sifts the entry at position i toward the root.
func (e *Engine) heapUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// heapDown sifts the entry at position i toward the leaves.
func (e *Engine) heapDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if h[c].before(&h[best]) {
				best = c
			}
		}
		if !h[best].before(&ev) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ev
}
