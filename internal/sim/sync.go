package sim

// Queue is an unbounded FIFO of values passed between processes. Get blocks
// the calling process until an item is available; Put never blocks and may
// be called from engine context.
//
// Items and waiters dequeue by head index rather than re-slicing, so a
// steady produce/consume cycle reuses the backing arrays instead of
// creeping through them and reallocating.
type Queue[T any] struct {
	items []T
	head  int

	waiters []*Proc
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Put appends v and wakes the oldest waiter, if any.
func (q *Queue[T]) Put(v T) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = dequeue(q.waiters)
		w.unpark()
	}
}

// Get removes and returns the head item, blocking p while the queue is
// empty. Waiters are served FIFO.
func (q *Queue[T]) Get(p *Proc) T {
	for {
		if v, ok := q.GetOrWait(p); ok {
			return v
		}
		p.block()
	}
}

// GetOrWait is the non-blocking Get for step processes: it removes and
// returns the head item, or, when the queue is empty, queues p as a waiter
// and reports false — the next Put wakes p, which calls GetOrWait again.
func (q *Queue[T]) GetOrWait(p *Proc) (v T, ok bool) {
	if q.Len() == 0 {
		q.waiters = append(q.waiters, p)
		p.wait()
		return v, false
	}
	return q.pop(), true
}

// TryGet removes the head item without blocking; ok is false if empty.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	return q.pop(), true
}

// pop removes the head item, recycling the backing array once drained and
// compacting when the consumed prefix dominates it.
func (q *Queue[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	switch {
	case q.head == len(q.items):
		q.items = q.items[:0]
		q.head = 0
	case q.head > 32 && q.head > len(q.items)/2:
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v
}

// dequeue removes the head of a waiter list in place: the lists are short,
// so a copy-down beats re-slicing the backing array into churn.
func dequeue(ws []*Proc) []*Proc {
	n := copy(ws, ws[1:])
	ws[n] = nil
	return ws[:n]
}

// Semaphore is a counting semaphore used for credits and buffer pools.
type Semaphore struct {
	count   int
	waiters []*Proc
}

// NewSemaphore returns a semaphore holding n initial permits.
func NewSemaphore(n int) *Semaphore { return &Semaphore{count: n} }

// Available reports the current permit count.
func (s *Semaphore) Available() int { return s.count }

// Acquire takes one permit, blocking p until one is free. Waiters are
// served FIFO.
func (s *Semaphore) Acquire(p *Proc) {
	for !s.AcquireOrWait(p) {
		p.block()
	}
}

// AcquireOrWait is the non-blocking Acquire for step processes: it takes
// one permit and reports true, or queues p and reports false — p is woken
// when it heads the queue and a permit is free, and calls AcquireOrWait
// again. A fresh request takes a permit only when no one is queued ahead,
// a queued waiter only once it heads the queue. A waiter is only ever
// woken at the head, so p at the head means p is re-checking after a
// wake; anywhere else it is a fresh request and joins the tail.
func (s *Semaphore) AcquireOrWait(p *Proc) bool {
	switch {
	case len(s.waiters) == 0:
		if s.count > 0 {
			s.count--
			return true
		}
		s.waiters = append(s.waiters, p)
	case s.waiters[0] == p:
		if s.count > 0 {
			s.waiters = dequeue(s.waiters)
			s.count--
			s.wake()
			return true
		}
	default:
		s.waiters = append(s.waiters, p)
	}
	p.wait()
	return false
}

// TryAcquire takes a permit only if one is immediately free and no process
// is already queued ahead.
func (s *Semaphore) TryAcquire() bool {
	if s.count > 0 && len(s.waiters) == 0 {
		s.count--
		return true
	}
	return false
}

// Release returns one permit and wakes the head waiter.
func (s *Semaphore) Release() {
	s.count++
	s.wake()
}

func (s *Semaphore) wake() {
	if len(s.waiters) > 0 && s.count > 0 {
		s.waiters[0].unparkIfWaiting()
	}
}

// Signal is a broadcast condition: processes Wait on it and a Fire call
// wakes every current waiter. A Signal may be fired many times.
type Signal struct {
	waiters []*Proc
	// spare is the waiter list Fire last drained, kept for the next
	// round of waiters so a Wait/Fire cycle reuses two backing arrays.
	spare []*Proc
	fires int
}

// NewSignal returns an unfired signal.
func NewSignal() *Signal { return &Signal{} }

// Fires reports how many times Fire has been called.
func (s *Signal) Fires() int { return s.fires }

// Wait blocks p until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.AddWaiter(p)
	p.block()
}

// AddWaiter is the non-blocking Wait for step processes: it queues p to be
// woken by the next Fire and returns at once. Like Arbiter.JoinOrWait it has
// nothing to re-check — the wake is the Fire — so a step that waits for a
// condition checks it again on the wake and, if it still fails, calls
// AddWaiter again, as a blocking caller loops around Wait.
func (s *Signal) AddWaiter(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.wait()
}

// Fire wakes all current waiters.
func (s *Signal) Fire() {
	s.fires++
	ws := s.waiters
	s.waiters = s.spare
	for i, w := range ws {
		w.unpark()
		ws[i] = nil
	}
	s.spare = ws[:0]
}

// Latch is a one-shot completion flag: Wait returns immediately once Open
// has been called.
type Latch struct {
	open    bool
	waiters []*Proc
}

// NewLatch returns a closed latch.
func NewLatch() *Latch { return &Latch{} }

// Opened reports whether Open has been called.
func (l *Latch) Opened() bool { return l.open }

// Wait blocks p until the latch opens (or returns at once if already open).
func (l *Latch) Wait(p *Proc) {
	if l.open {
		return
	}
	l.waiters = append(l.waiters, p)
	p.park()
}

// Open releases all current and future waiters. Opening twice is a no-op.
func (l *Latch) Open() {
	if l.open {
		return
	}
	l.open = true
	ws := l.waiters
	l.waiters = nil
	for _, w := range ws {
		w.unpark()
	}
}
