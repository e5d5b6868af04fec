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

// Acquire takes one permit, blocking p until one is free.
func (s *Semaphore) Acquire(p *Proc) { s.AcquireN(p, 1) }

// AcquireN takes n permits atomically, blocking until the full count is
// available to this waiter (waiters are served FIFO, so a large request is
// not starved by a stream of small ones).
func (s *Semaphore) AcquireN(p *Proc, n int) {
	for !s.acquireOrWait(p, n) {
		p.block()
	}
}

// AcquireOrWait is the non-blocking Acquire for step processes: it takes
// one permit and reports true, or queues p and reports false — p is woken
// when it heads the queue and a permit is free, and calls AcquireOrWait
// again. The FIFO and re-check rules are AcquireN's, which is built on it.
func (s *Semaphore) AcquireOrWait(p *Proc) bool { return s.acquireOrWait(p, 1) }

// acquireOrWait takes n permits if this call may: a fresh request only when
// no one is queued ahead, a queued waiter only once it heads the queue. A
// waiter is only ever woken at the head, so p at the head means p is
// re-checking after a wake; anywhere else it is a fresh request and joins
// the tail.
func (s *Semaphore) acquireOrWait(p *Proc, n int) bool {
	switch {
	case len(s.waiters) == 0:
		if s.count >= n {
			s.count -= n
			return true
		}
		s.waiters = append(s.waiters, p)
	case s.waiters[0] == p:
		if s.count >= n {
			s.waiters = dequeue(s.waiters)
			s.count -= n
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

// Release returns one permit.
func (s *Semaphore) Release() { s.ReleaseN(1) }

// ReleaseN returns n permits and wakes the head waiter.
func (s *Semaphore) ReleaseN(n int) {
	s.count += n
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
	fires   int
}

// NewSignal returns an unfired signal.
func NewSignal() *Signal { return &Signal{} }

// Fires reports how many times Fire has been called.
func (s *Signal) Fires() int { return s.fires }

// Wait blocks p until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.park()
}

// Fire wakes all current waiters.
func (s *Signal) Fire() {
	s.fires++
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		w.unpark()
	}
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

// WaitGroup counts outstanding work items; Wait blocks until the count hits
// zero.
type WaitGroup struct {
	count   int
	waiters []*Proc
}

// Add increments the outstanding count by n (n may be negative, like
// sync.WaitGroup).
func (w *WaitGroup) Add(n int) {
	w.count += n
	if w.count < 0 {
		panic("sim: negative WaitGroup count")
	}
	if w.count == 0 {
		ws := w.waiters
		w.waiters = nil
		for _, p := range ws {
			p.unpark()
		}
	}
}

// Done decrements the outstanding count.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the count is zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.count > 0 {
		w.waiters = append(w.waiters, p)
		p.park()
	}
}
