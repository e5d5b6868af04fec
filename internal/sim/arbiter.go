package sim

// Arbiter is a settle-phase admission arbiter: processes contending for a
// shared resource at the same instant Join with a caller-chosen index, park,
// and are all granted together at the end of the instant in ascending index
// order (ties in Join order). Because the grant order depends only on the
// indices — not on the order the contenders' wake events happened to be
// inserted — everything downstream of the grants (FIFO queues, semaphore
// waiter lists) becomes a pure function of simulated state. The switch
// crossbar uses one per switch, with the input-port number as the index, so
// same-instant arrivals are serviced port-by-port exactly like a hardware
// crossbar arbiter, whichever engine or partition delivered them.
type Arbiter struct {
	eng     *Engine
	pending []arbWaiter
	// armed marks that a settle hook is registered for the current instant;
	// it resets before the grants so a granted process that re-Joins at the
	// same instant arms a fresh settle pass.
	armed bool
	// settleFn is the bound hook, allocated once at construction.
	settleFn func()
}

type arbWaiter struct {
	index int
	proc  *Proc
}

// NewArbiter returns an arbiter driven by eng's end-of-instant settle.
func NewArbiter(eng *Engine) *Arbiter {
	a := &Arbiter{eng: eng}
	a.settleFn = a.settle
	return a
}

// Join stages p behind the given index and parks it until the end-of-instant
// settle grants this instant's joiners in ascending index order. It returns
// when p's turn comes; joiners with equal indices keep their Join order.
func (a *Arbiter) Join(p *Proc, index int) {
	a.JoinOrWait(p, index)
	p.block()
}

// JoinOrWait is the non-blocking Join: it stages p behind the given index
// and returns at once. The grant wakes p — a step process continues in its
// next state, a parked helper process runs. Unlike the other OrWait forms
// there is nothing to re-check: the grant itself is p's turn.
func (a *Arbiter) JoinOrWait(p *Proc, index int) {
	a.pending = append(a.pending, arbWaiter{index: index, proc: p})
	if !a.armed {
		a.armed = true
		a.eng.Settle(a.settleFn)
	}
	p.wait()
}

// settle grants the instant's joiners. The unparks schedule the waiters'
// wake events in grant order, so the waiters resume — and take their
// downstream FIFO slots — in exactly that order at the same instant.
func (a *Arbiter) settle() {
	a.armed = false
	pend := a.pending
	// Stable insertion sort by index: joiner sets are a handful of ports, and
	// sorting in place keeps the settle path allocation-free.
	for i := 1; i < len(pend); i++ {
		w := pend[i]
		j := i
		for j > 0 && pend[j-1].index > w.index {
			pend[j] = pend[j-1]
			j--
		}
		pend[j] = w
	}
	// Reset before unparking: grants only schedule wake events, so no Join
	// can interleave with this loop, but a granted process may Join again
	// once it runs — that append must start a fresh pending set.
	a.pending = a.pending[:0]
	for _, w := range pend {
		w.proc.unpark()
	}
}
