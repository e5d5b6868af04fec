package sim

import (
	"fmt"
	"sort"
	"time"
)

// This file implements the multi-engine mode: a Group of Engines, one per
// topology partition, advancing in conservative lookahead windows
// (Chandy–Misra–Bryant style, no rollback) separated by barriers at which
// cross-partition messages are exchanged. See PERFORMANCE.md ("Partitioned
// simulation") for the full scheme and the determinism contract.
//
// The design leans on two properties of the SAN model:
//
//   - A cut link's delivery latency is bounded below by the header's wire
//     time plus the propagation: a sender action at time u cannot land a
//     packet head at the receiver before u + 16 ns + Propagation
//     (san.DeliveryLookahead). That is the delivery lookahead, and
//     Channel.Deliver enforces it.
//
//   - A cut link's credit return is bounded below in two ways: the receiving
//     port frees the input buffer of the *oldest* outstanding delivery first
//     (credits come back in arrival order), never earlier than that
//     delivery's arrival plus the receiver's routing latency (the input
//     pipeline sleeps that long before any disposition), and never before
//     the receiving partition acts at all. That is the credit lookahead —
//     without it, a partition waiting on flow-control credits would collapse
//     to lockstep with its neighbor.
//
// Determinism: messages buffered during a window are injected at the next
// barrier in (time, channel index, channel sequence) order, so each engine's
// event order — and therefore every simulation outcome — is a pure function
// of the topology and the partition count-independent virtual times. Same-
// time events on *different* engines touch disjoint component state, so
// results are byte-identical at any partition count; see the property tests.
// Same-instant arrivals at one switch from inputs fed by different
// partitions are arbitrated by the switch's settle-phase crossbar
// (Engine.Settle + Arbiter) in input-port order — a pure function of the
// topology, independent of delivering engine and injection order — so the
// identity holds even for fully synchronized bursts (see PERFORMANCE.md,
// "Determinism contract").

// xmsg is one cross-partition handoff: fire act on the target engine at
// virtual time at. seq is the channel-local posting order, breaking same-time
// ties in send order.
type xmsg struct {
	at  Time
	seq int64
	act Action
}

// Channel carries messages across one direction of a partition cut link:
// packet deliveries flow src→dst, flow-control credits flow back dst→src.
// Each cut link direction gets its own Channel — the credit bound relies on
// per-link FIFO credit return, which does not hold across links.
//
// Concurrency contract: Deliver is called only by the source engine's
// window, Credit only by the destination's; the coordinator drains both at
// barriers. A window runs either on the coordinator itself or on a worker
// whose start/done channel handoffs order every access, so no locking is
// needed.
type Channel struct {
	g   *Group
	idx int // global channel index: the deterministic same-time tie-break
	src int // sending partition rank
	dst int // receiving partition rank

	lookahead Time // min sender-action → delivery latency, enforced by Deliver
	creditLA  Time // min delivery → credit-return latency at the receiver

	srcEng *Engine
	dstEng *Engine

	deliv []xmsg
	cred  []xmsg
	dseq  int64
	cseq  int64

	// outstanding holds delivery times injected at the receiver whose
	// credits have not yet come back, in arrival order (coordinator only).
	// The head is the delivery whose credit returns next.
	outstanding []Time
	outHead     int
	inOutst     bool // on the group's outstanding-channel list
}

// Deliver posts a packet arrival: act fires on the receiving engine at time
// at, which must be no sooner than the lookahead after the source engine's
// now — the bound every horizon rests on. A sooner delivery panics: it
// could land in the receiver's past, or at its current instant after that
// instant's settle phase has run. The first post since the last barrier
// registers the channel on its source rank's dirty list, so barriers scan
// only channels that carried traffic.
func (c *Channel) Deliver(at Time, act Action) {
	if bound := c.srcEng.now + c.lookahead; at < bound {
		panic(fmt.Sprintf("sim: channel %d delivers at %dps, before its lookahead bound %dps", c.idx, int64(at), int64(bound)))
	}
	if len(c.deliv) == 0 {
		c.g.ddirty[c.src] = append(c.g.ddirty[c.src], c)
	}
	c.dseq++
	c.deliv = append(c.deliv, xmsg{at: at, seq: c.dseq, act: act})
}

// Credit posts a flow-control credit back to the sending engine, at the
// receiver's current virtual time: act fires there.
func (c *Channel) Credit(act Action) {
	if len(c.cred) == 0 {
		c.g.cdirty[c.dst] = append(c.g.cdirty[c.dst], c)
	}
	c.cseq++
	c.cred = append(c.cred, xmsg{at: c.dstEng.now, seq: c.cseq, act: act})
}

// groupWorker is one partition's persistent runner goroutine: the
// coordinator sends a window deadline on start and receives the window's
// wall-clock cost and recovered panic (or nil) on done.
type groupWorker struct {
	start chan Time
	done  chan windowResult
}

// windowResult is one window's wall-clock cost and recovered panic, if any.
type windowResult struct {
	busy time.Duration
	pp   *procPanic
}

// Dispatch selects where a Group runs the windows of each barrier round.
// Windows within a round are independent, so every mode yields the same
// results, traces and event counts; only wall-clock cost differs.
type Dispatch int

const (
	// DispatchAdaptive, the default, sends a round to the worker
	// goroutines only when at least two active ranks each hold
	// concurrentMin queued events inside their windows, and runs every
	// other round inline.
	DispatchAdaptive Dispatch = iota
	// DispatchInline runs every window on the coordinator in rank order,
	// so a partitioned run's wall time is its work plus the barrier's, on
	// any number of cores.
	DispatchInline
	// DispatchConcurrent sends every round to the workers, however small,
	// so race tests see partitions run side by side.
	DispatchConcurrent
)

// String names the mode.
func (d Dispatch) String() string {
	switch d {
	case DispatchAdaptive:
		return "adaptive"
	case DispatchInline:
		return "inline"
	case DispatchConcurrent:
		return "concurrent"
	}
	return fmt.Sprintf("Dispatch(%d)", int(d))
}

// concurrentMin is the adaptive dispatch threshold in queued events per
// window. Below it a window costs less than the two goroutine handoffs that
// would overlap it with another: BenchmarkGroupWindow measures the
// crossover, and PERFORMANCE.md ("Partitioned simulation") records it.
const concurrentMin = 512

// groupEngine pads a partition's engine so that no two engines of a Group
// share a cache line: every event writes its engine's clock and counters
// while a neighbouring rank's window reads its own deadline and flags.
type groupEngine struct {
	Engine
	_ [cacheLine]byte
}

// cacheLine is the coherence granule groupEngine pads to.
const cacheLine = 64

// injItem is one message flattened for barrier injection, carrying its
// deterministic sort key (at, tie, seq).
type injItem struct {
	at   Time
	tie  int // 2*channel index, +1 for credits
	seq  int64
	ch   *Channel
	cred bool
	act  Action
}

// injSorter orders a Group's injection scratch by (at, tie, seq). It is
// boxed into an interface once at NewGroup so the per-barrier sort.Sort call
// allocates nothing — the barrier loop stays zero-alloc in steady state
// (see TestGroupBarrierZeroAllocs).
type injSorter struct{ g *Group }

func (s *injSorter) Len() int { return len(s.g.inj) }
func (s *injSorter) Swap(i, j int) {
	inj := s.g.inj
	inj[i], inj[j] = inj[j], inj[i]
}
func (s *injSorter) Less(i, j int) bool {
	x, y := &s.g.inj[i], &s.g.inj[j]
	if x.at != y.at {
		return x.at < y.at
	}
	if x.tie != y.tie {
		return x.tie < y.tie
	}
	return x.seq < y.seq
}

// Group runs a set of Engines as one partitioned simulation. Build each
// partition's components on its own engine, Connect a Channel per cut-link
// direction, then Run. All Group methods must be called from a single
// goroutine (the coordinator). Each barrier round runs its windows either
// concurrently on one worker goroutine per rank or inline on the
// coordinator; SetDispatch picks the rule, and by default only rounds with
// at least two wide windows go to the workers.
type Group struct {
	engines  []*Engine
	channels []*Channel
	workers  []groupWorker

	// Per-rank barrier scratch, reused across rounds.
	next    []Time // next pending event (Forever = drained)
	reach   []Time // earliest possible future action, after relaxation
	horizon []Time // earliest possible inbound message
	active  []bool // ranks running in the current round
	dl      []Time // per-rank window deadline for the current round
	inj     []injItem
	injSort sort.Interface // pre-boxed injSorter

	// Barriers scan only what changed, not every channel. ddirty[r] lists
	// channels rank r posted deliveries on this window (written only by r's
	// goroutine, drained by the coordinator — the start/done handoffs order
	// the accesses), cdirty[r] likewise for credits posted by receiver rank
	// r. outst lists channels with outstanding deliveries (coordinator only,
	// compacted lazily); pairLA[s][d] is the min lookahead over all s→d
	// channels, the only per-channel figure horizon relaxation needs.
	ddirty [][]*Channel
	cdirty [][]*Channel
	outst  []*Channel
	pairLA [][]Time
	// pairCredLA[s][d] is the min lookahead+creditLA over all s→d channels:
	// the earliest a credit from a delivery s has *not yet sent* can come
	// back. Without this horizon term a partition with no inbound delivery
	// channel would run unboundedly ahead of its own future credit returns.
	pairCredLA [][]Time

	started  bool
	shutdown bool
	mode     Dispatch

	rounds     int64
	microSteps int64
	concRounds int64
	busyTotal  time.Duration
	busyCrit   time.Duration
	evTotal    int64
	evCrit     int64
	ev0        []int64 // per-rank Events() at window start (dispatch scratch)
}

// NewGroup creates n fresh engines joined into a partition group.
func NewGroup(n int) *Group {
	if n < 1 {
		panic("sim: group needs at least one partition")
	}
	g := &Group{
		engines: make([]*Engine, n),
		workers: make([]groupWorker, n),
		next:    make([]Time, n),
		reach:   make([]Time, n),
		horizon: make([]Time, n),
		active:  make([]bool, n),
		dl:      make([]Time, n),
		ddirty:  make([][]*Channel, n),
		cdirty:  make([][]*Channel, n),
		pairLA:  make([][]Time, n),
		ev0:     make([]int64, n),
	}
	g.pairCredLA = make([][]Time, n)
	g.injSort = &injSorter{g}
	padded := make([]groupEngine, n)
	for i := range g.engines {
		padded[i].init()
		g.engines[i] = &padded[i].Engine
		g.workers[i] = groupWorker{start: make(chan Time), done: make(chan windowResult)}
		g.pairLA[i] = make([]Time, n)
		g.pairCredLA[i] = make([]Time, n)
		for j := range g.pairLA[i] {
			g.pairLA[i][j] = Forever
			g.pairCredLA[i][j] = Forever
		}
	}
	return g
}

// Len reports the partition count.
func (g *Group) Len() int { return len(g.engines) }

// Engine returns partition rank i's engine.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// Rounds reports how many barrier rounds Run has executed — the partition
// overhead metric benchmarks track.
func (g *Group) Rounds() int64 { return g.rounds }

// MicroSteps reports how many rounds degenerated to single-instant steps
// (cross-partition activity dense enough that no window fit the lookahead).
func (g *Group) MicroSteps() int64 { return g.microSteps }

// ConcurrentRounds reports how many rounds ran their windows on the worker
// goroutines. Under adaptive dispatch it is a pure function of the
// workload, like Rounds.
func (g *Group) ConcurrentRounds() int64 { return g.concRounds }

// BusyTime reports the summed wall-clock cost of every window run so far —
// the total engine work, regardless of how many cores overlapped it.
func (g *Group) BusyTime() time.Duration { return g.busyTotal }

// CriticalPath reports the summed per-round *maximum* window cost: the
// engine work on the rounds' critical path, which no number of cores can
// overlap. Under concurrent dispatch it and BusyTime also clock time a
// worker spent descheduled.
func (g *Group) CriticalPath() time.Duration { return g.busyCrit }

// EventsTotal reports how many events fired across all partitions, and
// EventsCritical the summed per-round maximum — the event count on the
// critical path. Unlike the wall-clock pair above, both are deterministic
// (a replay of the same workload yields the same counts under every
// Dispatch), so EventsTotal/EventsCritical measures the workload's
// available parallelism free of scheduler noise: a preemption inside one
// rank's window inflates that round's wall-clock maximum but cannot change
// how many events the window executed.
func (g *Group) EventsTotal() int64 { return g.evTotal }

// EventsCritical — see EventsTotal.
func (g *Group) EventsCritical() int64 { return g.evCrit }

// SetDispatch selects where Run executes each round's windows; the default
// is DispatchAdaptive. Results are identical under every mode.
func (g *Group) SetDispatch(d Dispatch) { g.mode = d }

// Connect registers the channel for one cut-link direction: deliveries run
// on dst's engine, credits return to src's. lookahead must be positive (a
// zero-latency cut admits no conservative window); creditLA may be zero.
func (g *Group) Connect(src, dst int, lookahead, creditLA Time) *Channel {
	if g.started {
		panic("sim: Connect after Group.Run")
	}
	if src == dst {
		panic("sim: cross-partition channel within one partition")
	}
	if lookahead <= 0 {
		panic("sim: cross-partition lookahead must be positive")
	}
	if creditLA < 0 {
		panic("sim: negative credit lookahead")
	}
	c := &Channel{
		g: g, idx: len(g.channels), src: src, dst: dst,
		lookahead: lookahead, creditLA: creditLA,
		srcEng: g.engines[src], dstEng: g.engines[dst],
	}
	g.channels = append(g.channels, c)
	if lookahead < g.pairLA[src][dst] {
		g.pairLA[src][dst] = lookahead
	}
	if cla := satAdd(lookahead, creditLA); cla < g.pairCredLA[src][dst] {
		g.pairCredLA[src][dst] = cla
	}
	return c
}

// satAdd adds a non-negative delta to a time, saturating at Forever.
func satAdd(a, b Time) Time {
	if a >= Forever-b {
		return Forever
	}
	return a + b
}

// Run executes the partitioned simulation until every engine drains and no
// cross-partition message is pending, and returns the latest engine clock.
// Panics raised inside partition processes re-raise here (lowest rank first
// when several windows fail), matching Engine.Run.
func (g *Group) Run() Time {
	g.startWorkers()
	for {
		g.injectAll()
		T := g.minNext()
		if T == Forever {
			break
		}
		g.rounds++
		g.computeHorizons()
		if !g.runRound() {
			g.microStep(T)
		}
	}
	latest := Time(0)
	for _, e := range g.engines {
		if e.now > latest {
			latest = e.now
		}
	}
	return latest
}

// Shutdown unwinds every partition's processes and stops the worker
// goroutines; the group must not be used afterwards.
func (g *Group) Shutdown() {
	if g.shutdown {
		return
	}
	g.shutdown = true
	for i := range g.workers {
		close(g.workers[i].start)
	}
	for _, e := range g.engines {
		e.Shutdown()
	}
}

func (g *Group) startWorkers() {
	if g.started {
		return
	}
	g.started = true
	for i := range g.workers {
		go func(rank int, e *Engine, w groupWorker) {
			for deadline := range w.start {
				w.done <- runWindowTimed(e, rank, deadline)
			}
		}(i, g.engines[i], g.workers[i])
	}
}

// runWindowTimed runs one window on the calling goroutine, a worker or the
// coordinator, and reports its wall-clock cost. A propagated process panic
// comes back as a value the coordinator re-raises on its own goroutine.
func runWindowTimed(e *Engine, rank int, deadline Time) (res windowResult) {
	t0 := time.Now()
	defer func() {
		res.busy = time.Since(t0)
		if r := recover(); r != nil {
			if p, ok := r.(*procPanic); ok {
				res.pp = p
			} else {
				res.pp = &procPanic{proc: fmt.Sprintf("partition %d", rank), value: r}
			}
		}
	}()
	e.runWindow(deadline)
	return res
}

// injectAll drains every channel's buffered messages into their target
// engines in deterministic (time, channel, sequence) order, maintaining
// per-channel outstanding-delivery state for the credit lookahead.
func (g *Group) injectAll() {
	g.inj = g.inj[:0]
	for r := range g.ddirty {
		for _, c := range g.ddirty[r] {
			for _, m := range c.deliv {
				g.inj = append(g.inj, injItem{at: m.at, tie: 2 * c.idx, seq: m.seq, ch: c, act: m.act})
			}
			c.deliv = c.deliv[:0]
		}
		g.ddirty[r] = g.ddirty[r][:0]
		for _, c := range g.cdirty[r] {
			for _, m := range c.cred {
				g.inj = append(g.inj, injItem{at: m.at, tie: 2*c.idx + 1, seq: m.seq, ch: c, cred: true, act: m.act})
			}
			c.cred = c.cred[:0]
		}
		g.cdirty[r] = g.cdirty[r][:0]
	}
	if len(g.inj) == 0 {
		return
	}
	// The key (at, tie, seq) is total — tie is unique per channel direction
	// and seq unique within it — so an unstable sort is already deterministic.
	sort.Sort(g.injSort)
	for i := range g.inj {
		it := &g.inj[i]
		if it.cred {
			// Credits return in delivery order: retire the oldest
			// outstanding delivery on this channel.
			it.ch.outHead++
			if it.ch.outHead == len(it.ch.outstanding) {
				it.ch.outstanding = it.ch.outstanding[:0]
				it.ch.outHead = 0
			}
			it.ch.srcEng.Post(it.at, it.act)
		} else {
			// Deliveries are injected in (at, seq) order per channel, so the
			// outstanding list stays sorted by arrival.
			it.ch.outstanding = append(it.ch.outstanding, it.at)
			if !it.ch.inOutst {
				it.ch.inOutst = true
				g.outst = append(g.outst, it.ch)
			}
			it.ch.dstEng.Post(it.at, it.act)
		}
		it.act = nil
		it.ch = nil
	}
}

// minNext refreshes per-rank next-event times and returns the global minimum
// (Forever when every engine has drained).
func (g *Group) minNext() Time {
	T := Forever
	for i, e := range g.engines {
		if at, ok := e.nextEventTime(); ok {
			g.next[i] = at
			if at < T {
				T = at
			}
		} else {
			g.next[i] = Forever
		}
	}
	return T
}

// computeHorizons bounds, per partition, the earliest message any other
// partition can still send it. reach[r] is first relaxed to a lower bound on
// r's earliest possible future action — its own next event, or the earliest
// message a chain of other partitions could wake it with (Bellman–Ford over
// the channel graph; stable in at most n passes since lookaheads are
// positive). horizon[i] is then the tightest inbound bound: deliveries on a
// channel can arrive no earlier than the sender's reach plus the channel's
// lookahead, and credits no earlier than the oldest outstanding delivery
// plus the receiver's pipeline latency — and in no case before the receiver
// acts at all.
func (g *Group) computeHorizons() {
	// Compact the outstanding-channel list: channels whose last credit came
	// back leave it here, the one coordinator-side sweep point.
	keep := g.outst[:0]
	for _, c := range g.outst {
		if c.outHead < len(c.outstanding) {
			keep = append(keep, c)
		} else {
			c.inOutst = false
		}
	}
	g.outst = keep

	copy(g.reach, g.next)
	for pass := 0; pass <= len(g.engines); pass++ {
		changed := false
		// Delivery relaxation needs only the min lookahead per rank pair,
		// not the channels themselves.
		for s := range g.pairLA {
			for d, la := range g.pairLA[s] {
				if la == Forever {
					continue
				}
				if b := satAdd(g.reach[s], la); b < g.reach[d] {
					g.reach[d] = b
					changed = true
				}
			}
		}
		for _, c := range g.outst {
			b := satAdd(c.outstanding[c.outHead], c.creditLA)
			if g.reach[c.dst] > b {
				b = g.reach[c.dst]
			}
			if b < g.reach[c.src] {
				g.reach[c.src] = b
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for i := range g.horizon {
		g.horizon[i] = Forever
	}
	for s := range g.pairLA {
		for d, la := range g.pairLA[s] {
			if la == Forever {
				continue
			}
			if b := satAdd(g.reach[s], la); b < g.horizon[d] {
				g.horizon[d] = b
			}
			// Credits from deliveries s has *not yet sent* bound s too: a
			// future send at reach[s] or later can echo a credit back no
			// earlier than the round trip's two lookaheads. Without this
			// term a partition with no inbound delivery channel would run
			// unboundedly ahead of its own credit returns.
			if b := satAdd(g.reach[s], g.pairCredLA[s][d]); b < g.horizon[s] {
				g.horizon[s] = b
			}
		}
	}
	for _, c := range g.outst {
		b := satAdd(c.outstanding[c.outHead], c.creditLA)
		if g.reach[c.dst] > b {
			b = g.reach[c.dst]
		}
		if b < g.horizon[c.src] {
			g.horizon[c.src] = b
		}
	}
}

// runRound runs a window on every partition whose next event lies strictly
// inside its horizon (deadline horizon-1) and reports whether any partition
// ran. The horizon guarantees no message can arrive inside a window, so the
// windows are independent: dispatch may overlap them on the workers or run
// them one after another on the coordinator, with identical results.
func (g *Group) runRound() bool {
	ran := false
	for i := range g.engines {
		g.dl[i] = g.horizon[i] - 1
		g.active[i] = g.next[i] <= g.dl[i]
		ran = ran || g.active[i]
	}
	if !ran {
		return false
	}
	g.dispatch()
	return true
}

// microStep resolves a round where no window fit: every partition holding an
// event at the global minimum T settles that single instant. Messages
// produced at T inject at T — never into any engine's past, because an
// engine that previously ran ahead of T did so only under a horizon proving
// no such message could exist.
func (g *Group) microStep(T Time) {
	g.microSteps++
	for i := range g.engines {
		g.dl[i] = T
		g.active[i] = g.next[i] == T
	}
	g.dispatch()
}

// dispatch runs every active rank's window at its g.dl deadline, on the
// workers or inline as concurrentRound decides, then re-raises the
// lowest-ranked window panic on the coordinator goroutine. Both paths share
// one accounting loop, taking ranks in order.
func (g *Group) dispatch() {
	concurrent := g.concurrentRound()
	if concurrent {
		g.concRounds++
	}
	// Events() is read on the coordinator while each engine is quiescent:
	// before its start send and after its done receive, both of which
	// order memory with the worker goroutine.
	for i, e := range g.engines {
		if g.active[i] {
			g.ev0[i] = e.Events()
			if concurrent {
				g.workers[i].start <- g.dl[i]
			}
		}
	}
	var fatal *procPanic
	var crit time.Duration
	var evCrit int64
	for i, e := range g.engines {
		if !g.active[i] {
			continue
		}
		var r windowResult
		if concurrent {
			r = <-g.workers[i].done
		} else {
			r = runWindowTimed(e, i, g.dl[i])
		}
		g.busyTotal += r.busy
		crit = max(crit, r.busy)
		dev := e.Events() - g.ev0[i]
		g.evTotal += dev
		evCrit = max(evCrit, dev)
		if r.pp != nil && fatal == nil {
			fatal = r.pp
		}
	}
	g.busyCrit += crit
	g.evCrit += evCrit
	if fatal != nil {
		panic(fatal)
	}
}

// concurrentRound reports whether the current round's windows go to the
// workers. Adaptive dispatch sends a round only when at least two active
// ranks each already hold concurrentMin queued events inside their windows:
// a narrower window finishes before the handoffs that would overlap it pay
// off. Queued events are simulation state, so the choice, and the
// ConcurrentRounds count, repeat exactly from run to run.
func (g *Group) concurrentRound() bool {
	switch g.mode {
	case DispatchInline:
		return false
	case DispatchConcurrent:
		return true
	}
	left := 0 // active ranks not yet counted
	for _, on := range g.active {
		if on {
			left++
		}
	}
	wide := 0
	for i, e := range g.engines {
		if wide == 2 || wide+left < 2 {
			break
		}
		if !g.active[i] {
			continue
		}
		left--
		// pending bounds the count from above at no cost.
		if e.pending() >= concurrentMin && e.queuedBy(g.dl[i], concurrentMin) == concurrentMin {
			wide++
		}
	}
	return wide == 2
}
