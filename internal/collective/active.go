package collective

// The active data path: in-switch handlers on the aggregation overlay.
// Allreduce, reduce and reduce-scatter share one up-tree combine handler
// (LOAD_REDUCE style: children's vectors admit into per-port argument
// windows and fold into a switch-memory accumulator). They differ only in
// what the root does with the finished vector: allreduce and barrier
// multicast it down (STORE_MC style: each switch forwards the result once
// per child subtree and once per member host), reduce sends it to rank 0,
// and reduce-scatter sends each rank its slice. Scatter splits a segment
// per child rank range on the way down; gather concatenates rank slices on
// the way up. Key aggregation lives in keyagg.go.

import (
	"activesan/internal/aswitch"
	"activesan/internal/cache"
	"activesan/internal/cluster"
	"activesan/internal/host"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// Handler ids. The combine handler registers as "reduce", the name the
// telemetry per-handler histograms key on.
const (
	combineHandlerID = 16
	mcastHandlerID   = 17
	scatterHandlerID = 18
	gatherHandlerID  = 19
	kaHandlerID      = 20
)

// Flows for switch-to-host deliveries and the passive references.
const (
	reduceFlow  = 0x7050 // reduce/reduce-scatter result; + rank, binomial reduce-scatter
	mstFlow     = 0x7060 // + round, binomial reduce
	resultFlow  = 0x7100 // allreduce/barrier result multicast
	scatterFlow = 0x7110 // scatter slice delivery
	gatherFlow  = 0x7120 // gather result to rank 0
	kaFlow      = 0x7130 // key-aggregation batches root -> destination host
	rdFlow      = 0x7200 // + round, recursive-doubling exchange
	rdPreFlow   = 0x7300 // recursive-doubling pre-fold (non-power-of-two)
	rdPostFlow  = 0x7310 // recursive-doubling post-broadcast
	binFlow     = 0x7400 // + destination rank, binomial scatter/gather
	kaShufFlow  = 0x7500 // passive key-aggregation shuffle
)

// Down-phase argument windows sit above every up-phase slot (buildShape
// guards the invariant): one window suffices per direction because a switch
// has exactly one overlay parent, so at most one down message is in flight
// toward it at a time.
const (
	downAddr    = 48 * san.MTU
	scatterAddr = 50 * san.MTU
)

// accArena is how many accumulators a switch's combine memory holds;
// pipelined rounds rotate through them.
const accArena = 4

// segMsg carries a contiguous element segment [Lo, Lo+len(Vals)).
type segMsg struct {
	Lo   int
	Vals []int64
}

func segSize(n int) int64 {
	if n <= 0 {
		return 8
	}
	return int64(n) * 8
}

// upVec is one contributor's vector (or a subtree's partial) for one round;
// single-shot operations are round 0.
type upVec struct {
	Round int
	Vals  []int64
}

// roundAcc is one round's accumulator at one switch.
type roundAcc struct {
	acc []int64
	got int
}

// upState is one switch's combine state plus where its root delivers a
// finished vector.
type upState struct {
	rounds   []roundAcc
	expected int
	parent   san.NodeID
	argAddr  int64
	accBase  int64
	vecBytes int64
	childSw  []san.NodeID // allreduce/barrier multicast fan-out
	members  []san.NodeID
	hosts    []san.NodeID // rank order: reduce and reduce-scatter delivery
}

// downState is one switch's multicast fan-out.
type downState struct {
	childSw  []san.NodeID
	members  []san.NodeID
	vecBytes int64
}

// deliverDown forwards a completed result one overlay level: once per child
// switch (an active message that re-invokes the multicast handler) and once
// per member host (a plain data message on the result flow).
func deliverDown(x *aswitch.Ctx, vec []int64, childSw, members []san.NodeID, vecBytes int64) {
	for _, cs := range childSw {
		x.Send(aswitch.SendSpec{
			Dst: cs, Type: san.ActiveMsg, HandlerID: mcastHandlerID,
			Addr: downAddr, Size: vecBytes, Payload: vec,
		})
	}
	for _, dst := range members {
		x.Send(aswitch.SendSpec{
			Dst: dst, Type: san.Data, Addr: 0x1000,
			Size: vecBytes, Flow: resultFlow, Payload: vec,
		})
	}
}

// installCombine places the combine handler, with `rounds` accumulators,
// on every overlay-participating switch — plus the multicast handler for
// allreduce and barrier. Pass-through switches stay conventional.
func installCombine(c *cluster.Cluster, sh *shape, op Op, prm Params, rounds int) {
	multicast := op == Allreduce || op == Barrier
	for _, sw := range c.Switches {
		id := sw.ID()
		if c.Tree.Children[id] == 0 {
			continue
		}
		st := &upState{
			rounds:   make([]roundAcc, rounds),
			expected: c.Tree.Children[id],
			parent:   c.Tree.Parent[id],
			argAddr:  sh.slot[id] * san.MTU,
			accBase:  sw.Space().Alloc(prm.VectorBytes*accArena, 64),
			vecBytes: prm.VectorBytes,
			childSw:  sh.childSw[id],
			members:  sh.members[id],
			hosts:    sh.hostIDs,
		}
		for r := range st.rounds {
			acc := make([]int64, prm.Elems)
			for i := range acc {
				acc[i] = prm.Operator.Identity()
			}
			st.rounds[r].acc = acc
		}
		sw.SetState(combineHandlerID, st)
		sw.Register(combineHandlerID, "reduce", combineHandler(op, prm))
		if multicast {
			sw.SetState(mcastHandlerID, &downState{
				childSw: sh.childSw[id], members: sh.members[id], vecBytes: prm.VectorBytes,
			})
			sw.Register(mcastHandlerID, "coll-mcast", mcastHandler)
		}
	}
}

// combineHandler folds arriving vectors into the round's accumulator; the
// subtree-complete switch forwards its partial up, and the root delivers
// the result as op requires.
func combineHandler(op Op, prm Params) aswitch.HandlerFunc {
	return func(x *aswitch.Ctx) {
		st := x.State().(*upState)
		in := x.Args().(upVec)
		// Read the vector out of the data buffer (valid-bit stalls model
		// the overlap of copy and compute), then release it.
		if b, ok := x.CPU().ATB().Lookup(x.BaseAddr()); ok {
			x.ReadAll(b)
			x.DeallocateBuf(b)
		}
		x.Compute(switchAddCycles * int64(len(in.Vals)))
		ra := &st.rounds[in.Round]
		arena := st.accBase + int64(in.Round%accArena)*st.vecBytes
		for i, v := range in.Vals {
			// The accumulator lives in switch memory; one line in four is
			// touched architecturally (it fits the D-cache).
			if i%4 == 0 {
				x.MemLoad(arena + int64(i)*8)
			}
			ra.acc[i] = prm.Operator.Apply(ra.acc[i], v)
		}
		ra.got++
		if ra.got < st.expected {
			return
		}
		if st.parent != san.NoNode {
			x.Send(aswitch.SendSpec{
				Dst: st.parent, Type: san.ActiveMsg, HandlerID: combineHandlerID,
				Addr: st.argAddr, Size: st.vecBytes, Payload: upVec{Round: in.Round, Vals: ra.acc},
			})
			return
		}
		switch op {
		case Reduce:
			x.Send(aswitch.SendSpec{
				Dst: st.hosts[0], Type: san.Data, Addr: 0x1000,
				Size: st.vecBytes, Flow: reduceFlow, Payload: upVec{Round: in.Round, Vals: ra.acc},
			})
		case ReduceScatter:
			for j, dst := range st.hosts {
				lo, hi := sliceBounds(j, len(st.hosts), len(ra.acc))
				x.Send(aswitch.SendSpec{
					Dst: dst, Type: san.Data, Addr: 0x1000,
					Size: segSize(hi - lo), Flow: reduceFlow, Payload: segMsg{Lo: lo, Vals: ra.acc[lo:hi]},
				})
			}
		default:
			deliverDown(x, ra.acc, st.childSw, st.members, st.vecBytes)
		}
	}
}

// mcastHandler relays the finished result down one more overlay level.
func mcastHandler(x *aswitch.Ctx) {
	st := x.State().(*downState)
	vec := x.Args().([]int64)
	if b, ok := x.CPU().ATB().Lookup(x.BaseAddr()); ok {
		x.ReadAll(b)
		x.DeallocateBuf(b)
	}
	x.Compute(switchAddCycles * int64(len(vec)))
	deliverDown(x, vec, st.childSw, st.members, st.vecBytes)
}

// scatChild is one down-tree scatter target: a child switch and the element
// range its subtree owns.
type scatChild struct {
	id             san.NodeID
	elemLo, elemHi int
}

// scatState is one switch's scatter split plan.
type scatState struct {
	children []scatChild
	members  []san.NodeID
	ranks    []int
	p, elems int
}

// installScatter places the split handler on overlay switches.
func installScatter(c *cluster.Cluster, sh *shape, prm Params) {
	for _, sw := range c.Switches {
		id := sw.ID()
		if c.Tree.Children[id] == 0 {
			continue
		}
		st := &scatState{members: sh.members[id], ranks: sh.memberRank[id], p: sh.p, elems: prm.Elems}
		for _, cs := range sh.childSw[id] {
			lo, hi := sh.lo[cs], sh.hi[cs]
			if hi <= lo {
				continue
			}
			st.children = append(st.children, scatChild{
				id: cs, elemLo: lo * prm.Elems / sh.p, elemHi: hi * prm.Elems / sh.p,
			})
		}
		sw.SetState(scatterHandlerID, st)
		sw.Register(scatterHandlerID, "coll-scatter", scatterHandler)
	}
}

// scatterHandler splits an incoming segment per child subtree's rank range
// and hands each member host its slice.
func scatterHandler(x *aswitch.Ctx) {
	st := x.State().(*scatState)
	in := x.Args().(segMsg)
	if b, ok := x.CPU().ATB().Lookup(x.BaseAddr()); ok {
		x.ReadAll(b)
		x.DeallocateBuf(b)
	}
	x.Compute(switchAddCycles * int64(len(in.Vals)))
	for _, ch := range st.children {
		x.Send(aswitch.SendSpec{
			Dst: ch.id, Type: san.ActiveMsg, HandlerID: scatterHandlerID,
			Addr: scatterAddr, Size: segSize(ch.elemHi - ch.elemLo),
			Payload: segMsg{Lo: ch.elemLo, Vals: in.Vals[ch.elemLo-in.Lo : ch.elemHi-in.Lo]},
		})
	}
	for i, dst := range st.members {
		lo, hi := sliceBounds(st.ranks[i], st.p, st.elems)
		x.Send(aswitch.SendSpec{
			Dst: dst, Type: san.Data, Addr: 0x1000,
			Size: segSize(hi - lo), Flow: scatterFlow,
			Payload: segMsg{Lo: lo, Vals: in.Vals[lo-in.Lo : hi-in.Lo]},
		})
	}
}

// gathState is one switch's gather concatenation state.
type gathState struct {
	buf      []int64
	got      int
	expected int
	parent   san.NodeID
	argAddr  int64
	accBase  int64
	elemLo   int
	elemHi   int
	dst      san.NodeID // rank 0's id, for the root delivery
}

// installGather places the concatenation handler on overlay switches.
func installGather(c *cluster.Cluster, sh *shape, prm Params) {
	for _, sw := range c.Switches {
		id := sw.ID()
		if c.Tree.Children[id] == 0 {
			continue
		}
		st := &gathState{
			buf:      make([]int64, prm.Elems),
			expected: c.Tree.Children[id],
			parent:   c.Tree.Parent[id],
			argAddr:  sh.slot[id] * san.MTU,
			accBase:  sw.Space().Alloc(prm.VectorBytes, 64),
			elemLo:   sh.lo[id] * prm.Elems / sh.p,
			elemHi:   sh.hi[id] * prm.Elems / sh.p,
			dst:      sh.hostIDs[0],
		}
		sw.SetState(gatherHandlerID, st)
		sw.Register(gatherHandlerID, "coll-gather", gatherHandler)
	}
}

// gatherHandler writes arriving slices into the subtree buffer and forwards
// the concatenation once every child has reported.
func gatherHandler(x *aswitch.Ctx) {
	st := x.State().(*gathState)
	in := x.Args().(segMsg)
	if b, ok := x.CPU().ATB().Lookup(x.BaseAddr()); ok {
		x.ReadAll(b)
		x.DeallocateBuf(b)
	}
	x.Compute(switchAddCycles * int64(len(in.Vals)))
	for i := range in.Vals {
		if i%4 == 0 {
			x.MemLoad(st.accBase + int64(in.Lo+i)*8)
		}
		st.buf[in.Lo+i] = in.Vals[i]
	}
	st.got++
	if st.got < st.expected {
		return
	}
	seg := segMsg{Lo: st.elemLo, Vals: append([]int64(nil), st.buf[st.elemLo:st.elemHi]...)}
	if st.parent != san.NoNode {
		x.Send(aswitch.SendSpec{
			Dst: st.parent, Type: san.ActiveMsg, HandlerID: gatherHandlerID,
			Addr: st.argAddr, Size: segSize(len(seg.Vals)), Payload: seg,
		})
		return
	}
	x.Send(aswitch.SendSpec{
		Dst: st.dst, Type: san.Data, Addr: 0x1000,
		Size: segSize(len(seg.Vals)), Flow: gatherFlow, Payload: seg,
	})
}

// installHandlers places the operation's handlers on the overlay.
func installHandlers(c *cluster.Cluster, sh *shape, op Op, prm Params) {
	switch op {
	case Allreduce, Barrier, Reduce, ReduceScatter:
		installCombine(c, sh, op, prm, 1)
	case Scatter:
		installScatter(c, sh, prm)
	case Gather:
		installGather(c, sh, prm)
	case KeyAgg:
		installKeyAgg(c, sh, prm)
	}
}

// sendUp posts rank's vector for each of `rounds` rounds to its leaf
// switch's combine handler, reading it out of host memory first.
func sendUp(proc *sim.Proc, c *cluster.Cluster, sh *shape, h *host.Host,
	rank int, op Op, prm Params, rounds int) {
	region := h.Space().Alloc(prm.VectorBytes, 64)
	for r := 0; r < rounds; r++ {
		vec := roundVector(rank, r, prm.Elems)
		if op == Barrier {
			vec = []int64{1}
		}
		h.CPU().TouchRange(proc, region, prm.VectorBytes, cache.Load)
		h.SendMessage(proc, &san.Message{
			Hdr: san.Header{
				Dst: c.Tree.HostLeaf[h.ID()], Type: san.ActiveMsg,
				HandlerID: combineHandlerID, Addr: sh.slot[h.ID()] * san.MTU,
			},
			Size:    prm.VectorBytes,
			Payload: upVec{Round: r, Vals: vec},
		}, region)
	}
}

// recvPayload waits for the next message from src on flow and charges the
// receive overhead.
func recvPayload(proc *sim.Proc, h *host.Host, src san.NodeID, flow int64) any {
	comp := h.RecvFlow(proc, src, flow)
	h.CPU().BusyFor(proc, host.RecvOverhead)
	return comp.Payloads[0]
}

// runActiveHost is rank `rank`'s process in an active collective.
func runActiveHost(proc *sim.Proc, c *cluster.Cluster, sh *shape, h *host.Host,
	rank int, op Op, prm Params, out [][]int64, setFinish func(sim.Time)) {
	leaf := c.Tree.HostLeaf[h.ID()]
	switch op {
	case Allreduce, Barrier:
		sendUp(proc, c, sh, h, rank, op, prm, 1)
		out[rank] = append([]int64(nil), recvPayload(proc, h, leaf, resultFlow).([]int64)...)
		setFinish(proc.Now())

	case Reduce:
		sendUp(proc, c, sh, h, rank, op, prm, 1)
		if rank != 0 {
			out[rank] = []int64{}
			return
		}
		out[0] = append([]int64(nil), recvPayload(proc, h, sh.root, reduceFlow).(upVec).Vals...)
		setFinish(proc.Now())

	case ReduceScatter:
		sendUp(proc, c, sh, h, rank, op, prm, 1)
		out[rank] = append([]int64(nil), recvPayload(proc, h, sh.root, reduceFlow).(segMsg).Vals...)
		setFinish(proc.Now())

	case Scatter:
		if rank == 0 {
			master := HostVector(0, prm.Elems)
			region := h.Space().Alloc(prm.VectorBytes, 64)
			h.CPU().TouchRange(proc, region, prm.VectorBytes, cache.Load)
			// One full-size message into the fabric; the switches split it.
			h.SendMessage(proc, &san.Message{
				Hdr: san.Header{
					Dst: sh.root, Type: san.ActiveMsg,
					HandlerID: scatterHandlerID, Addr: scatterAddr,
				},
				Size:    prm.VectorBytes,
				Payload: segMsg{Lo: 0, Vals: master},
			}, region)
		}
		out[rank] = append([]int64(nil), recvPayload(proc, h, leaf, scatterFlow).(segMsg).Vals...)
		setFinish(proc.Now())

	case Gather:
		lo, hi := sliceBounds(rank, sh.p, prm.Elems)
		vals := HostVector(rank, prm.Elems)[lo:hi]
		size := segSize(hi - lo)
		region := h.Space().Alloc(size, 64)
		h.CPU().TouchRange(proc, region, size, cache.Load)
		h.SendMessage(proc, &san.Message{
			Hdr: san.Header{
				Dst: leaf, Type: san.ActiveMsg,
				HandlerID: gatherHandlerID, Addr: sh.slot[h.ID()] * san.MTU,
			},
			Size:    size,
			Payload: segMsg{Lo: lo, Vals: vals},
		}, region)
		if rank == 0 {
			out[0] = append([]int64(nil), recvPayload(proc, h, sh.root, gatherFlow).(segMsg).Vals...)
		} else {
			out[rank] = []int64{}
		}
		setFinish(proc.Now())

	case KeyAgg:
		runActiveKeyAggHost(proc, c, sh, h, rank, out, setFinish)
	}
}
