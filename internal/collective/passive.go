package collective

// The passive references: host-only algorithms over plain data messages,
// the baselines every active run is measured against and must byte-match.
// Allreduce/barrier use recursive doubling (the standard host-side MPI
// algorithm, and a stronger baseline than reduce-then-broadcast); reduce is
// the paper's binomial (MST) tree, whose latency lower bound is
// ceil(log2 p)(a+l), and reduce-scatter follows it with a binomial scatter;
// scatter and gather use binomial trees; key aggregation is a direct
// combiner shuffle (fold locally, exchange per home rank, fold again).

import (
	"activesan/internal/cache"
	"activesan/internal/cluster"
	"activesan/internal/host"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// runPassiveHost is rank `rank`'s process in a passive collective.
func runPassiveHost(proc *sim.Proc, c *cluster.Cluster, sh *shape, h *host.Host,
	rank int, op Op, prm Params, out [][]int64, setFinish func(sim.Time)) {
	switch op {
	case Allreduce, Barrier:
		runRecursiveDoubling(proc, sh, h, rank, op, prm, out, setFinish)
	case Reduce:
		vec, _ := binomialReduce(proc, sh, h, rank, prm)
		if rank != 0 {
			out[rank] = []int64{}
			return
		}
		out[0] = vec
		setFinish(proc.Now())
	case ReduceScatter:
		vec, region := binomialReduce(proc, sh, h, rank, prm)
		hold := scatterDown(proc, sh, h, rank, prm, vec, region, reduceFlow)
		lo, hi := sliceBounds(rank, sh.p, prm.Elems)
		out[rank] = append([]int64(nil), hold[lo:hi]...)
		setFinish(proc.Now())
	case Scatter:
		runBinomialScatter(proc, sh, h, rank, prm, out, setFinish)
	case Gather:
		runBinomialGather(proc, sh, h, rank, prm, out, setFinish)
	case KeyAgg:
		runShuffleKeyAgg(proc, sh, h, rank, out, setFinish)
	}
}

// HostAlgorithm names the host-only algorithm runPassiveHost runs for op,
// as the sweeps label their passive curves.
func HostAlgorithm(op Op) string {
	switch op {
	case Reduce, ReduceScatter:
		return "MST"
	case Scatter, Gather:
		return "binomial tree"
	case KeyAgg:
		return "combiner shuffle"
	default:
		return "recursive doubling"
	}
}

// combineInto folds a freshly received vector into vec, charging the
// host-side read-and-add costs.
func combineInto(proc *sim.Proc, h *host.Host, region int64, prm Params, vec, other []int64) {
	h.CPU().TouchRange(proc, 0x1000, prm.VectorBytes, cache.Load)
	h.CPU().TouchRange(proc, region, prm.VectorBytes, cache.Load)
	h.CPU().Compute(proc, hostAddInstr*int64(len(vec)))
	for i := range vec {
		vec[i] = prm.Operator.Apply(vec[i], other[i])
	}
}

// binomialReduce folds every rank's vector into rank 0 over the binomial
// (MST) tree: in round k a rank with bit k set sends its partial to rank-k
// and drops out, the others fold in rank+k's. It returns the rank's partial
// — the full result at rank 0 — and the host region holding it.
func binomialReduce(proc *sim.Proc, sh *shape, h *host.Host, rank int, prm Params) ([]int64, int64) {
	region := h.Space().Alloc(prm.VectorBytes, 64)
	vec := HostVector(rank, prm.Elems)
	h.CPU().TouchRange(proc, region, prm.VectorBytes, cache.Load)
	for k := 1; k < sh.p; k <<= 1 {
		if rank&k != 0 {
			h.SendMessage(proc, &san.Message{
				Hdr:     san.Header{Dst: sh.hostIDs[rank-k], Type: san.Data, Addr: 0x1000, Flow: mstFlow + int64(k)},
				Size:    prm.VectorBytes,
				Payload: vec,
			}, region)
			break
		}
		if rank+k < sh.p {
			other := recvPayload(proc, h, sh.hostIDs[rank+k], mstFlow+int64(k)).([]int64)
			// Read the freshly DMA'd vector (cold lines) and combine.
			combineInto(proc, h, region, prm, vec, other)
		}
	}
	return vec, region
}

// runRecursiveDoubling: log2(p) pairwise exchange rounds; ranks past the
// largest power of two fold into a partner first and get the result back
// after the loop.
func runRecursiveDoubling(proc *sim.Proc, sh *shape, h *host.Host,
	rank int, op Op, prm Params, out [][]int64, setFinish func(sim.Time)) {
	p := sh.p
	vec := HostVector(rank, prm.Elems)
	if op == Barrier {
		vec = []int64{1}
	}
	region := h.Space().Alloc(prm.VectorBytes, 64)
	h.CPU().TouchRange(proc, region, prm.VectorBytes, cache.Load)

	p2 := 1
	for p2*2 <= p {
		p2 *= 2
	}
	rem := p - p2

	send := func(dst int, flow int64, v []int64) {
		// Snapshot the payload: vec mutates in later rounds while the copy
		// is still in flight.
		h.SendMessage(proc, &san.Message{
			Hdr:     san.Header{Dst: sh.hostIDs[dst], Type: san.Data, Addr: 0x1000, Flow: flow},
			Size:    prm.VectorBytes,
			Payload: append([]int64(nil), v...),
		}, region)
	}
	recv := func(src int, flow int64) []int64 {
		return recvPayload(proc, h, sh.hostIDs[src], flow).([]int64)
	}

	if rank >= p2 {
		send(rank-p2, rdPreFlow, vec)
		vec = append([]int64(nil), recv(rank-p2, rdPostFlow)...)
	} else {
		if rank < rem {
			combineInto(proc, h, region, prm, vec, recv(rank+p2, rdPreFlow))
		}
		for k := 1; k < p2; k <<= 1 {
			partner := rank ^ k
			send(partner, rdFlow+int64(k), vec)
			combineInto(proc, h, region, prm, vec, recv(partner, rdFlow+int64(k)))
		}
		if rank < rem {
			send(rank+p2, rdPostFlow, vec)
		}
	}
	out[rank] = append([]int64(nil), vec...)
	setFinish(proc.Now())
}

// runBinomialScatter: rank 0's vector splits down the binomial tree.
func runBinomialScatter(proc *sim.Proc, sh *shape, h *host.Host,
	rank int, prm Params, out [][]int64, setFinish func(sim.Time)) {
	var hold []int64
	if rank == 0 {
		hold = HostVector(0, prm.Elems)
		region := h.Space().Alloc(prm.VectorBytes, 64)
		h.CPU().TouchRange(proc, region, prm.VectorBytes, cache.Load)
	}
	hold = scatterDown(proc, sh, h, rank, prm, hold, h.Space().Alloc(prm.VectorBytes, 64), binFlow)
	lo, hi := sliceBounds(rank, sh.p, prm.Elems)
	out[rank] = append([]int64(nil), hold[lo:hi]...)
	setFinish(proc.Now())
}

// scatterDown is one rank's part of a binomial scatter of rank 0's vector
// hold (other ranks' hold is ignored). Every other rank first receives its
// range's data from its binomial parent; then each round a rank hands the
// upper half of its held rank range to rank+k, sending from host region
// on flow+destination. It returns the vector the rank holds.
func scatterDown(proc *sim.Proc, sh *shape, h *host.Host,
	rank int, prm Params, hold []int64, region, flow int64) []int64 {
	p := sh.p
	if rank != 0 {
		src := rank &^ (rank & -rank) // clear lowest set bit
		s := recvPayload(proc, h, sh.hostIDs[src], flow+int64(rank)).(segMsg)
		hold = make([]int64, prm.Elems)
		copy(hold[s.Lo:], s.Vals)
	}
	span := 1
	for span < p {
		span <<= 1
	}
	for k := span >> 1; k >= 1; k >>= 1 {
		if rank%k != 0 || rank&k != 0 {
			continue
		}
		d := rank + k
		if d >= p {
			continue
		}
		// Send rank d the data for ranks [d, d+k).
		lo, _ := sliceBounds(d, p, prm.Elems)
		end := d + k
		if end > p {
			end = p
		}
		_, hi := sliceBounds(end-1, p, prm.Elems)
		h.SendMessage(proc, &san.Message{
			Hdr:     san.Header{Dst: sh.hostIDs[d], Type: san.Data, Addr: 0x1000, Flow: flow + int64(d)},
			Size:    segSize(hi - lo),
			Payload: segMsg{Lo: lo, Vals: hold[lo:hi]},
		}, region)
	}
	return hold
}

// runBinomialGather: the scatter tree inverted — each rank accumulates the
// slices of ranks [rank, rank+k) and hands the run to rank-k.
func runBinomialGather(proc *sim.Proc, sh *shape, h *host.Host,
	rank int, prm Params, out [][]int64, setFinish func(sim.Time)) {
	p := sh.p
	span := 1
	for span < p {
		span <<= 1
	}
	buf := make([]int64, prm.Elems)
	myLo, myHi := sliceBounds(rank, p, prm.Elems)
	copy(buf[myLo:myHi], HostVector(rank, prm.Elems)[myLo:myHi])
	region := h.Space().Alloc(prm.VectorBytes, 64)
	h.CPU().TouchRange(proc, region, segSize(myHi-myLo), cache.Load)

	// Element range currently held: ranks [rank, upper).
	upper := rank + 1
	for k := 1; k < span; k <<= 1 {
		if rank&k != 0 {
			elemLo := rank * prm.Elems / p
			elemHi := upper * prm.Elems / p
			h.SendMessage(proc, &san.Message{
				Hdr:     san.Header{Dst: sh.hostIDs[rank-k], Type: san.Data, Addr: 0x1000, Flow: binFlow + int64(rank)},
				Size:    segSize(elemHi - elemLo),
				Payload: segMsg{Lo: elemLo, Vals: buf[elemLo:elemHi]},
			}, region)
			break
		}
		if rank+k < p {
			s := recvPayload(proc, h, sh.hostIDs[rank+k], binFlow+int64(rank+k)).(segMsg)
			h.CPU().TouchRange(proc, 0x1000, segSize(len(s.Vals)), cache.Load)
			copy(buf[s.Lo:], s.Vals)
			upper = rank + 2*k
			if upper > p {
				upper = p
			}
		}
	}
	if rank == 0 {
		out[0] = buf
	} else {
		out[rank] = []int64{}
	}
	setFinish(proc.Now())
}

// runShuffleKeyAgg: fold locally, send each home rank its combined partition
// (every pair exchanges exactly one message, empty ones included so the
// receive count is fixed), fold the arrivals.
func runShuffleKeyAgg(proc *sim.Proc, sh *shape, h *host.Host,
	rank int, out [][]int64, setFinish func(sim.Time)) {
	p := sh.p
	recs := RecordsFor(rank)
	region := h.Space().Alloc(kaSize(len(recs)), 64)
	// All ranks start their shuffle at the same instant: the settle-phase
	// crossbar arbitrates same-instant arrivals by input port, so even a
	// perfectly synchronized all-to-all burst is byte-identical at any
	// partition count (see PERFORMANCE.md, "Determinism contract").
	h.CPU().TouchRange(proc, region, kaSize(len(recs)), cache.Load)
	h.CPU().Compute(proc, hostAddInstr*int64(len(recs)))

	// Local combine, partitioned by home rank with keys in sorted order.
	local := map[int64]int64{}
	for _, kv := range recs {
		local[kv.K] += kv.V
	}
	parts := make([][]KV, p)
	for _, row := range flattenPairs(local) {
		r := int(row.K) % p
		parts[r] = append(parts[r], row)
	}

	for d := 0; d < p; d++ {
		if d == rank {
			continue
		}
		h.SendMessage(proc, &san.Message{
			Hdr:     san.Header{Dst: sh.hostIDs[d], Type: san.Data, Addr: 0x1000, Flow: kaShufFlow + int64(rank)},
			Size:    kaSize(len(parts[d])),
			Payload: kaBatch{Recs: parts[d]},
		}, region)
	}

	sums := map[int64]int64{}
	for _, kv := range parts[rank] {
		sums[kv.K] += kv.V
	}
	for j := 0; j < p; j++ {
		if j == rank {
			continue
		}
		m := recvPayload(proc, h, sh.hostIDs[j], kaShufFlow+int64(j)).(kaBatch)
		h.CPU().TouchRange(proc, 0x1000, kaSize(len(m.Recs)), cache.Load)
		h.CPU().Compute(proc, hostAddInstr*int64(len(m.Recs)))
		for _, kv := range m.Recs {
			sums[kv.K] += kv.V
		}
	}
	out[rank] = flattenSums(sums)
	setFinish(proc.Now())
}

// flattenPairs renders a key-sum map as sorted KV records.
func flattenPairs(sums map[int64]int64) []KV {
	row := flattenSums(sums)
	out := make([]KV, 0, len(row)/2)
	for i := 0; i < len(row); i += 2 {
		out = append(out, KV{K: row[i], V: row[i+1]})
	}
	return out
}
