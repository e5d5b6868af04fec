// Package collective is the in-network collective-operations library: a
// suite of group communication primitives layered on the aggregation
// overlay (cluster.Cluster.Tree) that every shipped topology — the paper's
// reduction tree and the k-ary fat trees — exposes. The operations:
//
//   - Allreduce: reduce up the overlay tree, multicast the result down the
//     same tree (the tiny-switch LOAD_REDUCE / STORE_MC pairing), so every
//     host ends with the full combined vector.
//   - Reduce and ReduceScatter: the paper's reduce-to-one and distributed
//     reduce (Figures 15/16). The same up-tree combine; the root sends the
//     result to rank 0, or each rank its slice.
//   - Barrier: the zero-payload allreduce fast path — 8-byte tokens up,
//     an 8-byte release down.
//   - Scatter / Gather: the root rank's vector is split down the tree per
//     subtree rank range, or per-rank slices are concatenated up it.
//   - Key-grouped aggregation: MapReduce-shuffle / gradient-sync style.
//     Switches combine records per key in a bounded table and spill to the
//     destination host when the switch-memory budget is hit (P4COM's
//     central problem); per-switch hit/spill counters satisfy the ledger
//     hits + spills == keyed records.
//
// Every operation runs active (in-switch handlers) or passive (a host-only
// reference algorithm: recursive doubling for allreduce/barrier, binomial
// trees for reduce, scatter and gather, a direct combiner shuffle for key
// aggregation)
// and the two variants produce byte-identical per-host results, verified
// against in-process oracles. Runs work on serial and partitioned clusters
// alike and are byte-identical at any partition count. See COLLECTIVES.md.
package collective

import (
	"fmt"
	"sort"
	"time"

	"activesan/internal/apps"
	"activesan/internal/cluster"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// Op selects the collective operation.
type Op int

// The shipped operations.
const (
	Allreduce Op = iota
	Barrier
	Scatter
	Gather
	KeyAgg
	Reduce
	ReduceScatter
)

func (o Op) String() string {
	switch o {
	case Barrier:
		return "barrier"
	case Scatter:
		return "scatter"
	case Gather:
		return "gather"
	case KeyAgg:
		return "keyagg"
	case Reduce:
		return "reduce"
	case ReduceScatter:
		return "reduce-scatter"
	default:
		return "allreduce"
	}
}

// Operator is the combining operator of the vector reductions (allreduce,
// reduce, reduce-scatter). The paper: "often maximum, minimum, sum,
// product, or logical bit-wise operations"; its evaluation uses addition.
type Operator int

// Combining operators.
const (
	Sum Operator = iota
	Max
	Min
	Prod
	Or
	And
)

// Apply combines two elements.
func (o Operator) Apply(a, b int64) int64 {
	switch o {
	case Max:
		if a > b {
			return a
		}
		return b
	case Min:
		if a < b {
			return a
		}
		return b
	case Prod:
		return a * b
	case Or:
		return a | b
	case And:
		return a & b
	default:
		return a + b
	}
}

// Identity is the operator's neutral element.
func (o Operator) Identity() int64 {
	switch o {
	case Max:
		return -1 << 62
	case Min:
		return 1<<62 - 1
	case Prod:
		return 1
	case And:
		return -1
	default:
		return 0
	}
}

// ParseOp resolves a -collective flag value. Reduce and ReduceScatter run
// through the reduce sweep (sansweep -sweep reduce), not -collective.
func ParseOp(s string) (Op, error) {
	switch s {
	case "", "allreduce":
		return Allreduce, nil
	case "barrier":
		return Barrier, nil
	case "scatter":
		return Scatter, nil
	case "gather":
		return Gather, nil
	case "keyagg":
		return KeyAgg, nil
	}
	return 0, fmt.Errorf("unknown collective %q (want allreduce, barrier, scatter, gather, or keyagg)", s)
}

// Params sizes a collective.
type Params struct {
	// VectorBytes is each rank's vector contribution (the paper's
	// reduction benchmarks use 512); Elems its length in int64 values.
	VectorBytes int64
	Elems       int
	// Operator combines the vector reductions (the paper's evaluation:
	// Sum, the zero value). Barrier and key aggregation always sum.
	Operator Operator

	// AggBudget bounds the per-switch aggregation table in distinct keys
	// (at least 1 for an active key aggregation).
	AggBudget int
}

// DefaultParams mirrors the paper's 512-byte reduction vectors, with a
// 32-entry per-switch key-aggregation table.
func DefaultParams() Params {
	return Params{
		VectorBytes: 512,
		Elems:       64,
		AggBudget:   32,
	}
}

// The combine costs and the key-aggregation workload.
const (
	// hostAddInstr is the host's per-element combine cost; switchAddCycles
	// the switch CPU's.
	hostAddInstr    = 4
	switchAddCycles = 1
	// Keys is the key space and recordsPerHost the per-host record count
	// of key-grouped aggregation.
	Keys           = 64
	recordsPerHost = 64
)

// HostVector is rank j's deterministic input vector.
func HostVector(j, elems int) []int64 { return roundVector(j, 0, elems) }

// roundVector is rank j's input for round r of a pipelined reduction;
// round 0 is the single-shot HostVector.
func roundVector(j, r, elems int) []int64 {
	v := make([]int64, elems)
	for i := range v {
		v[i] = int64(apps.Mix64(uint64(r)<<40|uint64(j)<<20|uint64(i)) % 1000)
	}
	return v
}

// expectedFold is the vector reductions' oracle: o folded elementwise over
// every rank's round-r vector.
func expectedFold(o Operator, p, r, elems int) []int64 {
	out := make([]int64, elems)
	for i := range out {
		out[i] = o.Identity()
	}
	for j := 0; j < p; j++ {
		for i, v := range roundVector(j, r, elems) {
			out[i] = o.Apply(out[i], v)
		}
	}
	return out
}

// sliceBounds gives rank j's share [lo, hi) of an elems-long vector.
func sliceBounds(j, p, elems int) (lo, hi int) {
	return j * elems / p, (j + 1) * elems / p
}

// KV is one keyed record.
type KV struct {
	K int64
	V int64
}

// RecordsFor generates rank j's deterministic keyed records.
func RecordsFor(j int) []KV {
	out := make([]KV, recordsPerHost)
	for i := range out {
		out[i] = KV{
			K: int64(apps.Mix64(0xA66E6A7E<<28|uint64(j)<<14|uint64(i)) % Keys),
			V: int64(apps.Mix64(0x5A1AD<<40|uint64(j)<<20|uint64(i)) % 1000),
		}
	}
	return out
}

// ExpectedKeyAgg folds every rank's records and returns rank r's flattened
// sorted (key, sum) pairs — keys home to rank key mod p.
func ExpectedKeyAgg(p int) [][]int64 {
	sums := map[int64]int64{}
	for j := 0; j < p; j++ {
		for _, kv := range RecordsFor(j) {
			sums[kv.K] += kv.V
		}
	}
	return keyAggRows(p, sums)
}

// keyAggRows renders per-key sums as per-rank flattened sorted rows.
func keyAggRows(p int, sums map[int64]int64) [][]int64 {
	keys := make([]int64, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	out := make([][]int64, p)
	for i := range out {
		out[i] = []int64{}
	}
	for _, k := range keys {
		r := int(k) % p
		out[r] = append(out[r], k, sums[k])
	}
	return out
}

// ExpectedPerHost is the oracle for any operation: what rank j must hold
// when the collective completes.
func ExpectedPerHost(op Op, p int, prm Params) [][]int64 {
	out := make([][]int64, p)
	switch op {
	case Allreduce:
		want := expectedFold(prm.Operator, p, 0, prm.Elems)
		for j := range out {
			out[j] = want
		}
	case Reduce:
		for j := range out {
			out[j] = []int64{}
		}
		out[0] = expectedFold(prm.Operator, p, 0, prm.Elems)
	case ReduceScatter:
		want := expectedFold(prm.Operator, p, 0, prm.Elems)
		for j := range out {
			lo, hi := sliceBounds(j, p, prm.Elems)
			out[j] = want[lo:hi]
		}
	case Barrier:
		for j := range out {
			out[j] = []int64{int64(p)}
		}
	case Scatter:
		master := HostVector(0, prm.Elems)
		for j := range out {
			lo, hi := sliceBounds(j, p, prm.Elems)
			out[j] = master[lo:hi]
		}
	case Gather:
		full := make([]int64, prm.Elems)
		for j := 0; j < p; j++ {
			lo, hi := sliceBounds(j, p, prm.Elems)
			copy(full[lo:hi], HostVector(j, prm.Elems)[lo:hi])
			out[j] = []int64{}
		}
		out[0] = full
	case KeyAgg:
		return ExpectedKeyAgg(p)
	}
	return out
}

// SwitchAgg is one switch's key-aggregation ledger: every keyed record the
// switch ingested was either combined into the bounded table (a hit) or
// forwarded un-aggregated because the table was full (a spill).
type SwitchAgg struct {
	Name     string
	Hits     int64
	Spills   int64
	Ingested int64
}

// Result is one collective run's outcome. PerHost[j] is the payload rank j
// holds at completion (op-dependent; see ExpectedPerHost). EngineWall is
// the host wall-clock of the run phase alone.
type Result struct {
	Latency    sim.Time
	PerHost    [][]int64
	Correct    bool
	EngineWall time.Duration

	// Key-aggregation ledgers; zero for the other operations.
	AggHits     int64
	AggSpills   int64
	AggIngested int64
	PerSwitch   []SwitchAgg
}

// AggBalanced reports whether every switch's ledger satisfies the identity
// hits + spills == ingested records.
func (r Result) AggBalanced() bool {
	for _, s := range r.PerSwitch {
		if s.Hits+s.Spills != s.Ingested {
			return false
		}
	}
	return r.AggHits+r.AggSpills == r.AggIngested
}

// shape is the overlay tree resolved into the forms the operations need:
// rank order, child switches and member hosts per overlay switch, the
// contiguous rank range each subtree covers, and up-phase argument slots.
type shape struct {
	p          int
	hostIDs    []san.NodeID
	root       san.NodeID
	childSw    map[san.NodeID][]san.NodeID
	members    map[san.NodeID][]san.NodeID
	memberRank map[san.NodeID][]int
	lo, hi     map[san.NodeID]int
	slot       map[san.NodeID]int64
}

// buildShape derives the shape from a built cluster's aggregation overlay.
// It panics when the overlay assigns non-contiguous rank ranges to a
// subtree — every shipped topology attaches hosts in rank order, and the
// scatter/gather slicing depends on it.
func buildShape(c *cluster.Cluster, p int) *shape {
	if c.Tree == nil {
		panic("collective: cluster has no aggregation overlay (Tree is nil)")
	}
	sh := &shape{
		p:          p,
		root:       c.Tree.Root,
		childSw:    map[san.NodeID][]san.NodeID{},
		members:    map[san.NodeID][]san.NodeID{},
		memberRank: map[san.NodeID][]int{},
		lo:         map[san.NodeID]int{},
		hi:         map[san.NodeID]int{},
		slot:       map[san.NodeID]int64{},
	}
	for j := 0; j < p; j++ {
		h := c.Host(j)
		sh.hostIDs = append(sh.hostIDs, h.ID())
		leaf := c.Tree.HostLeaf[h.ID()]
		sh.members[leaf] = append(sh.members[leaf], h.ID())
		sh.memberRank[leaf] = append(sh.memberRank[leaf], j)
	}
	// Child switches in cluster switch order: deterministic, and identical
	// between serial and partitioned builds of the same spec.
	for _, sw := range c.Switches {
		if par := c.Tree.Parent[sw.ID()]; par != san.NoNode {
			sh.childSw[par] = append(sh.childSw[par], sw.ID())
		}
	}
	// Rank ranges per overlay subtree, verified contiguous.
	var span func(id san.NodeID) (lo, hi, n int)
	span = func(id san.NodeID) (lo, hi, n int) {
		lo, hi = sh.p, 0
		for _, r := range sh.memberRank[id] {
			if r < lo {
				lo = r
			}
			if r+1 > hi {
				hi = r + 1
			}
			n++
		}
		for _, cs := range sh.childSw[id] {
			cl, ch, cn := span(cs)
			if cn == 0 {
				continue
			}
			if cl < lo {
				lo = cl
			}
			if ch > hi {
				hi = ch
			}
			n += cn
		}
		if n > 0 && hi-lo != n {
			panic(fmt.Sprintf("collective: overlay switch %d covers non-contiguous ranks [%d,%d) with %d hosts", id, lo, hi, n))
		}
		sh.lo[id], sh.hi[id] = lo, hi
		return lo, hi, n
	}
	span(sh.root)

	// Up-phase argument slots: each contributor (host or child switch) gets
	// a distinct MTU-sized argument window at its parent so vectors from
	// different ports admit in parallel. Slots stay below the down-phase
	// windows (downAddr and scatterAddr).
	perParent := map[san.NodeID]int64{}
	for _, id := range sh.hostIDs {
		leaf := c.Tree.HostLeaf[id]
		sh.slot[id] = perParent[leaf]
		perParent[leaf]++
	}
	for _, sw := range c.Switches {
		if par := c.Tree.Parent[sw.ID()]; par != san.NoNode {
			sh.slot[sw.ID()] = perParent[par]
			perParent[par]++
		}
	}
	for id, s := range sh.slot {
		if s*san.MTU >= downAddr {
			panic(fmt.Sprintf("collective: node %d up-slot %d collides with the down-phase window", id, s))
		}
	}
	return sh
}

// opParams resolves the wire sizes and operator an operation uses.
func opParams(op Op, prm Params) Params {
	if op == Barrier {
		// The zero-payload fast path: one token element, 8 bytes on the
		// wire, counted by summing.
		prm.Elems = 1
		prm.VectorBytes = 8
		prm.Operator = Sum
	}
	return prm
}

// RunOn executes one collective on a prebuilt cluster with a populated
// aggregation overlay. The cluster must be un-started; RunOn starts, runs
// and shuts it down, leaving NIC counters harvestable. Active runs place
// handlers only on overlay-participating switches; passive runs touch no
// switch state at all.
func RunOn(c *cluster.Cluster, op Op, active bool, p int, prm Params) Result {
	prm = opParams(op, prm)
	sh := buildShape(c, p)
	if active {
		installHandlers(c, sh, op, prm)
	}
	out := make([][]int64, p)
	res := Result{PerHost: out}
	res.Latency, res.EngineWall = runRanks(c, p, func(proc *sim.Proc, rank int, setFinish func(sim.Time)) {
		h := c.Host(rank)
		if active {
			runActiveHost(proc, c, sh, h, rank, op, prm, out, setFinish)
		} else {
			runPassiveHost(proc, c, sh, h, rank, op, prm, out, setFinish)
		}
	})
	if active && op == KeyAgg {
		harvestAgg(c, &res)
	}
	c.Shutdown()

	want := ExpectedPerHost(op, p, prm)
	res.Correct = true
	for j := range want {
		if !int64SlicesEqual(out[j], want[j]) {
			res.Correct = false
			break
		}
	}
	return res
}

// PipelinedResult reports a multi-round active reduction.
type PipelinedResult struct {
	Total    sim.Time
	PerRound sim.Time
	Correct  bool
}

// RunPipelined streams `rounds` back-to-back active Reduce operations
// through the switch tree of a prebuilt, un-started cluster, which it
// starts, runs and shuts down as RunOn does. Because each tree level works
// on round r+1 while the next level combines round r — "the switch can
// overlap the switch CPU execution with its duties as a normal switch" —
// amortized per-round time beats the isolated latency. Rank 0 checks every
// round against the oracle.
func RunPipelined(c *cluster.Cluster, p, rounds int, prm Params) PipelinedResult {
	sh := buildShape(c, p)
	installCombine(c, sh, Reduce, prm, rounds)
	correct := true // written by rank 0 only
	total, _ := runRanks(c, p, func(proc *sim.Proc, rank int, setFinish func(sim.Time)) {
		h := c.Host(rank)
		sendUp(proc, c, sh, h, rank, Reduce, prm, rounds)
		if rank != 0 {
			return
		}
		for r := 0; r < rounds; r++ {
			v := recvPayload(proc, h, sh.root, reduceFlow).(upVec)
			if !int64SlicesEqual(v.Vals, expectedFold(prm.Operator, p, v.Round, prm.Elems)) {
				correct = false
			}
		}
		setFinish(proc.Now())
	})
	c.Shutdown()
	return PipelinedResult{Total: total, PerRound: total / sim.Time(rounds), Correct: correct}
}

// runRanks starts the cluster and runs body as every rank's process, on
// the engine simulating the rank's host, until the simulation drains. It
// returns the latest time any rank reported through setFinish and the
// host wall-clock of the run phase alone. Each rank's finish slot is
// touched only by its own partition.
func runRanks(c *cluster.Cluster, p int, body func(proc *sim.Proc, rank int, setFinish func(sim.Time))) (sim.Time, time.Duration) {
	c.Start()
	finishes := make([]sim.Time, p)
	for rank := 0; rank < p; rank++ {
		c.EngineFor(c.Host(rank).ID()).Spawn(fmt.Sprintf("coll-h%d", rank), func(proc *sim.Proc) {
			body(proc, rank, func(t sim.Time) {
				if t > finishes[rank] {
					finishes[rank] = t
				}
			})
		})
	}
	zr := time.Now()
	c.Run()
	wall := time.Since(zr)
	var latest sim.Time
	for _, t := range finishes {
		if t > latest {
			latest = t
		}
	}
	return latest, wall
}

func int64SlicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
