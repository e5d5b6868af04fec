package collective

// Key-grouped aggregation under a bounded switch-memory budget. Each switch
// keeps a table of at most `budget` distinct keys. A record whose key is
// resident (or fits) combines in place — a hit. A record that misses a full
// table is a spill: it forwards up the tree un-aggregated (and re-ingests at
// the parent, which may combine it after all); at the root a spill goes
// straight to the key's home host. When every contributor has signalled
// end-of-stream the switch flushes its table upward (or, at the root, out
// to the home hosts) followed by its own end-of-stream. The per-switch
// ledger hits + spills == ingested is harvested into Result.PerSwitch.
//
// Keys home to rank key mod p; the root closes each host's stream with a
// done marker carrying the batch count, which FIFO delivery orders last.

import (
	"fmt"
	"sort"

	"activesan/internal/aswitch"
	"activesan/internal/cache"
	"activesan/internal/cluster"
	"activesan/internal/host"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// kaBatchMax records per message: 32 x 16 bytes fills one MTU.
const kaBatchMax = 32

// kaBatch is a run of keyed records; kaEnd closes a contributor's stream;
// kaDone closes the root-to-host result stream.
type kaBatch struct{ Recs []KV }
type kaEnd struct{}
type kaDone struct{ Msgs int64 }

func kaSize(n int) int64 {
	if n <= 0 {
		return 8
	}
	return int64(n) * 16
}

// kaState is one switch's aggregation table and stream bookkeeping.
type kaState struct {
	table    map[int64]int64
	budget   int
	hits     int64
	spills   int64
	ingested int64

	ends     int
	expected int
	parent   san.NodeID
	argAddr  int64
	tblBase  int64

	// Root-only delivery plan: rank-ordered host ids and per-rank counts of
	// result batches already sent, so the done marker can carry the total.
	hosts  []san.NodeID
	p      int
	sentTo []int64
}

// installKeyAgg places the aggregation handler on overlay switches.
func installKeyAgg(c *cluster.Cluster, sh *shape, prm Params) {
	if prm.AggBudget < 1 {
		panic(fmt.Sprintf("collective: keyagg budget %d must be >= 1", prm.AggBudget))
	}
	for _, sw := range c.Switches {
		id := sw.ID()
		if c.Tree.Children[id] == 0 {
			continue
		}
		st := &kaState{
			table:    map[int64]int64{},
			budget:   prm.AggBudget,
			expected: c.Tree.Children[id],
			parent:   c.Tree.Parent[id],
			argAddr:  sh.slot[id] * san.MTU,
			tblBase:  sw.Space().Alloc(int64(prm.AggBudget)*16, 64),
			hosts:    sh.hostIDs,
			p:        sh.p,
			sentTo:   make([]int64, sh.p),
		}
		sw.SetState(kaHandlerID, st)
		sw.Register(kaHandlerID, "coll-keyagg", keyAggHandler(prm))
	}
}

// kaSendUp forwards a record batch one overlay level up as a fresh active
// message (re-ingested there), or — at the root — out to each record's home
// host in rank order.
func kaSendUp(x *aswitch.Ctx, st *kaState, recs []KV) {
	if len(recs) == 0 {
		return
	}
	if st.parent != san.NoNode {
		for lo := 0; lo < len(recs); lo += kaBatchMax {
			hi := lo + kaBatchMax
			if hi > len(recs) {
				hi = len(recs)
			}
			x.Send(aswitch.SendSpec{
				Dst: st.parent, Type: san.ActiveMsg, HandlerID: kaHandlerID,
				Addr: st.argAddr, Size: kaSize(hi - lo),
				Payload: kaBatch{Recs: recs[lo:hi]},
			})
		}
		return
	}
	// Root: group per home rank, preserving arrival order within a rank.
	perRank := make([][]KV, st.p)
	for _, kv := range recs {
		r := int(kv.K) % st.p
		perRank[r] = append(perRank[r], kv)
	}
	for r, part := range perRank {
		for lo := 0; lo < len(part); lo += kaBatchMax {
			hi := lo + kaBatchMax
			if hi > len(part) {
				hi = len(part)
			}
			x.Send(aswitch.SendSpec{
				Dst: st.hosts[r], Type: san.Data, Addr: 0x1000,
				Size: kaSize(hi - lo), Flow: kaFlow,
				Payload: kaBatch{Recs: part[lo:hi]},
			})
			st.sentTo[r]++
		}
	}
}

// keyAggHandler ingests record batches into the bounded table and flushes on
// stream completion.
func keyAggHandler(prm Params) aswitch.HandlerFunc {
	return func(x *aswitch.Ctx) {
		st := x.State().(*kaState)
		if b, ok := x.CPU().ATB().Lookup(x.BaseAddr()); ok {
			x.ReadAll(b)
			x.DeallocateBuf(b)
		}
		switch m := x.Args().(type) {
		case kaBatch:
			x.Compute(prm.SwitchAddCycles * 2 * int64(len(m.Recs)))
			var spilled []KV
			for _, kv := range m.Recs {
				st.ingested++
				// One table probe per record: the slot the key hashes to.
				x.MemLoad(st.tblBase + (kv.K%int64(st.budget))*16)
				if _, ok := st.table[kv.K]; ok || len(st.table) < st.budget {
					st.table[kv.K] += kv.V
					st.hits++
				} else {
					st.spills++
					spilled = append(spilled, kv)
				}
			}
			kaSendUp(x, st, spilled)

		case kaEnd:
			st.ends++
			if st.ends < st.expected {
				return
			}
			// Flush the table in key order, then close our own stream.
			keys := make([]int64, 0, len(st.table))
			for k := range st.table {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			flush := make([]KV, len(keys))
			for i, k := range keys {
				flush[i] = KV{K: k, V: st.table[k]}
			}
			x.Compute(prm.SwitchAddCycles * int64(len(flush)))
			kaSendUp(x, st, flush)
			if st.parent != san.NoNode {
				x.Send(aswitch.SendSpec{
					Dst: st.parent, Type: san.ActiveMsg, HandlerID: kaHandlerID,
					Addr: st.argAddr, Size: 8, Payload: kaEnd{},
				})
				return
			}
			for r, id := range st.hosts {
				x.Send(aswitch.SendSpec{
					Dst: id, Type: san.Data, Addr: 0x1000,
					Size: 8, Flow: kaFlow, Payload: kaDone{Msgs: st.sentTo[r]},
				})
			}
		}
	}
}

// runActiveKeyAggHost streams rank `rank`'s records to its leaf switch and
// folds the result batches the root sends back for the keys homed here.
func runActiveKeyAggHost(proc *sim.Proc, c *cluster.Cluster, sh *shape, h *host.Host,
	rank int, prm Params, out [][]int64, setFinish func(sim.Time)) {
	leaf := c.Tree.HostLeaf[h.ID()]
	recs := RecordsFor(rank, prm)
	region := h.Space().Alloc(kaSize(len(recs)), 64)
	h.CPU().TouchRange(proc, region, kaSize(len(recs)), cache.Load)
	for lo := 0; lo < len(recs); lo += kaBatchMax {
		hi := lo + kaBatchMax
		if hi > len(recs) {
			hi = len(recs)
		}
		h.SendMessage(proc, &san.Message{
			Hdr: san.Header{
				Dst: leaf, Type: san.ActiveMsg,
				HandlerID: kaHandlerID, Addr: sh.slot[h.ID()] * san.MTU,
			},
			Size:    kaSize(hi - lo),
			Payload: kaBatch{Recs: recs[lo:hi]},
		}, region)
	}
	h.SendMessage(proc, &san.Message{
		Hdr: san.Header{
			Dst: leaf, Type: san.ActiveMsg,
			HandlerID: kaHandlerID, Addr: sh.slot[h.ID()] * san.MTU,
		},
		Size:    8,
		Payload: kaEnd{},
	}, region)

	sums := map[int64]int64{}
	var got int64
	for {
		switch m := recvPayload(proc, h, sh.root, kaFlow).(type) {
		case kaBatch:
			got++
			for _, kv := range m.Recs {
				sums[kv.K] += kv.V
			}
			h.CPU().Compute(proc, prm.HostAddInstr*int64(len(m.Recs)))
		case kaDone:
			if got != m.Msgs {
				// FIFO delivery makes this unreachable; a mismatched row
				// fails the byte-identity checks loudly.
				out[rank] = []int64{-1}
				setFinish(proc.Now())
				return
			}
			out[rank] = flattenSums(sums)
			setFinish(proc.Now())
			return
		}
	}
}

// flattenSums renders a key-sum map as the flattened sorted row the oracle
// uses.
func flattenSums(sums map[int64]int64) []int64 {
	keys := make([]int64, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	row := make([]int64, 0, 2*len(keys))
	for _, k := range keys {
		row = append(row, k, sums[k])
	}
	return row
}

// harvestAgg collects every switch's aggregation ledger into the result.
func harvestAgg(c *cluster.Cluster, res *Result) {
	for _, sw := range c.Switches {
		st, ok := sw.HandlerState(kaHandlerID).(*kaState)
		if !ok {
			continue
		}
		res.PerSwitch = append(res.PerSwitch, SwitchAgg{
			Name: sw.Name(), Hits: st.hits, Spills: st.spills, Ingested: st.ingested,
		})
		res.AggHits += st.hits
		res.AggSpills += st.spills
		res.AggIngested += st.ingested
	}
}
