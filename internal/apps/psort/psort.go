// Package psort reproduces the paper's Parallel Sort benchmark: the
// distribution phase of a one-pass parallel sort of 16M Datamation records
// (100 bytes, 10-byte keys) over 4 nodes with a uniform key distribution.
// Each node reads its quarter of the data and redistributes records by key
// range; in the active cases the switch handler redistributes the records
// as they stream off the disks, so each node receives only the records
// assigned to it — per-node traffic falls to p/(3p-2) of normal (40% at
// p=4), the paper's Figure 13 headline.
package psort

import (
	"fmt"

	"activesan/internal/apps"
	"activesan/internal/aswitch"
	"activesan/internal/cluster"
	"activesan/internal/host"
	"activesan/internal/iodev"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

// Params sizes the workload and calibrates costs.
type Params struct {
	// Records is the total record count across all nodes (paper: 16M).
	Records int64
	// RecordSize and KeySize follow the Datamation benchmark.
	RecordSize int64
	KeySize    int64
	// Hosts is the node count p.
	Hosts int
	// ChunkSize is the disk request size; BatchSize is the redistribution
	// message size.
	ChunkSize   int64
	ActiveChunk int64
	BatchSize   int64

	// HostDistInstr is the host's per-record cost to classify and pack.
	HostDistInstr int64
	// HostRecvInstr is the per-record cost at the receiving node.
	HostRecvInstr int64
	// SwitchDistCycles is the switch CPU's per-record classify cost.
	SwitchDistCycles int64

	// Env observes each configuration's cluster: trace sink and
	// strict routes only (no fault plan or telemetry).
	Env apps.Env
}

// DefaultParams returns the paper's workload.
func DefaultParams() Params {
	return Params{
		Records:          16 << 20,
		RecordSize:       100,
		KeySize:          10,
		Hosts:            4,
		ChunkSize:        64 * 1024,
		ActiveChunk:      1 << 20,
		BatchSize:        32 * 1024,
		HostDistInstr:    24,
		HostRecvInstr:    8,
		SwitchDistCycles: 24,
	}
}

// Key derives record i's 10-byte key (top 64 bits; uniform).
func Key(i int64) uint64 { return apps.Mix64(uint64(i) | 5<<40) }

// Dest maps a key to its destination node by range partitioning.
func Dest(key uint64, p int) int {
	return int(uint64(p) * (key >> 32) >> 32)
}

// Batch is one redistribution message's functional content: how many
// records it carries and a checksum of their keys (so the full 1.6 GB never
// needs materializing while the distribution is still verified end to end).
type Batch struct {
	Count  int64
	KeySum uint64
	End    bool
	From   int
}

// Oracle computes each destination's expected record count and key sum.
func (prm Params) Oracle() (counts []int64, sums []uint64) {
	counts = make([]int64, prm.Hosts)
	sums = make([]uint64, prm.Hosts)
	for i := int64(0); i < prm.Records; i++ {
		k := Key(i)
		d := Dest(k, prm.Hosts)
		counts[d]++
		sums[d] += k
	}
	return counts, sums
}

// recordsIn returns the index range [lo, hi) of records whose start byte
// lies within partition bytes [a, b) of node j's partition.
func recordsIn(prm Params, j int, a, b int64) (lo, hi int64) {
	perNode := prm.Records / int64(prm.Hosts)
	base := int64(j) * perNode
	lo = base + (a+prm.RecordSize-1)/prm.RecordSize
	hi = base + (b+prm.RecordSize-1)/prm.RecordSize
	max := base + perNode
	if hi > max {
		hi = max
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

const handlerID = 15

const (
	argBase    = 0x0000_0000
	distFlow   = 0x7040
	doneFlow   = 0x7041
	recvAddr   = 0x0600_0000
	streamSpan = 0x2000_0000 // 512 MB of mapped space per input stream
	streamOrg  = 0x1000_0000
)

func streamBase(j int) int64 { return streamOrg + int64(j)*streamSpan }

type sortArgs struct {
	PerNodeBytes int64
	Hosts        int
	BatchSize    int64
	HostIDs      []san.NodeID
	Initiator    san.NodeID
}

// Run executes one configuration.
func Run(cfg apps.Config, prm Params) stats.Run {
	perNode := prm.Records / int64(prm.Hosts)
	perNodeBytes := perNode * prm.RecordSize

	eng := sim.NewEngine()
	ccfg := cluster.DefaultIOClusterConfig()
	ccfg.Hosts = prm.Hosts
	ccfg.Stores = prm.Hosts
	ccfg.Switch = aswitch.DefaultConfig(2 * prm.Hosts)
	c := cluster.NewIOCluster(eng, ccfg)
	prm.Env.Observe(c)
	for j := 0; j < prm.Hosts; j++ {
		c.Store(j).AddFile(&iodev.File{Name: "part", Size: perNodeBytes})
	}

	hostIDs := make([]san.NodeID, prm.Hosts)
	for j := range hostIDs {
		hostIDs[j] = c.Host(j).ID()
	}

	sw := c.Switch(0)
	if cfg.IsActive() {
		sw.Register(handlerID, "psort", func(x *aswitch.Ctx) {
			args := x.Args().(sortArgs)
			x.ReleaseArgs()
			total := args.PerNodeBytes * int64(args.Hosts)
			batches := make([]Batch, args.Hosts)
			var bytesOut []int64 = make([]int64, args.Hosts)
			flush := func(d int) {
				if batches[d].Count == 0 {
					return
				}
				b := batches[d]
				b.From = -1 // from the switch
				x.Send(aswitch.SendSpec{
					Dst: args.HostIDs[d], Type: san.Data, Addr: recvAddr,
					Size: b.Count * prm.RecordSize, Flow: distFlow, Payload: b,
				})
				batches[d] = Batch{}
				bytesOut[d] = 0
			}
			var consumed int64
			for consumed < total {
				b := x.NextArrival()
				x.ReadAll(b)
				// Which stream (node) does this buffer belong to?
				j := int((b.Addr() - streamOrg) / streamSpan)
				off := b.Addr() - streamBase(j)
				lo, hi := recordsIn(prm, j, off, off+b.Size())
				for i := lo; i < hi; i++ {
					k := Key(i)
					d := Dest(k, args.Hosts)
					x.Compute(prm.SwitchDistCycles)
					batches[d].Count++
					batches[d].KeySum += k
					bytesOut[d] += prm.RecordSize
					if bytesOut[d] >= args.BatchSize {
						flush(d)
					}
				}
				consumed += b.Size()
				x.DeallocateBuf(b)
			}
			for d := 0; d < args.Hosts; d++ {
				flush(d)
				x.Send(aswitch.SendSpec{
					Dst: args.HostIDs[d], Type: san.Data, Addr: recvAddr,
					Size: 64, Flow: distFlow, Payload: Batch{End: true, From: -1},
				})
			}
			x.Send(aswitch.SendSpec{
				Dst: args.Initiator, Type: san.Control, Addr: argBase,
				Size: 8, Flow: doneFlow,
			})
		})
	}
	c.Start()

	counts := make([]int64, prm.Hosts)
	sums := make([]uint64, prm.Hosts)
	// The run ends when the last host finishes.
	var end sim.Time
	for j := 0; j < prm.Hosts; j++ {
		h := c.Host(j)
		eng.Spawn(fmt.Sprintf("sort-h%d", j), func(p *sim.Proc) {
			if cfg.IsActive() {
				runActiveNode(p, c, h, j, cfg, prm, hostIDs, &counts[j], &sums[j])
			} else {
				runNormalNode(p, c, h, j, cfg, prm, hostIDs, &counts[j], &sums[j])
			}
			end = max(end, p.Now())
		})
	}
	eng.Run()
	run := apps.Collect(cfg, c, end, map[string]any{
		"counts": append([]int64(nil), counts...),
		"sums":   append([]uint64(nil), sums...),
	})
	c.Shutdown()
	return run
}

// runNormalNode reads the local partition and redistributes record batches
// to their destination hosts, then drains incoming batches.
func runNormalNode(p *sim.Proc, c *cluster.Cluster, h *host.Host, j int,
	cfg apps.Config, prm Params, hostIDs []san.NodeID, count *int64, sum *uint64) {
	perNode := prm.Records / int64(prm.Hosts)
	perNodeBytes := perNode * prm.RecordSize
	batches := make([]Batch, prm.Hosts)
	bytesOut := make([]int64, prm.Hosts)
	buf := h.Space().Alloc(prm.ChunkSize, 4096)

	flush := func(d int) {
		if batches[d].Count == 0 {
			return
		}
		b := batches[d]
		b.From = j
		size := b.Count * prm.RecordSize
		if d == j {
			// Local records stay: count them directly.
			*count += b.Count
			*sum += b.KeySum
		} else {
			h.SendMessage(p, &san.Message{
				Hdr:     san.Header{Dst: hostIDs[d], Type: san.Data, Addr: recvAddr, Flow: distFlow + int64(j)},
				Size:    size,
				Payload: b,
			}, buf)
		}
		batches[d] = Batch{}
		bytesOut[d] = 0
	}

	apps.StreamChunks(p, h, c.Store(j).ID(), "part", perNodeBytes, prm.ChunkSize, buf,
		cfg.Outstanding(), func(off, n int64, _ []any) {
			lo, hi := recordsIn(prm, j, off, off+n)
			for i := lo; i < hi; i++ {
				rel := i - int64(j)*perNode
				h.CPU().Load(p, buf+(rel%(prm.ChunkSize/prm.RecordSize))*prm.RecordSize)
				h.CPU().Compute(p, prm.HostDistInstr)
				k := Key(i)
				d := Dest(k, prm.Hosts)
				batches[d].Count++
				batches[d].KeySum += k
				bytesOut[d] += prm.RecordSize
				if bytesOut[d] >= prm.BatchSize {
					flush(d)
				}
			}
		})
	for d := 0; d < prm.Hosts; d++ {
		flush(d)
		if d != j {
			h.SendMessage(p, &san.Message{
				Hdr:     san.Header{Dst: hostIDs[d], Type: san.Data, Addr: recvAddr, Flow: distFlow + int64(j)},
				Size:    64,
				Payload: Batch{End: true, From: j},
			}, buf)
		}
	}
	drainIncoming(p, h, prm, prm.Hosts-1, count, sum)
}

// runActiveNode streams the local partition at the switch; node 0 also owns
// the handler invocation. Every node then drains its assigned records.
func runActiveNode(p *sim.Proc, c *cluster.Cluster, h *host.Host, j int,
	cfg apps.Config, prm Params, hostIDs []san.NodeID, count *int64, sum *uint64) {
	perNodeBytes := (prm.Records / int64(prm.Hosts)) * prm.RecordSize
	sw := c.Switch(0)
	if j == 0 {
		h.SendMessage(p, &san.Message{
			Hdr:  san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: handlerID, Addr: argBase},
			Size: 64,
			Payload: sortArgs{
				PerNodeBytes: perNodeBytes, Hosts: prm.Hosts,
				BatchSize: prm.BatchSize, HostIDs: hostIDs, Initiator: h.ID(),
			},
		}, 0)
	}
	apps.StreamToSwitch(p, h, c.Store(j).ID(), "part", perNodeBytes, prm.ActiveChunk,
		sw.ID(), streamBase(j), 0x6040+int64(j), cfg.Outstanding())
	// One "end" batch arrives from the switch.
	drainIncoming(p, h, prm, 1, count, sum)
	if j == 0 {
		h.RecvFlow(p, sw.ID(), doneFlow)
	}
}

// drainIncoming consumes redistribution batches until the expected number
// of End markers arrive.
func drainIncoming(p *sim.Proc, h *host.Host, prm Params, ends int, count *int64, sum *uint64) {
	for ends > 0 {
		comp := h.RecvAny(p)
		b, ok := comp.Payloads[0].(Batch)
		if !ok {
			continue
		}
		if b.End {
			ends--
			continue
		}
		*count += b.Count
		*sum += b.KeySum
		h.CPU().Compute(p, prm.HostRecvInstr*b.Count)
	}
}

// RunAll executes the four configurations (paper Figures 13/14).
func RunAll(prm Params) *stats.Result {
	return apps.RunMatrix(prm.Env, "fig13", "Parallel sort (distribution phase): time, host utilization, per-host traffic",
		func(cfg apps.Config) stats.Run { return Run(cfg, prm) })
}
