// Package sel reproduces the paper's Select benchmark: a sequential range
// selection over a 128 MB table of 128-byte records, checking whether one
// integer field falls in a range. In the active cases the selection runs in
// the switch and the host only counts the matching records it receives, so
// host I/O traffic drops to the selectivity (25%) and host cache misses
// nearly vanish. Like HashJoin, Select runs with the paper's scaled host
// caches (8 KB L1D / 64 KB L2).
package sel

import (
	"activesan/internal/apps"
	"activesan/internal/aswitch"
	"activesan/internal/cache"
	"activesan/internal/cluster"
	"activesan/internal/iodev"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

// Params sizes the workload and calibrates per-record costs.
type Params struct {
	TableBytes int64
	RecordSize int64
	ChunkSize  int64
	// ActiveChunk is the disk-request size of the active cases: with no
	// host-side staging buffers to fill, the host maps the file at the
	// switch with large requests and lets the switch's flow control pace
	// the stream, cutting per-request OS overhead to near zero.
	ActiveChunk int64
	// SelectPermille keeps records whose key mod 1000 is below it (250 =
	// the paper's 25% I/O-traffic ratio).
	SelectPermille int64

	// HostPredInstr is the host's per-record predicate cost.
	HostPredInstr int64
	// HostCountInstr is the host's per-record cost when merely counting
	// received matches (active cases).
	HostCountInstr int64
	// SwitchPredCycles is the switch CPU's per-record predicate cost.
	SwitchPredCycles int64

	// Env observes and arms each configuration's cluster.
	Env apps.Env
}

// DefaultParams returns the paper's 128 MB workload.
func DefaultParams() Params {
	return Params{
		TableBytes:       128 << 20,
		RecordSize:       128,
		ChunkSize:        64 * 1024,
		ActiveChunk:      1 << 20,
		SelectPermille:   250,
		HostPredInstr:    12,
		HostCountInstr:   2,
		SwitchPredCycles: 12,
	}
}

// Key derives record i's integer field — the deterministic "table".
func Key(i int64) int64 { return int64(apps.Mix64(uint64(i)) % 1000) }

// Matches reports whether record i passes the range predicate.
func (prm Params) Matches(i int64) bool { return Key(i) < prm.SelectPermille }

// ExpectedMatches counts passing records directly (the test oracle).
func (prm Params) ExpectedMatches() int64 {
	n := prm.TableBytes / prm.RecordSize
	var c int64
	for i := int64(0); i < n; i++ {
		if prm.Matches(i) {
			c++
		}
	}
	return c
}

const handlerID = 10

const (
	argBase    = 0x0000_0000
	streamBase = 0x0010_0000
	resultFlow = 0x7002
	matchAddr  = 0x0200_0000 // host buffer where matches land
)

// Run executes one configuration.
func Run(cfg apps.Config, prm Params) stats.Run {
	ccfg := cluster.DefaultIOClusterConfig()
	ccfg.Host.Hier = cache.ScaledHostHierConfig()

	setup := func(c *cluster.Cluster) {
		// The table is functional-by-index: payloads are unnecessary since
		// both sides derive record keys from record numbers.
		c.Store(0).AddFile(&iodev.File{Name: "table", Size: prm.TableBytes})
		if !cfg.IsActive() {
			return
		}
		sw := c.Switch(0)
		sw.Register(handlerID, "select", func(x *aswitch.Ctx) {
			x.ReleaseArgs()
			var matched, pendingBytes int64
			var pendingRecs int64
			cursor := int64(streamBase)
			end := int64(streamBase) + prm.TableBytes
			flush := func() {
				if pendingBytes == 0 {
					return
				}
				x.Send(aswitch.SendSpec{
					Dst: x.Src(), Type: san.Data, Addr: matchAddr,
					Size: pendingBytes, Flow: resultFlow, Payload: pendingRecs,
				})
				pendingBytes, pendingRecs = 0, 0
			}
			for cursor < end {
				b := x.WaitStream(cursor)
				recBase := (cursor - streamBase) / prm.RecordSize
				n := b.Size() / prm.RecordSize
				for r := int64(0); r < n; r++ {
					// Read the record's key field from the data buffer and
					// evaluate the predicate.
					x.ReadAt(b, r*prm.RecordSize, 8)
					x.Compute(prm.SwitchPredCycles)
					if prm.Matches(recBase + r) {
						matched++
						pendingRecs++
						pendingBytes += prm.RecordSize
					}
				}
				cursor = b.End()
				x.Deallocate(cursor)
				// Ship matches in chunk-sized replies ("the switch can
				// always send a reply to the host with a length of bufSz").
				if pendingBytes >= prm.ChunkSize {
					flush()
				}
			}
			flush()
			// Final summary carries the total so the host can verify.
			x.Send(aswitch.SendSpec{
				Dst: x.Src(), Type: san.Control, Addr: argBase,
				Size: 8, Flow: resultFlow + 1, Payload: matched,
			})
		})
	}

	app := func(p *sim.Proc, c *cluster.Cluster) map[string]any {
		h := c.Host(0)
		store := c.Store(0).ID()
		sw := c.Switch(0)

		if cfg.IsActive() {
			h.SendMessage(p, &san.Message{
				Hdr:  san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: handlerID, Addr: argBase},
				Size: 32,
			}, 0)
			apps.StreamToSwitch(p, h, store, "table", prm.TableBytes, prm.ActiveChunk,
				sw.ID(), streamBase, 0x6002, cfg.Outstanding())
			// Count arriving match batches until the summary shows up.
			var counted, reported int64
			for {
				comp := h.RecvAny(p)
				if comp.Hdr.Flow == resultFlow+1 {
					reported = comp.Payloads[0].(int64)
					break
				}
				recs := comp.Payloads[0].(int64)
				h.CPU().Compute(p, prm.HostCountInstr*recs)
				counted += recs
			}
			return map[string]any{"matches": counted, "reported": reported}
		}

		// Normal: scan every record on the host.
		var matched int64
		buf := h.Space().Alloc(prm.ChunkSize, 4096)
		apps.StreamChunks(p, h, store, "table", prm.TableBytes, prm.ChunkSize, buf,
			cfg.Outstanding(), func(off, n int64, _ []any) {
				recBase := off / prm.RecordSize
				cnt := n / prm.RecordSize
				for r := int64(0); r < cnt; r++ {
					// Load the key field of each record (128 B apart: every
					// record is its own L2 line in the scaled hierarchy).
					h.CPU().Load(p, buf+r*prm.RecordSize)
					h.CPU().Compute(p, prm.HostPredInstr)
					if prm.Matches(recBase + r) {
						matched++
					}
				}
			})
		return map[string]any{"matches": matched, "reported": matched}
	}

	return apps.RunIO(prm.Env, ccfg, cfg, setup, app)
}

// RunAll executes the four configurations (paper Figures 7/8).
func RunAll(prm Params) *stats.Result {
	return apps.RunMatrix(prm.Env, "fig7", "Select: time, host utilization, host I/O traffic",
		func(cfg apps.Config) stats.Run { return Run(cfg, prm) })
}
