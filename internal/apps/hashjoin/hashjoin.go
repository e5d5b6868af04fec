// Package hashjoin reproduces the paper's HashJoin benchmark: a hash join
// of R (16 MB) and S (128 MB) with 128-byte records and a 128 KB bit-vector
// filter, run with the paper's scaled host caches (8 KB L1D / 64 KB L2) so
// the scaled tables behave like a 128 MB x 1 GB join.
//
// Bit-vector filtering works exactly as in the paper: scanning R sets a bit
// per hashed join attribute; scanning S discards records whose bit is clear.
// In the active cases the bit-vector lives in the switch: the handler sets
// bits as R streams through it to the host, then filters S inside the
// switch, forwarding only passing records — cutting host I/O traffic for
// the S scan by the filter's reduction factor (0.24) and halving the host's
// cache-miss stall share.
package hashjoin

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

// Params sizes the workload.
type Params struct {
	RBytes int64
	SBytes int64
	// MatchPercent of S records carry a key drawn from R; with the
	// bit-vector's ~12% false-positive rate this lands the paper's 0.24
	// reduction factor.
	MatchPercent int64

	// Env observes and arms each configuration's cluster.
	Env apps.Env
}

// DefaultParams returns the paper's workload.
func DefaultParams() Params {
	return Params{
		RBytes:       16 << 20,
		SBytes:       128 << 20,
		MatchPercent: 13,
	}
}

// The record layout, the request and filter sizes and the per-record
// costs.
const (
	// RecordSize is both tables' record size in bytes.
	RecordSize int64 = 128
	// chunkSize is the normal cases' disk-request size, and the size of
	// the match batches the switch ships in the active cases.
	chunkSize = 64 * 1024
	// activeChunk is the request size of the active cases (see sel).
	activeChunk = 1 << 20
	// BitvecBits is the filter size (paper: ~128 KB = 2^20 bits).
	BitvecBits = 1 << 20

	// Per-record instruction budgets.
	hashInstr     = 12 // hash the join attribute
	probeInstr    = 40 // hash-table probe on a passing record
	buildInstr    = 30 // insert an R record into the hash table
	switchCheck   = 14 // switch-side hash+check cycles
	switchSetBits = 10 // switch-side bit-set cycles (R phase)
)

// RKey derives R record i's join attribute.
func RKey(i int64) uint64 { return apps.Mix64(uint64(i) | 1<<40) }

// SKey derives S record i's join attribute and whether it truly matches an
// R record (nR is R's record count).
func (prm Params) SKey(i int64, nR int64) (key uint64, match bool) {
	if int64(apps.Mix64(uint64(i)|2<<40)%100) < prm.MatchPercent {
		return RKey(int64(apps.Mix64(uint64(i)|4<<40) % uint64(nR))), true
	}
	return apps.Mix64(uint64(i)|3<<40) | 1<<50, false
}

// BitIndex maps a key into the bit-vector.
func BitIndex(key uint64) int64 {
	return int64(apps.Mix64(key) % BitvecBits)
}

// Bitvec is the shared filter structure (a real bit set).
type Bitvec struct{ words []uint64 }

// NewBitvec allocates a filter of n bits.
func NewBitvec(n int64) *Bitvec { return &Bitvec{words: make([]uint64, (n+63)/64)} }

// Set sets bit i.
func (b *Bitvec) Set(i int64) { b.words[i/64] |= 1 << (uint(i) % 64) }

// Get reports bit i.
func (b *Bitvec) Get(i int64) bool { return b.words[i/64]&(1<<(uint(i)%64)) != 0 }

const handlerID = 12

const (
	argBase     = 0x0000_0000
	rStreamBase = 0x0010_0000
	sStreamBase = 0x0400_0000
	rFwdFlow    = 0x7010
	matchFlow   = 0x7011
	summaryFlow = 0x7012
	rFwdAddr    = 0x0100_0000
	matchAddr   = 0x0300_0000
)

type handlerArgs struct {
	RLen, SLen, BufSz int64
}

type summary struct {
	Passes int64
}

// matchBatch carries the indices of passing S records to the host.
type matchBatch struct {
	Recs []int64
}

// Run executes one configuration.
func Run(cfg apps.Config, prm Params) stats.Run {
	nR := prm.RBytes / RecordSize

	ccfg := cluster.DefaultIOClusterConfig()
	ccfg.Host.Hier = cache.ScaledHostHierConfig()

	setup := func(c *cluster.Cluster) {
		c.Store(0).AddFile(&iodev.File{Name: "R", Size: prm.RBytes})
		c.Store(0).AddFile(&iodev.File{Name: "S", Size: prm.SBytes})
		if !cfg.IsActive() {
			return
		}
		sw := c.Switch(0)
		// The bit-vector occupies switch memory; its address stream drives
		// the 1 KB switch D-cache (the paper's "bit-vector is too big for
		// its limited L1 data cache" effect).
		bvRegion := sw.Space().AllocRegion(BitvecBits/8, 64)
		sw.Register(handlerID, "hashjoin", func(x *aswitch.Ctx) {
			args := x.Args().(handlerArgs)
			x.ReleaseArgs()
			bv := NewBitvec(BitvecBits)

			// Phase R: set bits and forward everything to the host in
			// 128-packet (64 KB) messages.
			cursor := int64(rStreamBase)
			end := cursor + args.RLen
			pktIdx := 0
			for cursor < end {
				b := x.WaitStream(cursor)
				x.ReadAll(b)
				recBase := (cursor - rStreamBase) / RecordSize
				n := b.Size() / RecordSize
				for r := int64(0); r < n; r++ {
					key := RKey(recBase + r)
					bit := BitIndex(key)
					x.Compute(switchSetBits)
					x.MemStore(bvRegion.Base + bit/8)
					bv.Set(bit)
				}
				last := b.End() >= end
				x.Forward(aswitch.SendSpec{
					Dst: x.Src(), Type: san.Data, Addr: rFwdAddr + (cursor - rStreamBase), Flow: rFwdFlow,
				}, b, pktIdx, last || pktIdx%128 == 127)
				pktIdx++
				cursor = b.End()
				x.Deallocate(cursor)
			}

			// Phase S: filter by bit-vector; forward passing records in
			// BufSz batches.
			var passes int64
			batch := &matchBatch{}
			var batchBytes int64
			flush := func() {
				if batchBytes == 0 {
					return
				}
				out := batch
				x.Send(aswitch.SendSpec{
					Dst: x.Src(), Type: san.Data, Addr: matchAddr,
					Size: batchBytes, Flow: matchFlow, Payload: out,
				})
				batch = &matchBatch{}
				batchBytes = 0
			}
			cursor = sStreamBase
			end = int64(sStreamBase) + args.SLen
			for cursor < end {
				b := x.WaitStream(cursor)
				recBase := (cursor - sStreamBase) / RecordSize
				n := b.Size() / RecordSize
				for r := int64(0); r < n; r++ {
					key, _ := prm.SKey(recBase+r, nR)
					bit := BitIndex(key)
					x.Compute(switchCheck)
					x.ReadAt(b, r*RecordSize, 8)
					x.MemLoad(bvRegion.Base + bit/8)
					if bv.Get(bit) {
						passes++
						batch.Recs = append(batch.Recs, recBase+r)
						batchBytes += RecordSize
					}
				}
				cursor = b.End()
				x.Deallocate(cursor)
				if batchBytes >= args.BufSz {
					flush()
				}
			}
			flush()
			x.Send(aswitch.SendSpec{
				Dst: x.Src(), Type: san.Control, Addr: argBase,
				Size: 8, Flow: summaryFlow, Payload: summary{Passes: passes},
			})
		})
	}

	app := func(p *sim.Proc, c *cluster.Cluster) map[string]any {
		h := c.Host(0)
		store := c.Store(0).ID()
		sw := c.Switch(0)

		// Host-side structures: the real hash table, plus address regions
		// whose reference streams drive the cache models.
		ht := make(map[uint64]int64, nR)
		htRegion := h.Space().AllocRegion(prm.RBytes, 4096)
		build := func(recIdx int64) {
			key := RKey(recIdx)
			ht[key] = recIdx
			h.CPU().Compute(p, buildInstr)
			h.CPU().Store(p, htRegion.Base+int64(apps.Mix64(key)%uint64(prm.RBytes)))
		}
		var passes, matches int64
		probe := func(sIdx int64) {
			key, _ := prm.SKey(sIdx, nR)
			passes++
			h.CPU().Compute(p, probeInstr)
			h.CPU().Load(p, htRegion.Base+int64(apps.Mix64(key)%uint64(prm.RBytes)))
			h.CPU().Load(p, htRegion.Base+int64(apps.Mix64(key^0x55)%uint64(prm.RBytes)))
			if _, ok := ht[key]; ok {
				matches++
				h.CPU().Compute(p, 20)
			}
		}

		if cfg.IsActive() {
			h.SendMessage(p, &san.Message{
				Hdr:     san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: handlerID, Addr: argBase},
				Size:    64,
				Payload: handlerArgs{RLen: prm.RBytes, SLen: prm.SBytes, BufSz: chunkSize},
			}, 0)

			// Phase R: stream R at the switch; consume the forwarded copies
			// and build the hash table as they land.
			apps.StreamToSwitch(p, h, store, "R", prm.RBytes, activeChunk,
				sw.ID(), rStreamBase, 0x6010, cfg.Outstanding())
			var rGot int64
			for rGot < prm.RBytes {
				comp := h.RecvFlow(p, sw.ID(), rFwdFlow)
				first := rGot / RecordSize // messages arrive in order
				rGot += comp.Size
				recs := comp.Size / RecordSize
				// Touch the arrived records and insert them.
				for r := int64(0); r < recs; r++ {
					h.CPU().Load(p, rFwdAddr+((first+r)%(chunkSize/RecordSize))*RecordSize)
					build(first + r)
				}
			}

			// Phase S: stream S at the switch; then drain match batches.
			apps.StreamToSwitch(p, h, store, "S", prm.SBytes, activeChunk,
				sw.ID(), sStreamBase, 0x6011, cfg.Outstanding())
			var reported int64 = -1
			for reported < 0 {
				comp := h.RecvAny(p)
				switch {
				case comp.Hdr.Src == store:
					// Notification stragglers.
				case comp.Hdr.Flow == matchFlow:
					for _, pl := range comp.Payloads {
						mb, ok := pl.(*matchBatch)
						if !ok {
							continue
						}
						for _, sIdx := range mb.Recs {
							h.CPU().Load(p, matchAddr+(sIdx%(chunkSize/RecordSize))*RecordSize)
							probe(sIdx)
						}
					}
				case comp.Hdr.Flow == summaryFlow:
					reported = comp.Payloads[0].(summary).Passes
				}
			}
			return map[string]any{"passes": passes, "matches": matches, "reported": reported}
		}

		// Normal: everything on the host, including the bit-vector.
		bvRegion := h.Space().AllocRegion(BitvecBits/8, 4096)
		bv := NewBitvec(BitvecBits)
		buf := h.Space().Alloc(chunkSize, 4096)
		chunkRecs := chunkSize / RecordSize

		apps.StreamChunks(p, h, store, "R", prm.RBytes, chunkSize, buf,
			cfg.Outstanding(), func(off, n int64, _ []any) {
				recBase := off / RecordSize
				cnt := n / RecordSize
				for r := int64(0); r < cnt; r++ {
					h.CPU().Load(p, buf+(r%chunkRecs)*RecordSize)
					key := RKey(recBase + r)
					bit := BitIndex(key)
					h.CPU().Compute(p, hashInstr)
					h.CPU().Store(p, bvRegion.Base+bit/8)
					bv.Set(bit)
					build(recBase + r)
				}
			})

		apps.StreamChunks(p, h, store, "S", prm.SBytes, chunkSize, buf,
			cfg.Outstanding(), func(off, n int64, _ []any) {
				recBase := off / RecordSize
				cnt := n / RecordSize
				for r := int64(0); r < cnt; r++ {
					h.CPU().Load(p, buf+(r%chunkRecs)*RecordSize)
					key, _ := prm.SKey(recBase+r, nR)
					bit := BitIndex(key)
					h.CPU().Compute(p, hashInstr)
					h.CPU().Load(p, bvRegion.Base+bit/8)
					if bv.Get(bit) {
						probe(recBase + r)
					}
				}
			})
		return map[string]any{"passes": passes, "matches": matches, "reported": passes}
	}

	return apps.RunIO(prm.Env, ccfg, cfg, setup, app)
}

// RunAll executes the four configurations (paper Figures 5/6).
func RunAll(prm Params) *stats.Result {
	return apps.RunMatrix(prm.Env, "fig5", "HashJoin with bit-vector filter: time, host utilization, host I/O traffic",
		func(cfg apps.Config) stats.Run { return Run(cfg, prm) })
}
