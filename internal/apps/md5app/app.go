// Package md5app reproduces the paper's MD5 benchmark: the message digest
// of a 256 KB input. MD5's block chaining prevents parallelism, so the
// single-switch-CPU active case is slower than the host (the paper's one
// failed partitioning); the paper's multi-CPU variant splits the input into
// K independent chains (block i joins chain i mod K) and digests the K
// digests with a single-block pass, recovering speedup with 2-4 switch CPUs.
// The digest itself is the standard library's crypto/md5.
package md5app

import (
	"crypto/md5"
	"fmt"

	"activesan/internal/apps"
	"activesan/internal/aswitch"
	"activesan/internal/cache"
	"activesan/internal/cluster"
	"activesan/internal/host"
	"activesan/internal/iodev"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

// Params sizes the workload.
type Params struct {
	FileSize int64

	// Env observes and arms each configuration's cluster.
	Env apps.Env
}

// DefaultParams returns the paper's 256 KB workload.
func DefaultParams() Params {
	return Params{FileSize: 256 * 1024}
}

// The request and interleave sizes and the per-byte costs.
const (
	// chunkSize is the disk-request size.
	chunkSize = 64 * 1024
	// chainBlock is the K-chain interleave granularity (a multiple of the
	// MTU; one MTU so the dispatch unit round-robins packets across switch
	// CPUs without head-of-line blocking in the shared buffer pool).
	chainBlock = 512

	// hostMD5Instr is the host's per-byte digest cost.
	hostMD5Instr = 80
	// switchMD5Cycles is the switch CPU's per-byte digest cost.
	switchMD5Cycles = 60
)

// BuildInput generates the deterministic input file.
func BuildInput(prm Params) []byte {
	rng := apps.NewRand(0x6D6435) // "md5"
	out := make([]byte, prm.FileSize)
	for i := range out {
		out[i] = byte(rng.Next())
	}
	return out
}

const handlerID = 14

const (
	argStride  = 512 // per-CPU argument slot
	streamBase = 0x0010_0000
	wayStride  = 0x0100_0000 // address distance between chains
	digestFlow = 0x7030
	inputAddr  = 0x0500_0000
)

type chainArgs struct {
	ChainLen int64
	Base     int64
	CPU      int
}

// chainLen returns how many bytes chain k receives.
func chainLen(prm Params, k, cpus int) int64 {
	var n int64
	for i := int64(0); i*chainBlock < prm.FileSize; i++ {
		if int(i)%cpus != k {
			continue
		}
		end := (i + 1) * chainBlock
		if end > prm.FileSize {
			end = prm.FileSize
		}
		n += end - i*chainBlock
	}
	return n
}

// Run executes one configuration with the given switch CPU count (ignored
// for the normal configurations).
func Run(cfg apps.Config, cpus int, prm Params) stats.Run {
	return runInput(cfg, cpus, prm, BuildInput(prm))
}

// runInput is Run on input, BuildInput(prm), which it only reads, so
// concurrent runs share it.
func runInput(cfg apps.Config, cpus int, prm Params, input []byte) stats.Run {
	ccfg := cluster.DefaultIOClusterConfig()
	ccfg.Switch.NumCPUs = cpus

	setup := func(c *cluster.Cluster) {
		c.Store(0).AddFile(&iodev.File{Name: "input", Size: prm.FileSize, Data: input})
		if !cfg.IsActive() {
			return
		}
		sw := c.Switch(0)
		sw.Register(handlerID, "md5", func(x *aswitch.Ctx) {
			args := x.Args().(chainArgs)
			x.ReleaseArgs()
			d := md5.New()
			cursor := args.Base
			end := cursor + args.ChainLen
			for cursor < end {
				b := x.WaitStream(cursor)
				data, _ := x.ReadAll(b).([]byte)
				x.Compute(switchMD5Cycles * b.Size())
				if data != nil {
					d.Write(data)
				}
				cursor = b.End()
				x.Deallocate(cursor)
			}
			x.Send(aswitch.SendSpec{
				Dst: x.Src(), Type: san.Data, Addr: inputAddr,
				Size: md5.Size, Flow: digestFlow + int64(args.CPU), Payload: d.Sum(nil),
			})
		})
	}

	app := func(p *sim.Proc, c *cluster.Cluster) map[string]any {
		h := c.Host(0)
		store := c.Store(0).ID()
		sw := c.Switch(0)

		if cfg.IsActive() {
			// One handler instance per switch CPU, each digesting its own
			// chain.
			for k := 0; k < cpus; k++ {
				h.SendMessage(p, &san.Message{
					Hdr: san.Header{
						Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: handlerID,
						Addr: int64(k) * argStride, CPUID: k,
					},
					Size:    64,
					Payload: chainArgs{ChainLen: chainLen(prm, k, cpus), Base: streamBase + int64(k)*wayStride, CPU: k},
				}, 0)
			}
			// Issue chunk reads striped across the switch CPUs: packet
			// tagging in the header's CPU-id field feeds every chain from
			// each request.
			var pending []*host.ReadToken
			issueChunk := func(off int64) {
				n := prm.FileSize - off
				if n <= 0 {
					return
				}
				if n > chunkSize {
					n = chunkSize
				}
				tok := h.IssueReadReq(p, store, iodev.ReadReq{
					File: "input", Off: off, Len: n,
					Dst: sw.ID(), DstAddr: streamBase, Type: san.Data, Flow: 0x6030,
					Stripe: chainBlock, Ways: cpus, WayStride: wayStride,
				})
				pending = append(pending, tok)
			}
			next := int64(0)
			for i := 0; i < cfg.Outstanding() && next < prm.FileSize; i++ {
				issueChunk(next)
				next += chunkSize
			}
			for len(pending) > 0 {
				h.WaitRead(p, pending[0])
				pending = pending[1:]
				if next < prm.FileSize {
					issueChunk(next)
					next += chunkSize
				}
			}
			// Collect the K digests and fold them with a single-block pass
			// (K=1 is plain MD5: the chain digest is the answer).
			sums := make([][]byte, cpus)
			for k := 0; k < cpus; k++ {
				comp := h.RecvFlow(p, sw.ID(), digestFlow+int64(k))
				sums[k] = comp.Payloads[0].([]byte)
				h.CPU().Compute(p, 2*md5.BlockSize*hostMD5Instr)
			}
			digest := sums[0]
			if cpus > 1 {
				final := md5.New()
				for _, s := range sums {
					final.Write(s)
				}
				digest = final.Sum(nil)
			}
			return map[string]any{"digest": fmt.Sprintf("%x", digest)}
		}

		// Normal: digest on the host.
		d := md5.New()
		buf := h.Space().Alloc(chunkSize, 4096)
		apps.StreamChunks(p, h, store, "input", prm.FileSize, chunkSize, buf,
			cfg.Outstanding(), func(off, n int64, payloads []any) {
				h.CPU().TouchRange(p, buf, n, cache.Load)
				h.CPU().Compute(p, hostMD5Instr*n)
				for _, pl := range payloads {
					if b, ok := pl.([]byte); ok {
						d.Write(b)
					}
				}
			})
		return map[string]any{"digest": fmt.Sprintf("%x", d.Sum(nil))}
	}

	run := apps.RunIO(prm.Env, ccfg, cfg, setup, app)
	run.Config = ConfigLabel(cfg, cpus)
	return run
}

// ConfigLabel names a run like the paper's Figure 17 bars.
func ConfigLabel(cfg apps.Config, cpus int) string {
	if !cfg.IsActive() {
		return cfg.String()
	}
	return fmt.Sprintf("%s-%dcpu", cfg, cpus)
}

// RunAll executes the Figure 17 matrix on one input: normal cases plus
// active with 1, 2 and 4 switch CPUs, each with and without prefetching.
func RunAll(prm Params) *stats.Result {
	points := []struct {
		cfg  apps.Config
		cpus int
	}{
		{apps.Normal, 1}, {apps.NormalPref, 1},
		{apps.Active, 1}, {apps.ActivePref, 1},
		{apps.Active, 2}, {apps.ActivePref, 2},
		{apps.Active, 4}, {apps.ActivePref, 4},
	}
	input := BuildInput(prm)
	res := &stats.Result{ID: "fig17", Title: "MD5 with multiple switch CPUs", Runs: make([]stats.Run, len(points))}
	prm.Env.Runs(len(points),
		func(i int) string { return "fig17 " + ConfigLabel(points[i].cfg, points[i].cpus) },
		func(i int) { res.Runs[i] = runInput(points[i].cfg, points[i].cpus, prm, input) })
	return res
}
