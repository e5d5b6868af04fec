// Package mpeg reproduces the paper's MPEG-filter benchmark (the Lancaster
// video filter): a 2,202,640-byte stream of I- and P-frames, read in 64 KB
// requests, with two filtering tasks. Frame filtering (drop every P-frame,
// keep I-frames) is cheap header-checking and runs on the switch in the
// active cases; color reduction (decode + re-encode of each I-frame) is
// compute-intensive and stays on the host. About 63.5% of the stream is
// P-frame bytes, so the switch-side filter also removes ~63.5% of the data
// headed to the host, and the two processors form the balanced pipeline of
// the paper's Figure 4.
package mpeg

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"activesan/internal/apps"
	"activesan/internal/aswitch"
	"activesan/internal/cache"
	"activesan/internal/cluster"
	"activesan/internal/fault"
	"activesan/internal/iodev"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

// Frame header layout: 3-byte start code, 1-byte type, 4-byte total length.
const (
	headerLen = 8
	typeI     = 'I'
	typeP     = 'P'
	typeB     = 'B'
)

var startCode = [3]byte{0x00, 0x00, 0x01}

// Params sizes the workload.
type Params struct {
	FileSize  int64
	BFrame    int64 // B-frame payload bytes
	PPerGOP   int   // P-frames following each I-frame
	BPerP     int   // B-frames following each P-frame
	ChunkSize int64

	// Env observes and arms each configuration's cluster.
	Env apps.Env
}

// DefaultParams returns the paper's workload: 2,202,640 bytes, ~63.5%
// P-frame bytes (8 KB I-frames, seven 2 KB P-frames per GOP), 64 KB I/O.
func DefaultParams() Params {
	return Params{
		FileSize:  2202640,
		PPerGOP:   7,
		ChunkSize: 64 * 1024,
	}
}

// The frame sizes and the per-byte costs.
const (
	iFrame = 8192 // I-frame payload bytes
	pFrame = 2048 // P-frame payload bytes

	// hostFilterInstr is the host's per-byte cost of software frame
	// filtering (parsing plus the copies a host-side filter cannot avoid).
	hostFilterInstr = 50
	// hostColorInstr is the per-byte decode/re-encode cost of color
	// reduction, paid on I-frame bytes only.
	hostColorInstr = 280
	// switchFilterCycles is the switch CPU's per-byte filtering cost.
	switchFilterCycles = 26
)

// BuildStream generates the deterministic video file: GOPs of one I-frame
// and PPerGOP P-frames until FileSize, with the final frame trimmed to fit
// exactly.
func BuildStream(prm Params) []byte {
	rng := apps.NewRand(0x6D706567) // "mpeg"
	out := make([]byte, 0, prm.FileSize)
	emit := func(t byte, payload int64) {
		total := headerLen + payload
		if int64(len(out))+total > prm.FileSize {
			total = prm.FileSize - int64(len(out))
			if total < headerLen {
				// Too little room for a frame: pad with zero bytes that the
				// parser treats as stream padding.
				for int64(len(out)) < prm.FileSize {
					out = append(out, 0)
				}
				return
			}
		}
		var hdr [headerLen]byte
		copy(hdr[:3], startCode[:])
		hdr[3] = t
		binary.LittleEndian.PutUint32(hdr[4:], uint32(total))
		out = append(out, hdr[:]...)
		for i := int64(headerLen); i < total; i++ {
			out = append(out, byte(rng.Next()))
		}
	}
	for int64(len(out)) < prm.FileSize {
		emit(typeI, iFrame)
		for k := 0; k < prm.PPerGOP && int64(len(out)) < prm.FileSize; k++ {
			emit(typeP, pFrame)
			for b := 0; b < prm.BPerP && int64(len(out)) < prm.FileSize; b++ {
				emit(typeB, prm.BFrame)
			}
		}
	}
	return out[:prm.FileSize]
}

// PBytes counts non-I-frame (P and B) bytes in a stream — the fraction the
// filter drops (workload self-check: ~63.5%).
func PBytes(stream []byte) int64 {
	var p int64
	ForEachFrame(stream, func(t byte, frame []byte) {
		if t != typeI {
			p += int64(len(frame))
		}
	})
	return p
}

// ForEachFrame walks a complete stream, invoking fn per frame.
func ForEachFrame(stream []byte, fn func(t byte, frame []byte)) {
	off := int64(0)
	n := int64(len(stream))
	for off+headerLen <= n {
		if stream[off] != startCode[0] || stream[off+1] != startCode[1] || stream[off+2] != startCode[2] {
			break // padding
		}
		total := int64(binary.LittleEndian.Uint32(stream[off+4 : off+8]))
		if total < headerLen || off+total > n {
			break
		}
		fn(stream[off+3], stream[off:off+total])
		off += total
	}
}

// filter is the streaming frame filter shared by the host-normal path and
// the switch handler: feed it chunks, it emits I-frames.
type filter struct {
	hdr     []byte
	remain  int64 // bytes left of the current frame
	keep    bool
	cur     []byte
	Out     func(frame []byte)
	IBytes  int64
	PBytes  int64
	padding bool
}

func (f *filter) Feed(data []byte) {
	i := int64(0)
	n := int64(len(data))
	for i < n {
		if f.padding {
			return
		}
		if f.remain > 0 {
			take := f.remain
			if take > n-i {
				take = n - i
			}
			if f.keep {
				f.cur = append(f.cur, data[i:i+take]...)
			}
			f.remain -= take
			i += take
			if f.remain == 0 && f.keep {
				f.Out(f.cur)
				f.cur = nil
			}
			continue
		}
		// Accumulate a header.
		need := int64(headerLen - len(f.hdr))
		take := need
		if take > n-i {
			take = n - i
		}
		f.hdr = append(f.hdr, data[i:i+take]...)
		i += take
		if len(f.hdr) < headerLen {
			return
		}
		if f.hdr[0] != startCode[0] || f.hdr[1] != startCode[1] || f.hdr[2] != startCode[2] {
			f.padding = true
			return
		}
		t := f.hdr[3]
		total := int64(binary.LittleEndian.Uint32(f.hdr[4:8]))
		if total < headerLen {
			f.padding = true
			return
		}
		f.keep = t == typeI
		f.remain = total - headerLen
		if f.keep {
			f.IBytes += total
			f.cur = append(f.cur[:0], f.hdr...)
			if f.remain == 0 {
				f.Out(f.cur)
				f.cur = nil
			}
		} else {
			f.PBytes += total
		}
		f.hdr = f.hdr[:0]
	}
}

const handlerID = 11

const (
	argBase     = 0x0000_0000
	streamBase  = 0x0010_0000
	resultFlow  = 0x7003
	creditFlow  = 0x7004
	summaryFlow = 0x7005
	outAddr     = 0x0200_0000
)

type handlerArgs struct {
	FileLen int64
	BufSz   int64
}

// Run executes one configuration.
func Run(cfg apps.Config, prm Params) stats.Run {
	run, _ := RunFaulted(cfg, prm, BuildStream(prm))
	return run
}

// RunFaulted is Run on stream, BuildStream(prm) built once by the caller,
// that also returns the injector of prm.Env's fault plan (nil without
// one). The run only reads stream, so concurrent runs share it. The
// active configurations gain the handler-crash fallback: when the
// switch's crash notice arrives mid-stream, the host abandons the
// offloaded pipeline and transparently re-runs the whole program locally
// — the workload still completes, with the slowdown visible in the run's
// time and a "fallback" marker in Extra.
func RunFaulted(cfg apps.Config, prm Params, stream []byte) (stats.Run, *fault.Injector) {
	ccfg := cluster.DefaultIOClusterConfig()

	setup := func(c *cluster.Cluster) {
		c.Store(0).AddFile(&iodev.File{Name: "video", Size: prm.FileSize, Data: stream})
		if !cfg.IsActive() {
			return
		}
		sw := c.Switch(0)
		sw.Register(handlerID, "mpeg-filter", func(x *aswitch.Ctx) {
			args := x.Args().(handlerArgs)
			x.ReleaseArgs()
			var pending []byte
			flush := func(force bool) {
				for int64(len(pending)) >= args.BufSz || (force && len(pending) > 0) {
					n := int64(len(pending))
					if n > args.BufSz {
						n = args.BufSz
					}
					batch := pending[:n:n]
					pending = pending[n:]
					x.Send(aswitch.SendSpec{
						Dst: x.Src(), Type: san.Data, Addr: outAddr,
						Size: n, Flow: resultFlow, Payload: batch,
					})
				}
			}
			f := &filter{Out: func(frame []byte) { pending = append(pending, frame...) }}
			cursor := int64(streamBase)
			end := int64(streamBase) + args.FileLen
			nextCredit := int64(streamBase) + args.BufSz
			for cursor < end {
				b := x.WaitStream(cursor)
				data, _ := x.ReadAll(b).([]byte)
				x.Compute(switchFilterCycles * b.Size())
				f.Feed(data)
				cursor = b.End()
				x.Deallocate(cursor)
				flush(false)
				// Per-chunk reply: the paper's flow control lets the host
				// issue its next bufSz request when the switch has consumed
				// the previous one.
				if cursor-streamBase >= nextCredit-streamBase {
					x.Send(aswitch.SendSpec{
						Dst: x.Src(), Type: san.Control, Addr: argBase,
						Size: 4, Flow: creditFlow,
					})
					nextCredit += args.BufSz
				}
			}
			flush(true)
			x.Send(aswitch.SendSpec{
				Dst: x.Src(), Type: san.Control, Addr: argBase,
				Size: 8, Flow: summaryFlow, Payload: f.IBytes,
			})
		})
	}

	app := func(p *sim.Proc, c *cluster.Cluster) map[string]any {
		h := c.Host(0)
		store := c.Store(0).ID()
		sw := c.Switch(0)

		// runNormal is the complete host-local program: filter and
		// color-reduce on the host. It is both the normal configurations'
		// body and the crash fallback the active configurations re-run when
		// the switch's handler plane dies mid-stream.
		runNormal := func() map[string]any {
			sum := fnv.New64a()
			var iBytes int64
			buf := h.Space().Alloc(prm.ChunkSize, 4096)
			color := func(frame []byte) {
				// Color reduction: decode + re-encode each I-frame.
				h.CPU().TouchRange(p, buf, int64(len(frame)), cache.Load)
				h.CPU().Compute(p, hostColorInstr*int64(len(frame)))
				h.CPU().TouchRange(p, outAddr+0x100000, int64(len(frame)), cache.Store)
				sum.Write(frame)
				iBytes += int64(len(frame))
			}
			f := &filter{Out: color}
			apps.StreamChunks(p, h, store, "video", prm.FileSize, prm.ChunkSize, buf,
				cfg.Outstanding(), func(off, n int64, payloads []any) {
					h.CPU().TouchRange(p, buf, n, cache.Load)
					h.CPU().Compute(p, hostFilterInstr*n)
					for _, pl := range payloads {
						if bts, ok := pl.([]byte); ok {
							f.Feed(bts)
						}
					}
				})
			return map[string]any{
				"iBytes":   iBytes,
				"reported": f.IBytes,
				"checksum": fmt.Sprintf("%x", sum.Sum64()),
			}
		}

		if cfg.IsActive() {
			sum := fnv.New64a()
			var iBytes int64
			color := func(frame []byte, base int64) {
				h.CPU().TouchRange(p, base, int64(len(frame)), cache.Load)
				h.CPU().Compute(p, hostColorInstr*int64(len(frame)))
				h.CPU().TouchRange(p, outAddr+0x100000, int64(len(frame)), cache.Store)
				sum.Write(frame)
				iBytes += int64(len(frame))
			}
			h.SendMessage(p, &san.Message{
				Hdr:     san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: handlerID, Addr: argBase},
				Size:    64,
				Payload: handlerArgs{FileLen: prm.FileSize, BufSz: prm.ChunkSize},
			}, 0)
			// Event loop: credits pace the disk requests; I-frame batches
			// are color-reduced as they arrive; the summary ends the run.
			issued := int64(0)
			issue := func() {
				n := prm.FileSize - issued
				if n <= 0 {
					return
				}
				if n > prm.ChunkSize {
					n = prm.ChunkSize
				}
				h.IssueReadTo(p, store, "video", issued, n, sw.ID(), streamBase+issued, 0x6003)
				issued += n
			}
			for i := 0; i < cfg.Outstanding(); i++ {
				issue()
			}
			var reported int64 = -1
			crashed := false
			asm := &messageAssembler{}
			// pollCredits issues new requests the moment the switch's
			// per-chunk replies arrive — the balanced-pipeline discipline:
			// keep the switch fed, then do the compute-heavy color pass.
			pollCredits := func() {
				for {
					if _, ok := h.TryRecvFlow(sw.ID(), creditFlow); !ok {
						return
					}
					issue()
				}
			}
			for reported < 0 && !crashed {
				pollCredits()
				comp := h.RecvAny(p)
				if len(comp.Payloads) == 1 {
					if _, isCrash := comp.Payloads[0].(aswitch.CrashNotice); isCrash {
						crashed = true
						continue
					}
				}
				switch {
				case comp.Hdr.Src == store:
					// Storage notification — unused here; credits pace us.
				case comp.Hdr.Flow == creditFlow:
					issue()
				case comp.Hdr.Flow == resultFlow:
					for _, pl := range comp.Payloads {
						if bts, ok := pl.([]byte); ok {
							asm.feed(bts, func(frame []byte) {
								pollCredits()
								color(frame, outAddr)
							})
						}
					}
				case comp.Hdr.Flow == summaryFlow:
					reported = comp.Payloads[0].(int64)
				}
			}
			if crashed {
				// Handler-crash fallback: the offloaded pipeline is gone, so
				// re-run the whole program locally. Partial switch output is
				// discarded — the local pass recomputes everything, which
				// keeps the result identical at the cost of the redone work.
				out := runNormal()
				out["fallback"] = true
				return out
			}
			return map[string]any{
				"iBytes":   iBytes,
				"reported": reported,
				"checksum": fmt.Sprintf("%x", sum.Sum64()),
			}
		}

		return runNormal()
	}

	return apps.RunIOWith(prm.Env, ccfg, cfg, setup, app, nil)
}

// messageAssembler re-parses frame boundaries out of the concatenated
// I-frame batches the switch ships to the host.
type messageAssembler struct {
	f *filter
}

func (a *messageAssembler) feed(data []byte, out func(frame []byte)) {
	if a.f == nil {
		a.f = &filter{}
	}
	a.f.Out = out
	a.f.Feed(data)
}

// RunAll executes the four configurations (paper Figures 3/4) on one
// stream.
func RunAll(prm Params) *stats.Result {
	stream := BuildStream(prm)
	return apps.RunMatrix(prm.Env, "fig3", "MPEG filter: time, host utilization, host I/O traffic",
		func(cfg apps.Config) stats.Run {
			run, _ := RunFaulted(cfg, prm, stream)
			return run
		})
}
