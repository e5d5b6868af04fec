// Package tarapp reproduces the paper's Tar benchmark: "tar -cf" over a
// 4 MB set of input files, with the archive redirected to a remote node. The
// host builds a 512-byte ustar-style header per file; in the active cases
// the switch handler initiates the disk reads itself (the one benchmark
// whose I/O starts on the switch) and streams headers plus file data
// straight to the remote node, so the host's I/O traffic collapses to the
// headers and its utilization to essentially zero.
package tarapp

import (
	"fmt"
	"hash/fnv"

	"activesan/internal/apps"
	"activesan/internal/aswitch"
	"activesan/internal/cluster"
	"activesan/internal/iodev"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

// HeaderSize is the ustar block size.
const HeaderSize = 512

// Params sizes the workload and calibrates costs.
type Params struct {
	Files     int
	FileSize  int64
	ChunkSize int64

	// HeaderInstr is the host cost of generating one archive header.
	HeaderInstr int64
	// SwitchIOInstr is the switch kernel's cost to initiate a disk request.
	SwitchIOInstr int64

	// Env observes and arms each configuration's cluster.
	Env apps.Env
}

// DefaultParams returns the paper's 4 MB workload as 16 x 256 KB files.
func DefaultParams() Params {
	return Params{
		Files:         16,
		FileSize:      256 * 1024,
		ChunkSize:     64 * 1024,
		HeaderInstr:   2000,
		SwitchIOInstr: 2000,
	}
}

// Header is a ustar-style 512-byte header block with name, octal size and
// checksum, built for real (the archive is verified end to end).
func Header(name string, size int64) []byte {
	h := make([]byte, HeaderSize)
	copy(h[0:100], name)            // name
	copy(h[100:108], "0000644\x00") // mode
	copy(h[108:116], "0001000\x00") // uid
	copy(h[116:124], "0001000\x00") // gid
	copy(h[124:136], fmt.Sprintf("%011o\x00", size))
	copy(h[136:148], "00000000000\x00") // mtime
	h[156] = '0'                        // typeflag: regular file
	copy(h[257:263], "ustar\x00")
	// Checksum: spaces while summing, then octal.
	for i := 148; i < 156; i++ {
		h[i] = ' '
	}
	var sum int64
	for _, b := range h {
		sum += int64(b)
	}
	copy(h[148:156], fmt.Sprintf("%06o\x00 ", sum))
	return h
}

// VerifyHeader checks a header's checksum and returns the stored name/size.
func VerifyHeader(h []byte) (name string, size int64, ok bool) {
	if len(h) != HeaderSize {
		return "", 0, false
	}
	var stored int64
	fmt.Sscanf(string(h[148:155]), "%o", &stored)
	cp := make([]byte, HeaderSize)
	copy(cp, h)
	for i := 148; i < 156; i++ {
		cp[i] = ' '
	}
	var sum int64
	for _, b := range cp {
		sum += int64(b)
	}
	if sum != stored {
		return "", 0, false
	}
	end := 0
	for end < 100 && h[end] != 0 {
		end++
	}
	fmt.Sscanf(string(h[124:135]), "%o", &size)
	return string(h[:end]), size, true
}

// FileName returns input file i's name.
func FileName(i int) string { return fmt.Sprintf("input%02d", i) }

// BuildFile generates file i's deterministic content.
func BuildFile(i int, size int64) []byte {
	rng := apps.NewRand(uint64(0x746172) ^ uint64(i)<<32) // "tar"
	out := make([]byte, size)
	for j := range out {
		out[j] = byte(rng.Next())
	}
	return out
}

// ArchiveChecksum is the oracle: FNV over header+content per file in order.
func ArchiveChecksum(prm Params) string {
	sum := fnv.New64a()
	for i := 0; i < prm.Files; i++ {
		sum.Write(Header(FileName(i), prm.FileSize))
		sum.Write(BuildFile(i, prm.FileSize))
	}
	return fmt.Sprintf("%x", sum.Sum64())
}

const handlerID = 13

const (
	argBase     = 0x0000_0000
	streamBase  = 0x0010_0000
	archiveFlow = 0x7020
	doneFlow    = 0x7021
	ackFlow     = 0x7022
	archAddr    = 0x0400_0000
)

type tarArgs struct {
	File   string
	Size   int64
	Index  int
	Header []byte
	Store  san.NodeID
	Target san.NodeID
	IsLast bool
	BufSz  int64
}

// Run executes one configuration.
func Run(cfg apps.Config, prm Params) stats.Run {
	return runFiles(cfg, prm, buildFiles(prm))
}

// buildFiles generates every input file, in index order.
func buildFiles(prm Params) [][]byte {
	files := make([][]byte, prm.Files)
	for i := range files {
		files[i] = BuildFile(i, prm.FileSize)
	}
	return files
}

// runFiles is Run on files, buildFiles(prm), which it only reads, so
// concurrent runs share them.
func runFiles(cfg apps.Config, prm Params, files [][]byte) stats.Run {
	ccfg := cluster.DefaultIOClusterConfig()
	ccfg.Hosts = 2

	totalArchive := int64(prm.Files) * (HeaderSize + prm.FileSize)
	var remoteSum string
	var remoteFiles int

	setup := func(c *cluster.Cluster) {
		for i := 0; i < prm.Files; i++ {
			c.Store(0).AddFile(&iodev.File{Name: FileName(i), Size: prm.FileSize, Data: files[i]})
		}
		if !cfg.IsActive() {
			return
		}
		sw := c.Switch(0)
		sw.Register(handlerID, "tar", func(x *aswitch.Ctx) {
			args := x.Args().(tarArgs)
			x.ReleaseArgs()
			// Forward the host-built header to the archive target.
			x.Send(aswitch.SendSpec{
				Dst: args.Target, Type: san.Data, Addr: archAddr,
				Size: HeaderSize, Flow: archiveFlow, Payload: args.Header,
			})
			// Initiate the disk read ourselves (modest kernel support on
			// the switch), streaming the file into our own buffers.
			base := int64(streamBase)
			x.Compute(prm.SwitchIOInstr)
			x.Send(aswitch.SendSpec{
				Dst: args.Store, Type: san.IORequest, Addr: 0, Size: 64,
				Flow: int64(0x6020 + args.Index),
				Payload: iodev.ReadReq{
					File: args.File, Off: 0, Len: args.Size,
					Dst: x.Switch().ID(), DstAddr: base, Type: san.Data,
					Flow: int64(0x6120 + args.Index),
				},
			})
			// Forward the stream to the target; no per-byte processing.
			cursor := base
			end := base + args.Size
			pkt := 0
			for cursor < end {
				b := x.WaitStream(cursor)
				last := b.End() >= end
				x.Forward(aswitch.SendSpec{
					Dst: args.Target, Type: san.Data, Addr: archAddr + (cursor - base), Flow: archiveFlow,
				}, b, pkt, last || pkt%128 == 127)
				pkt++
				cursor = b.End()
				x.Deallocate(cursor)
			}
			// Per-file completion notice: the host sends the next file's
			// header only after this one is archived, so queued argument
			// buffers never pin ATB slots the stream needs.
			x.Send(aswitch.SendSpec{
				Dst: x.Src(), Type: san.Control, Addr: argBase,
				Size: 8, Flow: doneFlow,
			})
		})
	}

	app := func(p *sim.Proc, c *cluster.Cluster) map[string]any {
		h0 := c.Host(0)
		h1 := c.Host(1)
		store := c.Store(0).ID()
		sw := c.Switch(0)

		// The remote node assembles and verifies the archive.
		c.Eng.Spawn("archive-target", func(rp *sim.Proc) {
			sum := fnv.New64a()
			var got int64
			var raw []byte
			for got < totalArchive {
				comp := h1.RecvAny(rp)
				got += comp.Size
				for _, pl := range comp.Payloads {
					if b, ok := pl.([]byte); ok {
						raw = append(raw, b...)
					}
				}
			}
			// Verify structure: header, content, header, content...
			off := int64(0)
			for off+HeaderSize <= int64(len(raw)) {
				_, size, ok := VerifyHeader(raw[off : off+HeaderSize])
				if !ok {
					break
				}
				if off+HeaderSize+size > int64(len(raw)) {
					break
				}
				sum.Write(raw[off : off+HeaderSize+size])
				off += HeaderSize + size
				remoteFiles++
			}
			remoteSum = fmt.Sprintf("%x", sum.Sum64())
			// Ack the initiator.
			h1.SendMessage(rp, &san.Message{
				Hdr:  san.Header{Dst: h0.ID(), Type: san.Control, Flow: ackFlow},
				Size: 8,
			}, 0)
		})

		if cfg.IsActive() {
			// Parse options, then hand each file to the switch: header +
			// instruction to read and redirect.
			h0.CPU().Compute(p, 20000)
			for i := 0; i < prm.Files; i++ {
				h0.CPU().Compute(p, prm.HeaderInstr)
				hdr := Header(FileName(i), prm.FileSize)
				h0.SendMessage(p, &san.Message{
					Hdr:  san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: handlerID, Addr: argBase},
					Size: HeaderSize,
					Payload: tarArgs{
						File: FileName(i), Size: prm.FileSize, Index: i,
						Header: hdr, Store: store, Target: h1.ID(),
						IsLast: i == prm.Files-1, BufSz: prm.ChunkSize,
					},
				}, 0)
				h0.RecvFlow(p, sw.ID(), doneFlow)
			}
			h0.RecvFlow(p, h1.ID(), ackFlow)
			return map[string]any{"checksum": remoteSum, "files": remoteFiles}
		}

		// Normal: the host reads every file and ships the archive itself.
		h0.CPU().Compute(p, 20000)
		buf := h0.Space().Alloc(prm.ChunkSize, 4096)
		for i := 0; i < prm.Files; i++ {
			h0.CPU().Compute(p, prm.HeaderInstr)
			hdr := Header(FileName(i), prm.FileSize)
			h0.SendMessage(p, &san.Message{
				Hdr:     san.Header{Dst: h1.ID(), Type: san.Data, Addr: archAddr, Flow: archiveFlow},
				Size:    HeaderSize,
				Payload: hdr,
			}, 0)
			apps.StreamChunks(p, h0, store, FileName(i), prm.FileSize, prm.ChunkSize, buf,
				cfg.Outstanding(), func(off, n int64, payloads []any) {
					var body []byte
					for _, pl := range payloads {
						if b, ok := pl.([]byte); ok {
							body = append(body, b...)
						}
					}
					h0.SendMessage(p, &san.Message{
						Hdr:     san.Header{Dst: h1.ID(), Type: san.Data, Addr: archAddr, Flow: archiveFlow},
						Size:    n,
						Payload: body,
						Split:   san.SliceSplit(body),
					}, buf)
				})
		}
		h0.RecvFlow(p, h1.ID(), ackFlow)
		return map[string]any{"checksum": remoteSum, "files": remoteFiles}
	}

	run, _ := apps.RunIOWith(prm.Env, ccfg, cfg, setup, app, []int{0})
	return run
}

// RunAll executes the four configurations (paper Figures 11/12) on one set
// of input files. Host metrics cover the initiating host only — the
// paper's Tar host — so the remote archive target's activity does not
// dilute utilization.
func RunAll(prm Params) *stats.Result {
	files := buildFiles(prm)
	return apps.RunMatrix(prm.Env, "fig11", "Tar: time, host utilization, host I/O traffic",
		func(cfg apps.Config) stats.Run { return runFiles(cfg, prm, files) })
}
