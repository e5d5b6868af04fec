// Package host assembles one compute node: the 2 GHz processor model with
// its caches and TLBs, an RDRAM channel, an HCA, and the paper's I/O-related
// operating-system cost model — 30 us of fixed cost per request plus
// 0.27 us/KB for each unbuffered disk request, charged to the host CPU.
package host

import (
	"fmt"

	"activesan/internal/cache"
	"activesan/internal/cpu"
	"activesan/internal/iodev"
	"activesan/internal/memsys"
	"activesan/internal/nic"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// OSConfig is the host's software-overhead model.
type OSConfig struct {
	// IOPerRequest is the fixed OS cost charged when issuing a disk request
	// (paper: 30 us).
	IOPerRequest sim.Time
	// IOPerKB is charged per KB of disk data landing in host memory
	// (paper: 0.27 us/KB — interrupt and buffer handling).
	IOPerKB sim.Time
	// SendOverhead is the user-level queue-pair post cost per message.
	SendOverhead sim.Time
	// RecvOverhead is the polling receive cost per message. The paper's
	// receivers poll, "which favors the normal case".
	RecvOverhead sim.Time
}

// DefaultOSConfig returns the paper's measured overheads plus small
// user-level messaging costs typical of 2002 SAN stacks (VIA-style).
func DefaultOSConfig() OSConfig {
	return OSConfig{
		IOPerRequest: 30 * sim.Microsecond,
		IOPerKB:      270 * sim.Nanosecond,
		SendOverhead: 4 * sim.Microsecond,
		RecvOverhead: 3 * sim.Microsecond,
	}
}

// Config assembles a host.
type Config struct {
	Hier    cache.HierConfig
	Mem     memsys.Config
	OS      OSConfig
	Quantum sim.Time
}

// DefaultConfig returns the paper's host: full-size caches over the default
// RDRAM channel. Pass cache.ScaledHostHierConfig() for the database
// benchmarks.
func DefaultConfig() Config {
	return Config{
		Hier:    cache.HostHierConfig(1),
		Mem:     memsys.DefaultConfig(),
		OS:      DefaultOSConfig(),
		Quantum: 500 * sim.Nanosecond,
	}
}

type flowKey struct {
	src  san.NodeID
	flow int64
}

// Host is one compute node.
type Host struct {
	eng   *sim.Engine
	id    san.NodeID
	name  string
	cfg   Config
	mem   *memsys.RDRAM
	space *memsys.AddressSpace
	hier  *cache.Hierarchy
	cpu   *cpu.CPU
	hca   *nic.NIC

	held map[flowKey][]*nic.Completion

	ioRequests int64
	ioBytes    int64
}

// New builds a host attached to the fabric via in/out links.
func New(eng *sim.Engine, id san.NodeID, name string, in, out *san.Link, cfg Config) *Host {
	mem := memsys.New(eng, name+".mem", cfg.Mem)
	hier := cache.NewHierarchy(eng, cfg.Hier, mem, 1<<40)
	h := &Host{
		eng:   eng,
		id:    id,
		name:  name,
		cfg:   cfg,
		mem:   mem,
		space: memsys.NewAddressSpace(0, 1<<32),
		hier:  hier,
		cpu:   cpu.New(eng, name+".cpu", sim.HostClock, hier, cfg.Quantum),
		held:  make(map[flowKey][]*nic.Completion),
	}
	h.hca = nic.New(eng, id, name+".hca", in, out, mem)
	h.hca.SetInvalidator(hier.InvalidateRange)
	return h
}

// Start launches the HCA engines.
func (h *Host) Start() { h.hca.Start() }

// ID returns the host's node id.
func (h *Host) ID() san.NodeID { return h.id }

// Name returns the host's debug name.
func (h *Host) Name() string { return h.name }

// Engine returns the engine the host runs on — its partition's engine in a
// partitioned simulation.
func (h *Host) Engine() *sim.Engine { return h.eng }

// CPU returns the processor timing model.
func (h *Host) CPU() *cpu.CPU { return h.cpu }

// Mem returns the memory channel.
func (h *Host) Mem() *memsys.RDRAM { return h.mem }

// Space returns the host's address-space allocator.
func (h *Host) Space() *memsys.AddressSpace { return h.space }

// NIC returns the host channel adapter.
func (h *Host) NIC() *nic.NIC { return h.hca }

// OS returns the overhead model in use.
func (h *Host) OS() OSConfig { return h.cfg.OS }

// Traffic returns total bytes in/out of the host (the paper's host I/O
// traffic metric).
func (h *Host) Traffic() int64 { return h.hca.Stats().Traffic() }

// IOStats reports disk requests issued and disk bytes received.
func (h *Host) IOStats() (requests, bytes int64) { return h.ioRequests, h.ioBytes }

// ReadToken tracks one outstanding disk read.
type ReadToken struct {
	store san.NodeID
	flow  int64
	len   int64
	// toHost is true when the data lands in host memory (charged per KB on
	// completion); false when it was redirected (active cases) and the
	// token completes via the storage node's Control notification.
	toHost bool
}

// Len returns the read's size.
func (t *ReadToken) Len() int64 { return t.len }

// IssueRead starts a disk read of file [off, off+n) into host memory at
// buf, charging the fixed OS request cost. It does not wait; pair with
// WaitRead. Two in-flight tokens give the paper's "+pref" configurations.
func (h *Host) IssueRead(p *sim.Proc, store san.NodeID, file string, off, n int64, buf int64) *ReadToken {
	return h.issue(p, store, iodev.ReadReq{
		File: file, Off: off, Len: n,
		Dst: h.id, DstAddr: buf, Type: san.Data,
	}, true)
}

// IssueReadTo starts a disk read whose data streams, as Data packets on
// flow, to dstAddr at another node (typically an active switch handler's
// stream). The host still pays the request cost; completion arrives as a
// Control notification from the storage node.
func (h *Host) IssueReadTo(p *sim.Proc, store san.NodeID, file string, off, n int64,
	dst san.NodeID, dstAddr, flow int64) *ReadToken {
	return h.IssueReadReq(p, store, iodev.ReadReq{
		File: file, Off: off, Len: n,
		Dst: dst, DstAddr: dstAddr, Type: san.Data, Flow: flow,
	})
}

// IssueReadReq posts a fully-specified read request (advanced callers:
// active-disk pushdown filters, CPU striping), wiring in the notification
// the returned token waits on.
func (h *Host) IssueReadReq(p *sim.Proc, store san.NodeID, req iodev.ReadReq) *ReadToken {
	return h.issue(p, store, req, false)
}

// issue charges the OS request cost and posts req to store. The token
// waits on the first flow it numbers: the data's own flow for a read into
// host memory (toHost), or else the storage node's notification. The
// request packet takes the next.
func (h *Host) issue(p *sim.Proc, store san.NodeID, req iodev.ReadReq, toHost bool) *ReadToken {
	h.cpu.BusyFor(p, h.cfg.OS.IOPerRequest)
	h.cpu.Flush(p)
	flow := h.hca.NextFlow()
	if toHost {
		req.Flow = flow
	} else {
		req.Notify, req.NotifyFlow = h.id, flow
	}
	h.ioRequests++
	h.hca.Post(&san.Message{
		Hdr:     san.Header{Src: h.id, Dst: store, Type: san.IORequest, Flow: h.hca.NextFlow()},
		Size:    64,
		Payload: req,
	}, 0)
	return &ReadToken{store: store, flow: flow, len: req.Len, toHost: toHost}
}

// WaitRead blocks until the read completes. For host-bound data it charges
// the per-KB unbuffered-I/O cost; for redirected reads it waits for the
// storage node's notification only.
func (h *Host) WaitRead(p *sim.Proc, t *ReadToken) *nic.Completion {
	c := h.RecvFlow(p, t.store, t.flow)
	if t.toHost {
		h.ioBytes += t.len
		h.cpu.BusyFor(p, sim.Time((t.len+1023)/1024)*h.cfg.OS.IOPerKB)
	}
	return c
}

// RecvFlow blocks until the message with the given source and flow arrives,
// buffering any other completions that show up meanwhile.
func (h *Host) RecvFlow(p *sim.Proc, src san.NodeID, flow int64) *nic.Completion {
	key := flowKey{src: src, flow: flow}
	h.cpu.Flush(p)
	for {
		if c := h.popHeld(key); c != nil {
			return c
		}
		c := h.hca.Recv(p)
		k := flowKey{src: c.Hdr.Src, flow: c.Hdr.Flow}
		h.held[k] = append(h.held[k], c)
	}
}

// TryRecvFlow returns a completion for (src, flow) if one has already
// arrived, without blocking. Benchmarks use it to prioritize flow-control
// credits over bulk data so the host issues its next I/O request before
// sinking into per-chunk processing.
func (h *Host) TryRecvFlow(src san.NodeID, flow int64) (*nic.Completion, bool) {
	for {
		c, ok := h.hca.TryRecv()
		if !ok {
			break
		}
		k := flowKey{src: c.Hdr.Src, flow: c.Hdr.Flow}
		h.held[k] = append(h.held[k], c)
	}
	c := h.popHeld(flowKey{src: src, flow: flow})
	return c, c != nil
}

// RecvAny blocks for the next completion of any flow, charging the polling
// receive overhead.
func (h *Host) RecvAny(p *sim.Proc) *nic.Completion {
	h.cpu.Flush(p)
	var c *nic.Completion
	if len(h.held) > 0 {
		// Drain buffered completions deterministically (lowest flow first).
		var best flowKey
		found := false
		for k := range h.held {
			if !found || k.flow < best.flow || (k.flow == best.flow && k.src < best.src) {
				best, found = k, true
			}
		}
		c = h.popHeld(best)
	} else {
		c = h.hca.Recv(p)
	}
	h.cpu.BusyFor(p, h.RecvCost())
	return c
}

// popHeld removes and returns the oldest buffered completion for key, or
// nil when none is buffered.
func (h *Host) popHeld(key flowKey) *nic.Completion {
	q := h.held[key]
	if len(q) == 0 {
		return nil
	}
	if len(q) == 1 {
		delete(h.held, key)
	} else {
		h.held[key] = q[1:]
	}
	return q[0]
}

// RecvCost is the per-message completion cost: the polling overhead.
func (h *Host) RecvCost() sim.Time {
	return h.cfg.OS.RecvOverhead
}

// SendMessage posts a message (charging the queue-pair overhead) and
// returns a latch that opens when the final packet is on the wire.
func (h *Host) SendMessage(p *sim.Proc, msg *san.Message, local int64) *sim.Latch {
	h.cpu.BusyFor(p, h.cfg.OS.SendOverhead)
	h.cpu.Flush(p)
	return h.hca.Post(msg, local)
}

// String implements fmt.Stringer.
func (h *Host) String() string { return fmt.Sprintf("host(%s,%d)", h.name, h.id) }
