// Package iodev models the paper's I/O subsystem: a target channel adapter
// (TCA), an Ultra-320 SCSI bus with arbitration/selection overhead and a
// 320 MB/s peak rate, and a two-disk stripe with 100 MB/s total bandwidth,
// seek/rotation latency, and sequential-access detection. Disk data streams
// toward its destination in MTU packets, pipelined disk -> SCSI -> link.
package iodev

import (
	"fmt"

	"activesan/internal/san"
	"activesan/internal/sim"
)

// The paper's I/O subsystem. The disk pair is modeled as one aggregate
// device at the total bandwidth (the paper only constrains the total).
// Seek and rotation use typical 2002-era server disk values (the paper lists
// the three parameters without printing numbers); sequential streams — "we
// assume a sequential access pattern because most of our applications deal
// with large files" — pay them only once.
const (
	// Seek is the average positioning time paid on non-sequential access.
	Seek = 5 * sim.Millisecond
	// Rotation is the average rotational latency added to a seek.
	Rotation = 3 * sim.Millisecond
	// DiskBandwidth is the disk pair's total streaming rate in bytes per
	// second.
	DiskBandwidth = 100e6
	// BusArbitration is the SCSI bus's per-transaction arbitration and
	// selection overhead.
	BusArbitration = 2 * sim.Microsecond
	// BusBandwidth is the SCSI bus's peak transfer rate in bytes per second.
	BusBandwidth = 320e6
)

// filterClock is the embedded processor that runs active-disk filters: a
// 200 MHz active-disk-class core, weaker than the switch CPU.
var filterClock = sim.Clock{Period: 5000 * sim.Picosecond}

// File is a named extent on the storage node. Data or Gen provide the
// functional content; both nil means timing-only transfers.
type File struct {
	Name string
	Size int64
	// Data is literal content.
	Data []byte
	// Gen synthesizes the payload for [off, off+n); used for workloads too
	// large to materialize.
	Gen func(off, n int64) any
}

func (f *File) payload(off, n int64) any {
	switch {
	case f.Gen != nil:
		return f.Gen(off, n)
	case f.Data != nil:
		return f.Data[off : off+n]
	default:
		return nil
	}
}

// ReadReq asks a storage node to stream part of a file to a destination.
// It travels as the payload of a san.IORequest packet.
type ReadReq struct {
	File string
	Off  int64
	Len  int64

	// Dst receives the data packets; DstAddr is the mapped base address
	// (host buffer or active-switch stream region).
	Dst     san.NodeID
	DstAddr int64
	// Type is the data packets' type: san.Data for plain delivery, or
	// san.ActiveMsg when the stream should invoke a handler at Dst.
	Type      san.Type
	HandlerID int
	CPUID     int
	Flow      int64

	// Stripe/Ways/WayStride distribute the stream across switch CPUs (the
	// paper's MD5 variant): the packet at file offset g is in block
	// b = g/Stripe, goes to CPU way = b mod Ways, and is mapped at
	// DstAddr + way*WayStride + (b/Ways)*Stripe + g%Stripe. Stripe must be
	// a multiple of the MTU. Striping applies whenever Ways >= 1 and
	// Stripe > 0: with Ways == 1 every packet goes to CPU 0 and is still
	// addressed by its file offset, at DstAddr + g, which md5app's
	// single-CPU run relies on to chain successive reads. With Ways or
	// Stripe zero the packets keep CPUID and are addressed by their offset
	// within the read.
	Stripe    int64
	Ways      int
	WayStride int64

	// FilterID selects a registered active-disk pushdown filter (0 = none).
	FilterID int

	// Notify, when valid, receives a small Control packet once the final
	// data packet is on the wire (used when the data bypasses the
	// requester, so it can pace further requests).
	Notify     san.NodeID
	NotifyFlow int64
}

// Filter is an active-disk pushdown: the paper's related work points out
// that active I/O devices compose with active switches into "a two-level
// active I/O system". A storage node with registered filters runs them on
// an embedded processor as data leaves the platters, emitting only the
// kept bytes.
type Filter struct {
	Name string
	// Fn inspects chunk [off, off+n) of the file and returns how many
	// bytes survive and their payload.
	Fn func(off, n int64, payload any) (keep int64, out any)
	// CyclesPerByte is charged on the embedded disk processor per input
	// byte.
	CyclesPerByte int64
}

// Stats counts storage activity.
type Stats struct {
	Reads             int64
	BytesRead         int64
	Seeks, Sequential int64
	// FilteredBytes counts bytes a pushdown filter removed at the source.
	FilteredBytes int64
	// DiskRetries counts media errors recovered by re-reading (only fault
	// injection produces them).
	DiskRetries int64
}

// DiskInjector decides whether a disk operation fails and must be retried.
// Implementations must be deterministic (seeded PRNG only).
type DiskInjector interface {
	OnDiskOp(node, file string, off, n int64) bool
}

// maxDiskAttempts bounds injected-media-error retries per operation so an
// always-fail plan degrades a run instead of hanging it.
const maxDiskAttempts = 64

// StorageNode is a TCA plus its SCSI bus and disk stripe. The embedded
// san.Adapter holds the TCA's links, its receive engine and its
// retransmission.
type StorageNode struct {
	san.Adapter
	eng *sim.Engine

	files   map[string]*File
	filters map[int]*Filter
	reqs    *sim.Queue[queuedReq]
	bus     *sim.Server
	// fcpu serializes the embedded filter processor.
	fcpu *sim.Server

	// diskFreeAt serializes the logical disk; lastFile/lastEnd detect
	// sequential access.
	diskFreeAt sim.Time
	lastFile   string
	lastEnd    int64

	// Optional media-error injection (nil unless armed).
	dinj   DiskInjector
	dretry sim.Time

	// Telemetry hook (nil = off): stamp mints in-band records for read
	// data leaving the node. maxReqQueue is the request-queue high-water
	// mark, tracked only while armed.
	stamp       san.Stamper
	maxReqQueue int

	// disk is the disk engine's step state.
	disk diskState

	stats Stats
}

// queuedReq is a read request with its arrival time, so the telemetry disk
// hop starts when the work arrived rather than when the TCA got to it. The
// packet itself goes back to its sender's pool.
type queuedReq struct {
	req ReadReq
	at  sim.Time
}

// New builds a storage node attached via the given links.
func New(eng *sim.Engine, id san.NodeID, name string, in, out *san.Link) *StorageNode {
	s := &StorageNode{
		eng:     eng,
		files:   make(map[string]*File),
		filters: make(map[int]*Filter),
		reqs:    sim.NewQueue[queuedReq](),
		bus:     sim.NewServer(eng),
		fcpu:    sim.NewServer(eng),
	}
	s.Adapter = san.NewAdapter(eng, id, name, in, out, s)
	return s
}

// RegisterFilter installs an active-disk pushdown filter under id (> 0).
func (s *StorageNode) RegisterFilter(id int, f *Filter) {
	if id <= 0 {
		panic("iodev: filter ids must be positive")
	}
	if _, dup := s.filters[id]; dup {
		panic(fmt.Sprintf("iodev: duplicate filter %d on %s", id, s.Name()))
	}
	s.filters[id] = f
}

// SetTelemetry arms per-packet stamping on this node: stamp mints records
// for outgoing read data. Install before traffic flows.
func (s *StorageNode) SetTelemetry(stamp san.Stamper) { s.stamp = stamp }

// MaxQueuedReqs reports the read-request queue depth high-water mark (zero
// unless telemetry was armed).
func (s *StorageNode) MaxQueuedReqs() int { return s.maxReqQueue }

// Stats returns a copy of the counters.
func (s *StorageNode) Stats() Stats { return s.stats }

// AddFile registers a file; duplicate names panic (workload setup error).
func (s *StorageNode) AddFile(f *File) {
	if _, dup := s.files[f.Name]; dup {
		panic(fmt.Sprintf("iodev: duplicate file %q on %s", f.Name, s.Name()))
	}
	s.files[f.Name] = f
}

// SetDiskFaults arms media-error injection: when inj votes to fail an
// operation the disk pays retry (default: a seek + rotation re-read) and
// tries again. Must run before Start.
func (s *StorageNode) SetDiskFaults(inj DiskInjector, retry sim.Time) {
	if s.Started() {
		panic("iodev: SetDiskFaults after Start")
	}
	if retry <= 0 {
		retry = Seek + Rotation
	}
	s.dinj = inj
	s.dretry = retry
}

// Start spawns the TCA receive engine and the disk engine, and the
// retransmit engine when reliability is armed.
func (s *StorageNode) Start() { s.Adapter.Start(".tca", ".disk", s.diskStep) }

// Accept takes one packet from the TCA's receive engine. The node serves
// reads only: a read request queues for the disk engine, and every other
// packet is dropped.
func (s *StorageNode) Accept(p *sim.Proc, pkt *san.Packet) {
	req, ok := pkt.Payload.(ReadReq)
	if pkt.Hdr.Type != san.IORequest || !ok {
		return
	}
	s.reqs.Put(queuedReq{req: req, at: p.Now()})
	if s.stamp != nil {
		if d := s.reqs.Len(); d > s.maxReqQueue {
			s.maxReqQueue = d
		}
	}
}

// Disk-engine states: the wait each one resumes from. A read streams as
// chunks of at most one MTU, each pipelined from the platters through the
// SCSI bus (and, under a pushdown filter, the filter processor first) onto
// the link; a filtered read ends with its trailer packet, and any read with
// its Notify packet.
const (
	diskNext    = iota // a read request
	diskPlatter        // the chunk to leave the platters, waited only if ahead
	diskFilter         // the filter processor's scan of the chunk
	diskBus            // the chunk's SCSI bus transfer
	diskSend           // the packet's send
)

// What the disk engine's packet on the wire is, and so what follows it.
const (
	sendingChunk = iota
	sendingTrailer
	sendingNotify
)

// diskState is the disk engine's position in the read it serves.
type diskState struct {
	wait    int
	req     ReadReq
	f       *File
	flt     *Filter // nil for a plain read
	arrived sim.Time
	first   sim.Time // when the first chunk starts leaving the platters
	hdr     san.Header
	chunks  int // a plain read's packet count
	next    int // the chunk in progress
	// A filtered read's chunk size, the bytes and payload the filter kept
	// of it, and the stream's running totals.
	n, keep int64
	out     any
	kept    int64
	seq     int
	// pkt is the packet being readied or sent, sending says what it is,
	// and send is its send.
	pkt     *san.Packet
	sending int
	send    san.Sending
}

// diskStep services read requests one at a time, streaming each as MTU
// packets pipelined through the SCSI bus and the network link. It is a step
// process (sim.SpawnStep), making exactly the schedule calls of a blocking
// loop over the same work, in the same order.
func (s *StorageNode) diskStep(p *sim.Proc) {
	d := &s.disk
	for {
		switch d.wait {
		case diskNext:
			q, ok := s.reqs.GetOrWait(p)
			if !ok {
				return
			}
			s.startRead(p, q.req, q.at)
			if s.nextChunk(p) {
				return
			}
		case diskPlatter:
			if d.flt != nil {
				// The embedded filter processor scans every byte.
				p.WakeAt(s.fcpu.Reserve(filterClock.Cycles(d.flt.CyclesPerByte * d.n)))
				d.wait = diskFilter
				return
			}
			p.WakeAt(s.bus.Reserve(sim.TransferTime(d.pkt.Size, BusBandwidth)))
			d.wait = diskBus
			return
		case diskFilter:
			off := d.req.Off + int64(d.next)*san.MTU
			keep, out := d.flt.Fn(off, d.n, d.f.payload(off, d.n))
			if keep < 0 || keep > d.n {
				panic(fmt.Sprintf("iodev: filter %q kept %d of %d bytes", d.flt.Name, keep, d.n))
			}
			s.stats.FilteredBytes += d.n - keep
			if keep == 0 {
				d.next++
				if s.nextChunk(p) {
					return
				}
				continue
			}
			d.keep, d.out = keep, out
			p.WakeAt(s.bus.Reserve(sim.TransferTime(keep, BusBandwidth)))
			d.wait = diskBus
			return
		case diskBus:
			s.sendChunk(p)
		case diskSend:
			if !s.Out().SendOrWait(p, d.pkt, &d.send) {
				return
			}
			s.Sent(d.pkt)
			switch d.sending {
			case sendingChunk:
				d.next++
				if s.nextChunk(p) {
					return
				}
			case sendingTrailer:
				s.sendNotify(p)
			default:
				s.disk = diskState{}
			}
		}
	}
}

// startRead validates a read, books the disk for all of it and readies the
// engine's first chunk.
func (s *StorageNode) startRead(p *sim.Proc, req ReadReq, arrived sim.Time) {
	f := s.files[req.File]
	if f == nil {
		panic(fmt.Sprintf("iodev: read of unknown file %q on %s", req.File, s.Name()))
	}
	if req.Off < 0 || req.Off+req.Len > f.Size {
		panic(fmt.Sprintf("iodev: read [%d,%d) outside %q of %d bytes", req.Off, req.Off+req.Len, req.File, f.Size))
	}
	s.stats.Reads++
	s.stats.BytesRead += req.Len
	if s.eng.Tracing() {
		s.eng.Emit("disk", "read", s.Name(),
			fmt.Sprintf("read %q [%d,%d) -> node %d", req.File, req.Off, req.Off+req.Len, req.Dst))
	}

	// Reserve the disk for the whole request up front (requests are served
	// in order on one spindle set); chunk k leaves the platters at a rate-
	// limited instant within the reservation.
	start := s.diskFreeAt
	if now := p.Now(); start < now {
		start = now
	}
	first := start
	if req.File != s.lastFile || req.Off != s.lastEnd {
		first += Seek + Rotation
		s.stats.Seeks++
	} else {
		s.stats.Sequential++
	}
	if s.dinj != nil {
		// Injected media errors: each failed attempt costs a re-read
		// penalty before the transfer can begin. The attempt cap only
		// bounds a pathological always-fail plan.
		for attempt := 0; attempt < maxDiskAttempts && s.dinj.OnDiskOp(s.Name(), req.File, req.Off, req.Len); attempt++ {
			s.stats.DiskRetries++
			first += s.dretry
		}
	}
	s.diskFreeAt = first + sim.TransferTime(req.Len, DiskBandwidth)
	s.lastFile = req.File
	s.lastEnd = req.Off + req.Len

	d := &s.disk
	*d = diskState{req: req, f: f, arrived: arrived, first: first}
	d.hdr = san.Header{
		Src:       s.ID(),
		Dst:       req.Dst,
		Type:      req.Type,
		HandlerID: req.HandlerID,
		CPUID:     req.CPUID,
		Addr:      req.DstAddr,
		Flow:      req.Flow,
	}

	if req.FilterID != 0 {
		if req.Ways > 1 {
			panic("iodev: pushdown filters do not compose with CPU striping")
		}
		d.flt = s.filters[req.FilterID]
		if d.flt == nil {
			panic(fmt.Sprintf("iodev: read names unregistered filter %d on %s", req.FilterID, s.Name()))
		}
	} else {
		d.chunks = (&san.Message{Size: req.Len}).NumPackets()
		if req.Ways >= 1 && req.Stripe > 0 && req.Stripe%san.MTU != 0 {
			panic(fmt.Sprintf("iodev: stripe %d must be a positive MTU multiple", req.Stripe))
		}
	}
	// Per-request SCSI arbitration/selection.
	s.bus.Reserve(BusArbitration)
}

// nextChunk starts the read's chunk d.next, waiting for it to leave the
// platters if that instant is still ahead, and reports whether it arranged
// that wake. Past the last chunk it sends a filtered read's trailer, or the
// Notify packet, or ends the read.
func (s *StorageNode) nextChunk(p *sim.Proc) bool {
	d := &s.disk
	off := int64(d.next) * san.MTU
	var ready sim.Time
	if d.flt == nil {
		if d.next == d.chunks {
			s.sendNotify(p)
			return false
		}
		s.readyChunk()
		ready = d.first + sim.TransferTime(off+san.MTU, DiskBandwidth)
	} else {
		if off >= d.req.Len {
			s.sendTrailer(p)
			return false
		}
		d.n = min(d.req.Len-off, san.MTU)
		ready = d.first + sim.TransferTime(off+d.n, DiskBandwidth)
	}
	d.wait = diskPlatter
	if ready > p.Now() {
		p.WakeAt(ready)
		return true
	}
	return false
}

// readyChunk mints a plain read's packet d.next: its slice of the file,
// addressed by its offset within the read or, for a striped read, mapped
// to its switch CPU's way.
func (s *StorageNode) readyChunk() {
	d := &s.disk
	req := &d.req
	pkt := s.Pool().Get()
	m := san.Message{Hdr: d.hdr, Size: req.Len}
	m.Segment(pkt, d.next, nil)
	if pkt.Size > 0 {
		pkt.Payload = d.f.payload(req.Off+int64(d.next)*san.MTU, pkt.Size)
	}
	if req.Ways >= 1 && req.Stripe > 0 {
		g := req.Off + int64(d.next)*san.MTU
		blk := g / req.Stripe
		way := int(blk % int64(req.Ways))
		pkt.Hdr.CPUID = way
		pkt.Hdr.Addr = req.DstAddr + int64(way)*req.WayStride +
			(blk/int64(req.Ways))*req.Stripe + g%req.Stripe
	}
	d.pkt = pkt
}

// sendChunk sends the chunk that has crossed the SCSI bus: a plain read's
// next packet, or a packet of the bytes the filter kept.
func (s *StorageNode) sendChunk(p *sim.Proc) {
	d := &s.disk
	if d.flt == nil {
		s.startSend(p, d.pkt, sendingChunk)
		return
	}
	pkt := s.Pool().Get()
	pkt.Hdr, pkt.Size, pkt.Payload = d.hdr, d.keep, d.out
	pkt.Hdr.Seq = d.seq
	pkt.Hdr.Addr = d.hdr.Addr + d.kept
	d.seq++
	d.kept += d.keep
	d.out = nil
	s.startSend(p, pkt, sendingChunk)
}

// sendTrailer ends a filtered stream with an 8-byte trailer packet
// (Last=true) whose payload is the total bytes kept, so consumers of the
// variable-length output can terminate.
func (s *StorageNode) sendTrailer(p *sim.Proc) {
	d := &s.disk
	trailer := s.Pool().Get()
	trailer.Hdr, trailer.Size, trailer.Payload = d.hdr, 8, d.kept
	trailer.Hdr.Seq = d.seq
	trailer.Hdr.Addr = d.hdr.Addr + d.kept
	trailer.Hdr.Last = true
	s.startSend(p, trailer, sendingTrailer)
}

// sendNotify sends the read's Notify packet, if it asked for one, or ends
// the read.
func (s *StorageNode) sendNotify(p *sim.Proc) {
	req := s.disk.req
	if req.Notify == san.NoNode || req.Notify == 0 {
		s.disk = diskState{}
		return
	}
	pkt := s.Pool().Get()
	pkt.Hdr = san.Header{
		Src: s.ID(), Dst: req.Notify, Type: san.Control,
		Flow: req.NotifyFlow, Last: true,
	}
	s.startSend(p, pkt, sendingNotify)
}

// startSend readies pkt for the wire: read data and the trailer carry the
// disk hop's telemetry stamp. The engine then sends it.
func (s *StorageNode) startSend(p *sim.Proc, pkt *san.Packet, sending int) {
	d := &s.disk
	if s.stamp != nil && sending != sendingNotify {
		st := s.stamp(d.arrived)
		st.Add(san.HopDisk, s.Name(), d.arrived, p.Now())
		pkt.Stamp = st
	}
	d.pkt, d.sending = pkt, sending
	d.wait = diskSend
}
