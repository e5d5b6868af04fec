package aswitch

import (
	"fmt"

	"activesan/internal/cache"
	"activesan/internal/cpu"
	"activesan/internal/memsys"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// Config assembles an active switch.
type Config struct {
	// Base is the conventional switch underneath (ports, routing latency,
	// central queue, links).
	Base san.SwitchConfig
	// NumCPUs is how many embedded switch processors to instantiate (the
	// paper's design supports up to four).
	NumCPUs int
	// NumBuffers is the data-buffer count (paper: 16 buffers of one MTU).
	NumBuffers int
	// OutReserve is how many buffers the DBA holds back for the send unit.
	OutReserve int
	// ValidLineBytes is the valid-bit granularity inside data buffers
	// (ValidLineBytes, the switch D-cache line, by default). Setting it to
	// the MTU degenerates to whole-packet validity, the ablation of the
	// paper's "cache line based valid bits" feature.
	ValidLineBytes int64
	// CPUClock is the embedded processors' clock (sim.SwitchClock, 500 MHz,
	// by default).
	CPUClock sim.Clock
}

// dispatchTime is the hardware dispatch unit's per-packet time.
const dispatchTime = 8 * sim.Nanosecond

// DefaultConfig returns the paper's active switch: the base switch of
// DefaultSwitchConfig plus one 500 MHz CPU and sixteen 512-byte data
// buffers (two reserved for output staging).
func DefaultConfig(ports int) Config {
	return Config{
		Base:           san.DefaultSwitchConfig(ports),
		NumCPUs:        1,
		NumBuffers:     16,
		OutReserve:     2,
		ValidLineBytes: ValidLineBytes,
		CPUClock:       sim.SwitchClock,
	}
}

func (c Config) validate() error {
	if c.NumCPUs < 1 || c.NumCPUs > 4 {
		return fmt.Errorf("aswitch: %d CPUs outside the design's 1..4", c.NumCPUs)
	}
	if c.NumBuffers <= c.OutReserve || c.OutReserve < 1 {
		return fmt.Errorf("aswitch: need OutReserve in [1, NumBuffers)")
	}
	if c.ValidLineBytes <= 0 || c.CPUClock.Period <= 0 {
		return fmt.Errorf("aswitch: need a positive ValidLineBytes and CPUClock")
	}
	return nil
}

// Invocation is one message-driven handler activation.
type Invocation struct {
	HandlerID int
	CPUID     int
	Src       san.NodeID
	BaseAddr  int64
	Flow      int64
	Args      any
}

// HandlerFunc is the code behind a jump-table entry. It runs on a switch
// CPU's process; all timing must flow through the Ctx methods.
type HandlerFunc func(x *Ctx)

type handlerEntry struct {
	name string
	fn   HandlerFunc
}

// Stats counts active-switch activity.
type Stats struct {
	PacketsAdmitted int64
	Invocations     int64
	MessagesSent    int64
	PacketsSent     int64
	BytesSent       int64
	Unregistered    int64
}

// CrashStats counts the active plane's failure events (all zero unless a
// fault plan crashes the switch).
type CrashStats struct {
	Crashes  int64
	Restarts int64
	// Aborted counts handler invocations killed mid-run by a crash.
	Aborted int64
	// Rejected counts invocations refused at dispatch while crashed.
	Rejected int64
	// DataDropped counts stream packets discarded while crashed.
	DataDropped int64
}

// CrashNotice is the Control payload the switch sends to an invoker when a
// crash kills (or refuses) its handler, so the host can fall back to the
// non-active program.
type CrashNotice struct {
	Handler int
	Flow    int64 // the invoking message's flow
}

// crashAbort is the panic sentinel Ctx methods raise when the handler's
// switch has crashed; the CPU loop recovers it and cleans up.
type crashAbort struct{ handler int }

// HandlerStats counts one jump-table entry's activity.
type HandlerStats struct {
	Invocations  int64
	MessagesSent int64
	BytesSent    int64
}

// ActiveSwitch is the paper's switch with the active hardware attached. It
// embeds the conventional switch, whose ports, routes and Start-up it
// shares; the crossbar is logically (N+1)xN via Inject.
type ActiveSwitch struct {
	*san.Switch
	eng *sim.Engine
	cfg Config

	mem   *memsys.RDRAM
	space *memsys.AddressSpace

	cpus   []*SwitchCPU
	dba    *DBA
	jump   [san.MaxHandlerID + 1]*handlerEntry
	states map[int]any

	// mapSig fires whenever an ATB mapping is installed or released, waking
	// dispatch processes waiting on slot conflicts and handlers waiting on
	// stream data.
	mapSig *sim.Signal

	// pool mints the packets handlers send (Ctx.Send, Ctx.Forward).
	pool san.PacketPool

	rr         int
	flows      int64
	stats      Stats
	crashed    bool
	crash      CrashStats
	perHandler [san.MaxHandlerID + 1]HandlerStats

	// Telemetry hooks (nil = off): stamp mints records for switch-sourced
	// packets (handler Send/Forward), complete consumes records of packets
	// terminating at the active plane, handlerDone reports each handler
	// run's duration for per-handler histograms.
	stamp       san.Stamper
	complete    san.Completer
	handlerDone func(name string, dur sim.Time)
}

// New builds an active switch with the given node identity. Wire its ports
// and routes through the embedded san.Switch, register handlers, then call
// Start.
func New(eng *sim.Engine, id san.NodeID, name string, cfg Config) *ActiveSwitch {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	s := &ActiveSwitch{
		Switch: san.NewSwitch(eng, id, name, cfg.Base),
		eng:    eng,
		cfg:    cfg,
		mem:    memsys.New(eng),
		space:  memsys.NewAddressSpace(0, 1<<30),
		dba:    NewDBA(cfg.NumBuffers, cfg.OutReserve),
		states: make(map[int]any),
		mapSig: sim.NewSignal(),
	}
	for i := 0; i < cfg.NumCPUs; i++ {
		hier := cache.NewHierarchy(eng, cache.SwitchHierConfig(), s.mem, 1<<40)
		c := &SwitchCPU{
			id:   i,
			sw:   s,
			cpu:  cpu.New(eng, fmt.Sprintf("%s.sp%d", name, i), cfg.CPUClock, hier),
			atb:  NewATB(cfg.NumBuffers),
			invq: sim.NewQueue[*Invocation](),
		}
		s.cpus = append(s.cpus, c)
	}
	s.Switch.SetLocalSink(s)
	return s
}

// Mem returns the switch's local memory channel.
func (s *ActiveSwitch) Mem() *memsys.RDRAM { return s.mem }

// Space returns the switch's local address-space allocator, used to lay out
// handler state (e.g. HashJoin's bit-vector) at realistic addresses.
func (s *ActiveSwitch) Space() *memsys.AddressSpace { return s.space }

// CPUs returns the embedded processors.
func (s *ActiveSwitch) CPUs() []*SwitchCPU { return s.cpus }

// CPU returns processor i.
func (s *ActiveSwitch) CPU(i int) *SwitchCPU { return s.cpus[i] }

// DBA returns the buffer administrator.
func (s *ActiveSwitch) DBA() *DBA { return s.dba }

// ActiveStats returns a copy of the activity counters.
func (s *ActiveSwitch) ActiveStats() Stats { return s.stats }

// CrashStatsCopy returns a copy of the failure counters.
func (s *ActiveSwitch) CrashStatsCopy() CrashStats { return s.crash }

// SetTelemetry arms per-packet stamping on the active plane: stamp mints
// records for handler-sourced packets, complete consumes records of
// packets the switch terminates, handlerDone reports handler run times.
// Install before traffic flows.
func (s *ActiveSwitch) SetTelemetry(stamp san.Stamper, complete san.Completer, handlerDone func(name string, dur sim.Time)) {
	s.stamp = stamp
	s.complete = complete
	s.handlerDone = handlerDone
}

// Crash kills the active plane: running handlers abort at their next Ctx
// call, queued invocations are refused with a CrashNotice, and arriving
// stream data is discarded. The base switch keeps routing — exactly the
// paper's non-active degradation.
func (s *ActiveSwitch) Crash() {
	if s.crashed {
		return
	}
	s.crashed = true
	s.crash.Crashes++
	if s.eng.Tracing() {
		s.eng.Emit("fault", "handler_crash", s.Name(), "active plane down")
	}
	// Wake handlers blocked on stream data so they observe the crash.
	s.mapSig.Fire()
}

// Restart brings the active plane back up. Stream state from before the
// crash is gone (the DBA and ATBs were scrubbed), so invokers must restart
// their messages from scratch.
func (s *ActiveSwitch) Restart() {
	if !s.crashed {
		return
	}
	s.crashed = false
	s.crash.Restarts++
	if s.eng.Tracing() {
		s.eng.Emit("fault", "handler_restart", s.Name(), "active plane up")
	}
	s.mapSig.Fire()
}

// notifyCrash tells an invoker its handler died, via a best-effort Control
// packet through the still-working base switch.
func (s *ActiveSwitch) notifyCrash(p *sim.Proc, dst san.NodeID, handler int, flow int64) {
	// An unroutable invoker means nobody to notify; drop the notice.
	_ = s.Inject(p, s.crashNotice(dst, handler, flow))
}

// crashNotice builds the Control packet that tells invoker dst its handler
// died.
func (s *ActiveSwitch) crashNotice(dst san.NodeID, handler int, flow int64) *san.Packet {
	return &san.Packet{
		Hdr: san.Header{
			Src: s.ID(), Dst: dst, Type: san.Control,
			Flow: s.NextFlow(), Last: true,
		},
		Size:    16,
		Payload: CrashNotice{Handler: handler, Flow: flow},
	}
}

// HandlerStatsFor returns the per-handler counters for a jump-table entry.
func (s *ActiveSwitch) HandlerStatsFor(id int) HandlerStats {
	if id < 0 || id > san.MaxHandlerID {
		return HandlerStats{}
	}
	return s.perHandler[id]
}

// HandlerInfo names one registered jump-table entry.
type HandlerInfo struct {
	ID   int
	Name string
}

// Handlers lists the registered jump-table entries in id order, so the
// metrics registry can key per-handler counters by name.
func (s *ActiveSwitch) Handlers() []HandlerInfo {
	var out []HandlerInfo
	for id, e := range s.jump {
		if e != nil {
			out = append(out, HandlerInfo{ID: id, Name: e.name})
		}
	}
	return out
}

// Register installs fn in the jump table at handler id.
func (s *ActiveSwitch) Register(id int, name string, fn HandlerFunc) {
	if id < 0 || id > san.MaxHandlerID {
		panic(fmt.Sprintf("aswitch: handler id %d outside 6-bit range", id))
	}
	if s.jump[id] != nil {
		panic(fmt.Sprintf("aswitch: handler id %d already registered (%s)", id, s.jump[id].name))
	}
	s.jump[id] = &handlerEntry{name: name, fn: fn}
}

// SetState attaches per-switch state for a handler id (the small run-time
// kernel's memory allocation on the handler's behalf).
func (s *ActiveSwitch) SetState(id int, state any) { s.states[id] = state }

// HandlerState returns the state attached to a handler id.
func (s *ActiveSwitch) HandlerState(id int) any { return s.states[id] }

// Start launches the base switch's port stages and the switch CPUs.
func (s *ActiveSwitch) Start() {
	s.Switch.Start()
	for _, c := range s.cpus {
		c := c
		s.eng.Spawn(c.cpu.Name(), c.loop)
	}
}

// NextFlow hands out a fresh flow id for switch-originated messages.
func (s *ActiveSwitch) NextFlow() int64 {
	s.flows++
	return s.flows<<16 | int64(s.ID())&0xFFFF
}

// NewDelivery implements san.LocalSink: each input port runs the dispatch
// unit on its own process, through its own dispatch machine.
func (s *ActiveSwitch) NewDelivery() san.LocalDelivery { return &dispatch{s: s} }

// Dispatch-unit states: the wait each one resumes from.
const (
	dispatchStart   = iota // a granted packet, not yet started
	dispatchLatency        // the dispatch unit's per-packet time
	dispatchBuffer         // a data buffer
	dispatchSlot           // the buffer's ATB slot to be free
	dispatchMapped         // an ATB mapping change, while the slot is taken
	dispatchNotice         // the crash notice's injection
)

// dispatch is the dispatch unit serving one input port, a step machine on
// the port's process: one state per wait of the per-packet pipeline below.
type dispatch struct {
	s      *ActiveSwitch
	wait   int
	tstart sim.Time
	c      *SwitchCPU
	buf    *DataBuffer
	notice *san.Packet
	inj    san.Injection
}

// DeliverOrWait is the dispatch unit. It admits the packet into a data
// buffer, maps it into the owning CPU's ATB, and — for the first packet of
// an active message — queues a handler invocation. The input port waits
// for it, so its waits are the credit backpressure the paper relies on.
func (d *dispatch) DeliverOrWait(p *sim.Proc, pkt *san.Packet) bool {
	s := d.s
	for {
		switch d.wait {
		case dispatchStart:
			if pkt.Stamp != nil {
				d.tstart = p.Now()
			}
			p.WakeAt(p.Now() + dispatchTime)
			d.wait = dispatchLatency
			return false
		case dispatchLatency:
			if s.crashed {
				// The active plane is down: refuse invocations (telling the
				// invoker why) and discard stream data. The input port
				// returns the credit as usual, so the fabric stays live
				// around the dead handler plane.
				if invokes(pkt) {
					s.crash.Rejected++
					d.notice = s.crashNotice(pkt.Hdr.Src, pkt.Hdr.HandlerID, pkt.Hdr.Flow)
					d.wait = dispatchNotice
					continue
				}
				if pkt.Size > 0 {
					s.crash.DataDropped++
				}
				return d.reset()
			}
			d.c = s.cpuFor(pkt)
			if pkt.Size == 0 {
				return d.admit(p, pkt)
			}
			d.wait = dispatchBuffer
		case dispatchBuffer:
			buf, ok := s.dba.AllocInputOrWait(p)
			if !ok {
				return false
			}
			if s.crashed {
				// The crash landed while we waited for a buffer: give it
				// back and discard, or the scrubbed DBA would leak this slot.
				s.dba.Free(buf)
				s.crash.DataDropped++
				return d.reset()
			}
			buf.addr = pkt.Hdr.Addr
			buf.size = pkt.Size
			buf.fillStart = p.Now()
			buf.lineBytes = s.cfg.ValidLineBytes
			buf.last = pkt.Hdr.Last
			buf.payload = pkt.Payload
			d.buf = buf
			d.wait = dispatchSlot
		case dispatchMapped:
			if s.crashed {
				s.dba.Free(d.buf)
				s.crash.DataDropped++
				return d.reset()
			}
			d.wait = dispatchSlot
		case dispatchSlot:
			if !d.c.atb.CanInstall(d.buf) {
				s.mapSig.AddWaiter(p)
				d.wait = dispatchMapped
				return false
			}
			d.c.atb.Install(d.buf)
			d.c.arrivals = append(d.c.arrivals, d.buf.ref())
			s.stats.PacketsAdmitted++
			return d.admit(p, pkt)
		case dispatchNotice:
			// An unroutable invoker means nobody to notify; drop the notice.
			if done, _ := s.InjectOrWait(p, d.notice, &d.inj); !done {
				return false
			}
			return d.reset()
		}
	}
}

// admit finishes an admitted packet: the first packet of an active message
// queues its handler invocation, and the packet's life ends here. What
// outlives it is copied out: the payload into the buffer and the
// invocation, the header fields into the invocation.
func (d *dispatch) admit(p *sim.Proc, pkt *san.Packet) bool {
	s, c := d.s, d.c
	if invokes(pkt) {
		inv := &Invocation{
			HandlerID: pkt.Hdr.HandlerID,
			CPUID:     c.id,
			Src:       pkt.Hdr.Src,
			BaseAddr:  pkt.Hdr.Addr,
			Flow:      pkt.Hdr.Flow,
			Args:      pkt.Payload,
		}
		s.stats.Invocations++
		if inv.HandlerID >= 0 && inv.HandlerID <= san.MaxHandlerID {
			s.perHandler[inv.HandlerID].Invocations++
		}
		if s.eng.Tracing() {
			s.eng.Emit("handler", "dispatch", s.Name(),
				fmt.Sprintf("dispatch handler=%d cpu=%d src=%d", inv.HandlerID, c.id, inv.Src))
		}
		c.invq.Put(inv)
	}
	if st := pkt.Stamp; st != nil && s.complete != nil {
		// The packet terminates here: dispatch plus data-buffer admission is
		// its active-plane hop; handler execution time is reported separately
		// through the handlerDone hook (it runs asynchronously on the switch
		// CPU, after this packet's life ends).
		st.Add(san.HopHandler, s.Name(), d.tstart, p.Now())
		s.complete(st, p.Now(), pkt.Hdr.Type)
	}
	s.mapSig.Fire()
	return d.reset()
}

// reset readies the machine for the port's next local packet and reports
// the current one delivered.
func (d *dispatch) reset() bool {
	*d = dispatch{s: d.s}
	return true
}

// invokes reports whether pkt is the first packet of an active message.
func invokes(pkt *san.Packet) bool {
	return pkt.Hdr.Type == san.ActiveMsg && pkt.Hdr.Seq == 0
}

// cpuFor picks the switch CPU a packet is for: its header's, or for an
// invocation that names none the next in round-robin order; out-of-range
// ids and unnamed stream data go to CPU 0.
func (s *ActiveSwitch) cpuFor(pkt *san.Packet) *SwitchCPU {
	cpuID := pkt.Hdr.CPUID
	if cpuID < 0 {
		if invokes(pkt) {
			cpuID = s.rr
			s.rr = (s.rr + 1) % len(s.cpus)
		} else {
			cpuID = 0
		}
	}
	if cpuID >= len(s.cpus) {
		cpuID = 0
	}
	return s.cpus[cpuID]
}

// SwitchCPU is one embedded processor with its private ATB, caches and
// invocation queue.
type SwitchCPU struct {
	id  int
	sw  *ActiveSwitch
	cpu *cpu.CPU
	atb *ATB

	invq *sim.Queue[*Invocation]
	// arrivals lists this CPU's admitted buffers in arrival order, for
	// NextArrival.
	arrivals []BufRef

	runs int64
}

// ID returns the CPU index.
func (c *SwitchCPU) ID() int { return c.id }

// Timing returns the processor's timing model (busy/stall accounting).
func (c *SwitchCPU) Timing() *cpu.CPU { return c.cpu }

// ATB returns the CPU's translation buffer.
func (c *SwitchCPU) ATB() *ATB { return c.atb }

// Runs reports how many handler invocations this CPU has executed.
func (c *SwitchCPU) Runs() int64 { return c.runs }

// invokeCycles is the dispatch-to-first-instruction cost of starting a
// handler (jump table read, register setup).
const invokeCycles = 16

func (c *SwitchCPU) loop(p *sim.Proc) {
	for {
		inv := c.invq.Get(p)
		if c.sw.crashed {
			// Queued before the crash landed: refuse it like dispatch would.
			c.sw.crash.Rejected++
			c.sw.notifyCrash(p, inv.Src, inv.HandlerID, inv.Flow)
			continue
		}
		entry := c.sw.jump[inv.HandlerID]
		if entry == nil {
			c.sw.stats.Unregistered++
			continue
		}
		c.runs++
		eng := c.sw.eng
		if eng.Tracing() {
			eng.Emit("handler", "invoke", c.sw.Name(),
				fmt.Sprintf("cpu%d invoke %q", c.id, entry.name))
		}
		start := p.Now()
		c.cpu.Compute(p, invokeCycles)
		if crashed := c.runInvocation(p, entry, inv); crashed {
			c.cleanupCrash(p, inv)
			continue
		}
		c.cpu.Flush(p)
		if fn := c.sw.handlerDone; fn != nil {
			fn(entry.name, p.Now()-start)
		}
		if eng.Tracing() {
			eng.Emit("handler", "retire", c.sw.Name(),
				fmt.Sprintf("cpu%d retire %q after %v", c.id, entry.name, p.Now()-start))
		}
	}
}

// runInvocation executes the handler, converting a crashAbort panic — raised
// by Ctx methods when the switch crashes mid-run — into a flag. Any other
// panic keeps propagating: handler bugs must stay loud.
func (c *SwitchCPU) runInvocation(p *sim.Proc, entry *handlerEntry, inv *Invocation) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashAbort); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	entry.fn(&Ctx{p: p, sw: c.sw, c: c, inv: inv})
	return false
}

// cleanupCrash scrubs the CPU's stream state after an aborted handler: every
// mapped buffer is released back to the DBA, the arrival list is emptied,
// and the invoker learns its stream died.
func (c *SwitchCPU) cleanupCrash(p *sim.Proc, inv *Invocation) {
	c.sw.crash.Aborted++
	for _, buf := range c.atb.ReleaseBelow(1 << 62) {
		c.sw.dba.Free(buf)
	}
	c.arrivals = c.arrivals[:0]
	c.sw.mapSig.Fire()
	c.cpu.Flush(p)
	if c.sw.eng.Tracing() {
		c.sw.eng.Emit("fault", "handler_abort", c.sw.Name(),
			fmt.Sprintf("cpu%d handler=%d aborted by crash", c.id, inv.HandlerID))
	}
	c.sw.notifyCrash(p, inv.Src, inv.HandlerID, inv.Flow)
}

// pruneArrivals drops consumed/freed buffers from the head of the arrival
// list so streaming handlers do not accumulate it. The rest moves down, so
// the list keeps its backing array.
func (c *SwitchCPU) pruneArrivals() {
	i := 0
	for i < len(c.arrivals) && (!c.arrivals[i].live() || c.arrivals[i].b.consumed) {
		i++
	}
	if i > 0 {
		n := copy(c.arrivals, c.arrivals[i:])
		clear(c.arrivals[n:])
		c.arrivals = c.arrivals[:n]
	}
}
