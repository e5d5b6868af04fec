package san

import (
	"fmt"

	"activesan/internal/sim"
)

// SwitchConfig sets the base switch parameters.
type SwitchConfig struct {
	// Ports is the number of external ports.
	Ports int
	// RoutingLatency is the per-packet routing decision time (paper: 100 ns,
	// "similar to current InfiniBand switches").
	RoutingLatency sim.Time
	// PoolPackets sizes the central output queue's shared buffer pool.
	PoolPackets int
	// Link configures every attached link.
	Link LinkConfig
}

// DefaultSwitchConfig returns the paper's switch: 1 GB/s bidirectional
// ports, 100 ns routing latency, virtual cut-through.
func DefaultSwitchConfig(ports int) SwitchConfig {
	return SwitchConfig{
		Ports:          ports,
		RoutingLatency: 100 * sim.Nanosecond,
		PoolPackets:    64,
		Link:           DefaultLinkConfig(),
	}
}

// LocalSink receives packets whose destination is the switch itself. The
// base switch has none; the active switch installs its dispatch unit here.
// Each input port delivers through its own LocalDelivery, which the port
// asks for at its first local packet.
type LocalSink interface {
	NewDelivery() LocalDelivery
}

// LocalDelivery is one input port's local-delivery step machine. It runs on
// the port's own step process, and while it waits the port's stage and its
// input buffer stay held — exactly the backpressure the paper's credit
// scheme provides. The port calls DeliverOrWait with the packet once the
// crossbar grants it, and again with the same packet on every later wake,
// until it reports true; the port then returns the packet's credit. A false
// return means the delivery arranged the port's next wake, as the OrWait
// primitives do.
type LocalDelivery interface {
	DeliverOrWait(p *sim.Proc, pkt *Packet, fillRate float64) bool
}

// Port is one external attachment: In carries packets from the device into
// the switch, Out carries packets to the device.
type Port struct {
	In  *Link
	Out *Link
}

// SwitchStats counts switch activity.
type SwitchStats struct {
	Routed  int64 // packets forwarded between ports
	Local   int64 // packets consumed by the local sink
	Dropped int64 // packets dropped (no route, or local with no sink)
	// NoRouteDrops is the subset of Dropped with no routing-table entry —
	// a configuration bug unless a fault plan removed the route.
	NoRouteDrops int64
	// Rerouted counts packets sent via a backup route because the primary
	// port's link was down.
	Rerouted int64
	// CorruptDrops counts corrupt arrivals discarded at the input CRC
	// check (only fault injection produces corrupt packets).
	CorruptDrops int64
	// MaxQueueDepth is the deepest any output queue got; MinPoolFree is
	// the central pool's low-water mark — the congestion signature of the
	// central-output-queue design.
	MaxQueueDepth int
	MinPoolFree   int
}

// Switch is the conventional central-output-queue switch. Each input port
// runs a routing stage; each output port runs a transmit stage; a shared
// buffer pool provides the central queue. The stages are step processes
// (sim.SpawnStep), so a packet hop costs no goroutine switch.
type Switch struct {
	eng    *sim.Engine
	id     NodeID
	name   string
	cfg    SwitchConfig
	ports  []Port
	routes routeTable
	pool   *sim.Semaphore
	outQ   []*sim.Queue[*Packet]
	local  LocalSink
	stats  SwitchStats

	// arb is the settle-phase crossbar arbiter: every same-instant arrival
	// joins it after the routing step and is granted in input-port-index
	// order at the end of the instant, so contention for the central pool,
	// the output queues, and the local sink resolves identically whatever
	// order the arrival events were inserted in — the property partitioned
	// byte-identity rests on (see DESIGN.md, "Settle-phase arbitration").
	arb *sim.Arbiter

	// strictRoutes turns the first unroutable-packet drop into a panic
	// (activesim's -strict-routes flag).
	strictRoutes bool

	started bool
}

// NewSwitch builds a switch with the given identity. Attach links with
// AttachPort, set routes with SetRoute, then Start it.
func NewSwitch(eng *sim.Engine, id NodeID, name string, cfg SwitchConfig) *Switch {
	if cfg.Ports <= 0 {
		panic("san: switch needs ports")
	}
	s := &Switch{
		eng:   eng,
		id:    id,
		name:  name,
		cfg:   cfg,
		ports: make([]Port, cfg.Ports),
		pool:  sim.NewSemaphore(cfg.PoolPackets),
		outQ:  make([]*sim.Queue[*Packet], cfg.Ports),
		arb:   sim.NewArbiter(eng),
	}
	for i := range s.outQ {
		s.outQ[i] = sim.NewQueue[*Packet]()
	}
	s.stats.MinPoolFree = cfg.PoolPackets
	return s
}

// SetStrictRoutes toggles fail-fast behavior on unroutable packets: set,
// the first one panics naming the switch and destination, so misrouted
// configurations fail fast instead of silently losing traffic.
func (s *Switch) SetStrictRoutes(v bool) { s.strictRoutes = v }

// ID returns the switch's node ID.
func (s *Switch) ID() NodeID { return s.id }

// Name returns the switch's debug name.
func (s *Switch) Name() string { return s.name }

// Engine returns the engine the switch runs on — its partition's engine in
// a partitioned simulation.
func (s *Switch) Engine() *sim.Engine { return s.eng }

// Config returns the switch configuration.
func (s *Switch) Config() SwitchConfig { return s.cfg }

// Stats returns a copy of the counters.
func (s *Switch) Stats() SwitchStats { return s.stats }

// QueuedPackets reports the packets currently sitting in output queues —
// the instantaneous central-queue occupancy, for timeline sampling.
func (s *Switch) QueuedPackets() int {
	n := 0
	for _, q := range s.outQ {
		n += q.Len()
	}
	return n
}

// PoolFree reports the buffer-pool slots currently free.
func (s *Switch) PoolFree() int { return s.pool.Available() }

// Port returns port i's links.
func (s *Switch) Port(i int) Port { return s.ports[i] }

// AttachPort wires port i: in carries traffic from the device, out carries
// traffic to it. Both must be created by the caller (cluster wiring owns
// link naming).
func (s *Switch) AttachPort(i int, in, out *Link) {
	if s.started {
		panic("san: AttachPort after Start")
	}
	if s.ports[i].In != nil {
		panic(fmt.Sprintf("san: %s port %d already attached", s.name, i))
	}
	s.ports[i] = Port{In: in, Out: out}
}

// SetRoute directs packets for dst out of port. Routes may be updated before
// Start only.
func (s *Switch) SetRoute(dst NodeID, port int) {
	if s.started {
		panic("san: SetRoute after Start")
	}
	if port < 0 || port >= s.cfg.Ports {
		panic(fmt.Sprintf("san: route to port %d of %d-port switch", port, s.cfg.Ports))
	}
	s.routes.slot(dst).primary = int32(port) + 1
}

// ReserveRoutes sizes the route table to hold ids first .. first+n-1 in one
// dense run, so that setting their routes afterwards allocates nothing. It
// sets no route: reserved ids read as unroutable until SetRoute.
func (s *Switch) ReserveRoutes(first NodeID, n int) {
	if s.started {
		panic("san: ReserveRoutes after Start")
	}
	s.routes.reserve(first, n)
}

// Route returns the output port for dst, or -1 if unroutable.
func (s *Switch) Route(dst NodeID) int {
	p, _ := s.routes.ports(dst)
	return p
}

// BackupRoute returns the backup output port for dst, or -1 if none.
func (s *Switch) BackupRoute(dst NodeID) int {
	_, b := s.routes.ports(dst)
	return b
}

// SetBackupRoute directs packets for dst out of port when the primary
// route's link is down. Like SetRoute, backup routes are fixed before Start.
func (s *Switch) SetBackupRoute(dst NodeID, port int) {
	if s.started {
		panic("san: SetBackupRoute after Start")
	}
	if port < 0 || port >= s.cfg.Ports {
		panic(fmt.Sprintf("san: backup route to port %d of %d-port switch", port, s.cfg.Ports))
	}
	s.routes.slot(dst).backup = int32(port) + 1
}

// portUp reports whether port i can currently transmit: an unattached Out
// link counts as up so local-sink-only ports keep working.
func (s *Switch) portUp(i int) bool {
	out := s.ports[i].Out
	return out == nil || out.Up()
}

// pickRoute selects the output port for dst, falling back to the backup
// route when the primary port's link is down. With both routes down it
// returns the primary anyway — the packet is then lost on the dead link,
// where loss accounting and retransmission live.
func (s *Switch) pickRoute(dst NodeID) (port int, rerouted bool) {
	p, b := s.routes.ports(dst)
	if p >= 0 && s.portUp(p) {
		return p, false
	}
	if b >= 0 && s.portUp(b) {
		return b, p >= 0 // a reroute only if a primary existed and was down
	}
	return p, false
}

// noteNoRoute accounts an unroutable packet and, under -strict-routes,
// fails fast with enough context to find the missing table entry.
func (s *Switch) noteNoRoute(pkt *Packet) {
	s.stats.Dropped++
	s.stats.NoRouteDrops++
	if s.eng.Tracing() {
		s.eng.Emit("fault", "no_route_drop", s.name,
			fmt.Sprintf("%s pkt src=%d dst=%d flow=%d seq=%d", pkt.Hdr.Type, pkt.Hdr.Src, pkt.Hdr.Dst, pkt.Hdr.Flow, pkt.Hdr.Seq))
	}
	if s.strictRoutes {
		panic(fmt.Sprintf("san: %s has no route for %s packet src=%d dst=%d flow=%d seq=%d (-strict-routes)",
			s.name, pkt.Hdr.Type, pkt.Hdr.Src, pkt.Hdr.Dst, pkt.Hdr.Flow, pkt.Hdr.Seq))
	}
}

// SetLocalSink installs the handler for packets addressed to the switch
// itself (the active extension).
func (s *Switch) SetLocalSink(sink LocalSink) {
	if s.started {
		panic("san: SetLocalSink after Start")
	}
	s.local = sink
}

// Start spawns the per-port step processes. Unattached ports are skipped.
func (s *Switch) Start() {
	if s.started {
		panic("san: double Start")
	}
	s.started = true
	for i := range s.ports {
		if in := s.ports[i].In; in != nil {
			pt := &inPort{s: s, i: i, in: in}
			s.eng.SpawnStep(fmt.Sprintf("%s.in%d", s.name, i), pt.step)
		}
		if out := s.ports[i].Out; out != nil {
			pt := &outPort{s: s, q: s.outQ[i], out: out}
			s.eng.SpawnStep(fmt.Sprintf("%s.out%d", s.name, i), pt.step)
		}
	}
}

// The port stages are step processes: each wake runs the stage inline until
// its next wait. Every state below is one wait of the per-packet pipeline,
// and each stage makes exactly the schedule calls a blocking loop over the
// same pipeline makes, in the same order, so the event order is the one a
// goroutine per port would produce.

// Input-port states: the wait each one resumes from.
const (
	inRecv  = iota // a packet's head to arrive
	inRoute        // the routing decision time to elapse
	inGrant        // the crossbar grant
	inPool         // a central-queue slot
	inLocal        // the local delivery's next wake
)

// inPort routes packets arriving on input port i. A packet for the switch
// itself goes to the local sink, which may wait (dispatch latency,
// data-buffer admission) on the port's own process; other packets take a
// routing decision, a central-queue slot, and move to their output queue.
type inPort struct {
	s     *Switch
	i     int
	in    *Link
	state int
	pkt   *Packet
	out   int // output port chosen at the grant
	// local is the port's local-delivery state, created at its first local
	// packet.
	local LocalDelivery
}

func (pt *inPort) step(p *sim.Proc) {
	s, in := pt.s, pt.in
	for {
		switch pt.state {
		case inRecv:
			pkt, ok := in.RecvOrWait(p)
			if !ok {
				return
			}
			if st := pkt.Stamp; st != nil {
				st.Open(HopRoute, s.name, p.Now())
			}
			pt.pkt = pkt
			pt.state = inRoute
			p.WakeAt(p.Now() + s.cfg.RoutingLatency)
			return
		case inRoute:
			pkt := pt.pkt
			if s.eng.Tracing() {
				s.eng.Emit("packet", "recv", s.name,
					fmt.Sprintf("in%d %s pkt src=%d dst=%d flow=%d seq=%d size=%d",
						pt.i, pkt.Hdr.Type, pkt.Hdr.Src, pkt.Hdr.Dst, pkt.Hdr.Flow, pkt.Hdr.Seq, pkt.Size))
			}
			if pkt.Corrupt {
				// Link-level CRC check: damaged packets stop here and rely
				// on end-to-end retransmission. Drops never contend, so they
				// skip arbitration.
				s.stats.CorruptDrops++
				pt.finish()
				continue
			}
			// Settle-phase crossbar arbitration: every packet that finished
			// its routing step at this instant — on any input port, in any
			// event order — is admitted in input-port-index order at the
			// end of the instant. Routing itself happens after the grant, so
			// a same-instant topology change is observed identically by the
			// whole burst.
			s.arb.JoinOrWait(p, pt.i)
			pt.state = inGrant
			return
		case inGrant:
			pkt := pt.pkt
			if pkt.Hdr.Dst == s.id {
				s.stats.Local++
				if s.local == nil {
					s.stats.Dropped++
					pt.finish()
					continue
				}
				if st := pkt.Stamp; st != nil {
					st.Close(p.Now())
				}
				if pt.local == nil {
					pt.local = s.local.NewDelivery()
				}
				pt.state = inLocal
				continue
			}
			out, rerouted := s.pickRoute(pkt.Hdr.Dst)
			if out < 0 {
				s.noteNoRoute(pkt)
				pt.finish()
				continue
			}
			if rerouted {
				s.stats.Rerouted++
			}
			pt.out = out
			pt.state = inPool
		case inPool:
			if !s.pool.AcquireOrWait(p) {
				return
			}
			pkt := pt.pkt
			s.stats.Routed++
			if st := pkt.Stamp; st != nil {
				st.Close(p.Now())
				st.Open(HopQueue, s.name, p.Now())
			}
			s.outQ[pt.out].Put(pkt)
			s.noteDepth(pt.out)
			pt.finish()
		case inLocal:
			if !pt.local.DeliverOrWait(p, pt.pkt, pt.in.FillRate()) {
				return
			}
			pt.finish()
		}
	}
}

// finish frees the input buffer of the packet just disposed of and readies
// the stage for the next one.
func (pt *inPort) finish() {
	pt.pkt = nil
	pt.state = inRecv
	pt.in.ReturnCredit()
}

// noteDepth records queue and pool occupancy extremes.
func (s *Switch) noteDepth(out int) {
	if d := s.outQ[out].Len(); d > s.stats.MaxQueueDepth {
		s.stats.MaxQueueDepth = d
	}
	if f := s.pool.Available(); f < s.stats.MinPoolFree {
		s.stats.MinPoolFree = f
	}
}

// Output-port states: the wait each one resumes from.
const (
	outGet    = iota // a packet in the output queue
	outCredit        // a send credit on the link
	outSent          // the packet's tail to leave
)

// outPort drains one output queue onto its link, as Link.Send would.
type outPort struct {
	s     *Switch
	q     *sim.Queue[*Packet]
	out   *Link
	state int
	pkt   *Packet
}

func (pt *outPort) step(p *sim.Proc) {
	for {
		switch pt.state {
		case outGet:
			pkt, ok := pt.q.GetOrWait(p)
			if !ok {
				return
			}
			if st := pkt.Stamp; st != nil {
				st.Close(p.Now())
			}
			pt.out.TraceSend(pkt)
			pt.pkt = pkt
			pt.state = outCredit
		case outCredit:
			if !pt.out.CreditOrWait(p) {
				return
			}
			p.WakeAt(pt.out.Transmit(pt.pkt))
			pt.state = outSent
			return
		case outSent:
			pt.pkt = nil
			pt.state = outGet
			pt.s.pool.Release()
		}
	}
}

// Inject lets the switch itself source a packet toward dst (the active
// switch's send unit uses this: the crossbar is logically (N+1)xN). It
// arbitrates as the crossbar's extra input — pseudo-port N, behind every
// external port of the same instant — then blocks for a central-queue slot
// and enqueues on the proper output.
func (s *Switch) Inject(p *sim.Proc, pkt *Packet) error {
	s.arb.Join(p, s.cfg.Ports)
	out, err := s.injectRoute(pkt)
	if err != nil {
		return err
	}
	s.pool.Acquire(p)
	s.injectQueue(p, out, pkt)
	return nil
}

// Injection carries a step process's Inject across Inject's two waits, the
// crossbar grant and the central-queue slot. Its zero value starts one.
type Injection struct {
	wait int
	out  int
}

// Injection waits.
const (
	injJoin  = iota // not yet arbitrating
	injGrant        // the crossbar grant
	injSlot         // a central-queue slot
)

// InjectOrWait is the non-blocking Inject for step processes, built from
// the same pieces. Call it with a zero Injection, then with the same packet
// and Injection on every later wake, until it reports done; err is then
// Inject's result, and the Injection is zero again.
func (s *Switch) InjectOrWait(p *sim.Proc, pkt *Packet, in *Injection) (done bool, err error) {
	switch in.wait {
	case injJoin:
		s.arb.JoinOrWait(p, s.cfg.Ports)
		in.wait = injGrant
		return false, nil
	case injGrant:
		out, err := s.injectRoute(pkt)
		if err != nil {
			*in = Injection{}
			return true, err
		}
		in.out, in.wait = out, injSlot
	}
	if !s.pool.AcquireOrWait(p) {
		return false, nil
	}
	s.injectQueue(p, in.out, pkt)
	*in = Injection{}
	return true, nil
}

// injectRoute picks an injected packet's output port once the crossbar has
// granted it.
func (s *Switch) injectRoute(pkt *Packet) (int, error) {
	out, rerouted := s.pickRoute(pkt.Hdr.Dst)
	if out < 0 {
		return 0, fmt.Errorf("san: %s cannot route injected packet to node %d", s.name, pkt.Hdr.Dst)
	}
	if rerouted {
		s.stats.Rerouted++
	}
	return out, nil
}

// injectQueue enqueues an injected packet that holds a central-queue slot.
func (s *Switch) injectQueue(p *sim.Proc, out int, pkt *Packet) {
	s.stats.Routed++
	if st := pkt.Stamp; st != nil {
		st.Open(HopQueue, s.name, p.Now())
	}
	s.outQ[out].Put(pkt)
	s.noteDepth(out)
}
