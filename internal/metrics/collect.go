package metrics

import (
	"fmt"

	"activesan/internal/aswitch"
	"activesan/internal/cache"
	"activesan/internal/cluster"
	"activesan/internal/cpu"
	"activesan/internal/memsys"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// Collect walks every component of a finished cluster and snapshots its
// counters under the component's name. elapsed is the workload's end time;
// all derived utilizations divide by it (not the engine clock, which may
// sit past the workload's end once the queue drains).
func Collect(c *cluster.Cluster, elapsed sim.Time) *Snapshot {
	s := NewSnapshot()
	s.Set("cluster/elapsed_s", elapsed.Seconds())
	for _, h := range c.Hosts {
		name := h.Name()
		addCPU(s, name+"/cpu", h.CPU(), elapsed)
		addHier(s, name, h.CPU().Hier())
		addMem(s, name+"/mem", h.Mem(), elapsed)
		ns := h.NIC().Stats()
		s.SetInt(name+"/nic/packets_in", ns.PacketsIn)
		s.SetInt(name+"/nic/packets_out", ns.PacketsOut)
		s.SetInt(name+"/nic/bytes_in", ns.BytesIn)
		s.SetInt(name+"/nic/bytes_out", ns.BytesOut)
		s.SetInt(name+"/nic/messages_in", ns.MessagesIn)
		s.SetInt(name+"/nic/messages_out", ns.MessagesOut)
		reqs, bytes := h.IOStats()
		s.SetInt(name+"/io/requests", reqs)
		s.SetInt(name+"/io/bytes", bytes)
	}
	for _, d := range c.Stores {
		name := d.Name()
		ds := d.Stats()
		s.SetInt(name+"/disk/reads", ds.Reads)
		s.SetInt(name+"/disk/bytes_read", ds.BytesRead)
		s.SetInt(name+"/disk/seeks", ds.Seeks)
		s.SetInt(name+"/disk/sequential", ds.Sequential)
		s.SetInt(name+"/disk/filtered_bytes", ds.FilteredBytes)
	}
	for _, sw := range c.Switches {
		addSwitch(s, sw, elapsed)
	}
	// Fault and reliability metrics only exist when a fault plan is armed
	// (an ExtraMetrics hook is installed), so zero-fault snapshots — and
	// therefore the goldens — are byte-identical to the lossless model. The
	// lone exception: unroutable-packet drops always surface, because a
	// silent no-route drop is a configuration bug.
	var noRoute int64
	for _, sw := range c.Switches {
		noRoute += sw.Stats().NoRouteDrops
	}
	armed := c.ExtraMetrics != nil
	if armed || noRoute > 0 {
		s.SetInt("fault/no_route_drops", noRoute)
	}
	if armed {
		c.ExtraMetrics(func(name string, v float64) { s.Set(name, v) })
		addReliability(s, c)
	}
	return s
}

// addReliability harvests the per-component fault and retransmission
// counters. Only called with a fault plan armed.
func addReliability(s *Snapshot, c *cluster.Cluster) {
	for _, h := range c.Hosts {
		tx, rx := h.NIC().RelStats()
		addRetx(s, h.Name()+"/retry", tx, rx)
	}
	for _, d := range c.Stores {
		tx, rx := d.RelStats()
		addRetx(s, d.Name()+"/retry", tx, rx)
		s.SetInt(d.Name()+"/disk/retries", d.Stats().DiskRetries)
	}
	for _, sw := range c.Switches {
		name := sw.Name()
		ss := sw.Stats()
		s.SetInt(name+"/fault/no_route_drops", ss.NoRouteDrops)
		s.SetInt(name+"/fault/rerouted", ss.Rerouted)
		s.SetInt(name+"/fault/corrupt_drops", ss.CorruptDrops)
		cs := sw.CrashStatsCopy()
		s.SetInt(name+"/fault/crashes", cs.Crashes)
		s.SetInt(name+"/fault/restarts", cs.Restarts)
		s.SetInt(name+"/fault/aborted_handlers", cs.Aborted)
		s.SetInt(name+"/fault/rejected_invocations", cs.Rejected)
		s.SetInt(name+"/fault/data_dropped_while_crashed", cs.DataDropped)
		for i := 0; i < sw.Config().Ports; i++ {
			port := sw.Port(i)
			if port.In != nil {
				addLinkFaults(s, fmt.Sprintf("%s/port%d/in", name, i), port.In)
			}
			if port.Out != nil {
				addLinkFaults(s, fmt.Sprintf("%s/port%d/out", name, i), port.Out)
			}
		}
	}
}

func addRetx(s *Snapshot, prefix string, tx san.TxStats, rx san.RxStats) {
	s.SetInt(prefix+"/tracked", tx.Tracked)
	s.SetInt(prefix+"/retransmits", tx.Retransmits)
	s.SetInt(prefix+"/timeout_retx", tx.TimeoutRetx)
	s.SetInt(prefix+"/nak_retx", tx.NakRetx)
	s.SetInt(prefix+"/acks_seen", tx.AcksSeen)
	s.SetInt(prefix+"/abandoned", tx.Abandoned)
	s.SetInt(prefix+"/delivered", rx.Delivered)
	s.SetInt(prefix+"/duplicates", rx.Duplicates)
	s.SetInt(prefix+"/acks_sent", rx.AcksSent)
	s.SetInt(prefix+"/naks_sent", rx.NaksSent)
	s.SetInt(prefix+"/corrupt_dropped", rx.CorruptDropped)
}

func addLinkFaults(s *Snapshot, prefix string, l *san.Link) {
	ls := l.Stats()
	s.SetInt(prefix+"/fault_dropped", ls.Dropped)
	s.SetInt(prefix+"/fault_corrupted", ls.Corrupted)
	s.SetInt(prefix+"/fault_delayed", ls.Delayed)
}

// addSwitch harvests the base switch, its ports, the active hardware, the
// embedded CPUs (with ATBs and caches) and the per-handler counters.
func addSwitch(s *Snapshot, sw *aswitch.ActiveSwitch, elapsed sim.Time) {
	name := sw.Name()
	ss := sw.Stats()
	s.SetInt(name+"/routed", ss.Routed)
	s.SetInt(name+"/local", ss.Local)
	s.SetInt(name+"/dropped", ss.Dropped)
	s.SetInt(name+"/max_queue_depth", int64(ss.MaxQueueDepth))
	s.SetInt(name+"/min_pool_free", int64(ss.MinPoolFree))
	for i := 0; i < sw.Config().Ports; i++ {
		port := sw.Port(i)
		if port.In != nil {
			addLink(s, fmt.Sprintf("%s/port%d/in", name, i), port.In, elapsed)
		}
		if port.Out != nil {
			addLink(s, fmt.Sprintf("%s/port%d/out", name, i), port.Out, elapsed)
		}
	}
	as := sw.ActiveStats()
	s.SetInt(name+"/active/packets_admitted", as.PacketsAdmitted)
	s.SetInt(name+"/active/invocations", as.Invocations)
	s.SetInt(name+"/active/messages_sent", as.MessagesSent)
	s.SetInt(name+"/active/packets_sent", as.PacketsSent)
	s.SetInt(name+"/active/bytes_sent", as.BytesSent)
	s.SetInt(name+"/active/unregistered", as.Unregistered)
	addMem(s, name+"/mem", sw.Mem(), elapsed)
	for _, sc := range sw.CPUs() {
		prefix := fmt.Sprintf("%s/cpu%d", name, sc.ID())
		addCPU(s, prefix, sc.Timing(), elapsed)
		addHier(s, prefix, sc.Timing().Hier())
		s.SetInt(prefix+"/runs", sc.Runs())
		hits, misses := sc.ATB().Stats()
		s.SetInt(prefix+"/atb/hits", hits)
		s.SetInt(prefix+"/atb/misses", misses)
		s.Set(prefix+"/atb/hit_rate", ratio(float64(hits), float64(hits+misses)))
	}
	for _, h := range sw.Handlers() {
		hs := sw.HandlerStatsFor(h.ID)
		prefix := name + "/handler/" + h.Name
		s.SetInt(prefix+"/invocations", hs.Invocations)
		s.SetInt(prefix+"/messages_sent", hs.MessagesSent)
		s.SetInt(prefix+"/bytes_sent", hs.BytesSent)
	}
}

func addLink(s *Snapshot, prefix string, l *san.Link, elapsed sim.Time) {
	ls := l.Stats()
	s.SetInt(prefix+"/packets", ls.Packets)
	s.SetInt(prefix+"/bytes", ls.Bytes)
	s.Set(prefix+"/util", ratio(float64(l.BusyTime()), float64(elapsed)))
}

func addCPU(s *Snapshot, prefix string, c *cpu.CPU, elapsed sim.Time) {
	b := c.Breakdown()
	s.SetInt(prefix+"/busy_ps", int64(b.Busy))
	s.SetInt(prefix+"/stall_ps", int64(b.Stall))
	s.Set(prefix+"/util", ratio(float64(b.Busy), float64(elapsed)))
	loads, stores := c.Counts()
	s.SetInt(prefix+"/loads", loads)
	s.SetInt(prefix+"/stores", stores)
}

func addHier(s *Snapshot, prefix string, h *cache.Hierarchy) {
	addCache(s, prefix+"/l1i", h.L1I())
	addCache(s, prefix+"/l1d", h.L1D())
	addCache(s, prefix+"/l2", h.L2())
	addTLB(s, prefix+"/itlb", h.ITLB())
	addTLB(s, prefix+"/dtlb", h.DTLB())
	s.SetInt(prefix+"/tlb/walks", h.TLBWalks())
}

func addCache(s *Snapshot, prefix string, c *cache.Cache) {
	if c == nil {
		return
	}
	cs := c.Stats()
	s.SetInt(prefix+"/accesses", cs.Accesses)
	s.SetInt(prefix+"/hits", cs.Hits)
	s.SetInt(prefix+"/misses", cs.Misses)
	s.SetInt(prefix+"/evictions", cs.Evictions)
	s.SetInt(prefix+"/writebacks", cs.Writebacks)
	s.Set(prefix+"/miss_rate", cs.MissRate())
}

func addTLB(s *Snapshot, prefix string, t *cache.TLB) {
	if t == nil {
		return
	}
	ts := t.Stats()
	s.SetInt(prefix+"/accesses", ts.Accesses)
	s.SetInt(prefix+"/hits", ts.Hits)
	s.SetInt(prefix+"/misses", ts.Misses)
	s.Set(prefix+"/miss_rate", ts.MissRate())
}

func addMem(s *Snapshot, prefix string, m *memsys.RDRAM, elapsed sim.Time) {
	ms := m.Stats()
	s.SetInt(prefix+"/accesses", ms.Accesses)
	s.SetInt(prefix+"/page_hits", ms.PageHits)
	s.SetInt(prefix+"/page_misses", ms.PageMisses)
	s.SetInt(prefix+"/bytes", ms.Bytes)
	s.Set(prefix+"/bus_util", ratio(float64(m.BusBusyTime()), float64(elapsed)))
}
