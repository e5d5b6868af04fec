package san

// Property-based invariant tests over random multi-switch fabrics: whatever
// the topology, traffic matrix, and fault schedule, packets never vanish
// unaccounted, and every credit and pool slot is back home once the fabric
// quiesces. The fault package cannot be imported here (it imports san), so
// the injector and PRNG are local.

import (
	"testing"

	"activesan/internal/sim"
)

// invInjector drops/corrupts/delays packets with fixed percentages, from the
// shared seeded PRNG.
type invInjector struct {
	r           *sim.Rand
	dropPct     uint64
	corruptPct  uint64
	maxDelayNic uint64 // max extra delay in nanoseconds, 0 = never delay
}

func (i *invInjector) OnTransmit(_ *Link, _ *Packet) (FaultVerdict, sim.Time) {
	v := i.r.Next() % 100
	switch {
	case v < i.dropPct:
		return FaultDrop, 0
	case v < i.dropPct+i.corruptPct:
		return FaultCorrupt, 0
	}
	if i.maxDelayNic > 0 && v%5 == 0 {
		return FaultPass, sim.Time(i.r.Next()%i.maxDelayNic) * sim.Nanosecond
	}
	return FaultPass, 0
}

// invFabric is a random tree of base switches with endpoints, routes computed
// by the test itself (independently of the cluster package's installer).
type invFabric struct {
	sws      []*Switch
	eps      []Port // endpoint view: In from switch, Out toward switch
	epSwitch []int
	links    []*Link // every link, both directions
}

// buildInvFabric wires 2..5 switches in a random tree with 1..2 endpoints
// each. Endpoint i has NodeID(i); switch j has NodeID(100+j).
func buildInvFabric(eng *sim.Engine, r *sim.Rand, linkCfg LinkConfig) *invFabric {
	nsw := 2 + r.Intn(4)
	f := &invFabric{}
	adj := make([]map[int]int, nsw) // neighbor switch -> local port
	epAt := make([][]int, nsw)      // switch -> endpoint indexes
	for i := 0; i < nsw; i++ {
		adj[i] = map[int]int{}
	}
	for i := 0; i < nsw; i++ {
		epAt[i] = append(epAt[i], len(f.epSwitch))
		f.epSwitch = append(f.epSwitch, i)
		if r.Intn(2) == 0 {
			epAt[i] = append(epAt[i], len(f.epSwitch))
			f.epSwitch = append(f.epSwitch, i)
		}
	}
	type trunk struct{ a, b int }
	var trunks []trunk
	for i := 1; i < nsw; i++ {
		trunks = append(trunks, trunk{r.Intn(i), i})
	}
	for i := 0; i < nsw; i++ {
		ports := len(epAt[i])
		for _, t := range trunks {
			if t.a == i || t.b == i {
				ports++
			}
		}
		cfg := DefaultSwitchConfig(ports)
		cfg.Link = linkCfg
		f.sws = append(f.sws, NewSwitch(eng, NodeID(100+i), "sw", cfg))
	}
	nextPort := make([]int, nsw)
	mk := func(name string) *Link {
		l := NewLink(eng, name, linkCfg)
		f.links = append(f.links, l)
		return l
	}
	f.eps = make([]Port, len(f.epSwitch))
	for e, sw := range f.epSwitch {
		up, down := mk("ep.up"), mk("ep.down")
		f.sws[sw].AttachPort(nextPort[sw], up, down)
		f.sws[sw].SetRoute(NodeID(e), nextPort[sw])
		nextPort[sw]++
		f.eps[e] = Port{In: down, Out: up}
	}
	for _, t := range trunks {
		ab, ba := mk("t.ab"), mk("t.ba")
		f.sws[t.a].AttachPort(nextPort[t.a], ba, ab)
		adj[t.a][t.b] = nextPort[t.a]
		nextPort[t.a]++
		f.sws[t.b].AttachPort(nextPort[t.b], ab, ba)
		adj[t.b][t.a] = nextPort[t.b]
		nextPort[t.b]++
	}
	// Unique tree paths: route every endpoint (and switch id) at every
	// non-home switch via the neighbor one BFS step closer to home.
	for target := 0; target < nsw; target++ {
		dist := make([]int, nsw)
		for i := range dist {
			dist[i] = -1
		}
		dist[target] = 0
		q := []int{target}
		for len(q) > 0 {
			u := q[0]
			q = q[1:]
			for v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					q = append(q, v)
				}
			}
		}
		for s := 0; s < nsw; s++ {
			if s == target {
				continue
			}
			for v, port := range adj[s] {
				if dist[v] == dist[s]-1 {
					for _, e := range epAt[target] {
						f.sws[s].SetRoute(NodeID(e), port)
					}
					f.sws[s].SetRoute(NodeID(100+target), port)
				}
			}
		}
	}
	for _, sw := range f.sws {
		sw.Start()
	}
	return f
}

// run drives random traffic through the fabric: every endpoint sends count
// packets to random destinations (sometimes the unroutable NodeID 999,
// sometimes a switch id — dropped for lack of a local sink), receivers drain
// forever holding each credit for hold(e) first. Returns sent and received
// clean/corrupt counts after the engine quiesces.
func (f *invFabric) run(eng *sim.Engine, r *sim.Rand, perEp int, hold func(e int) sim.Time) (sent int, clean, corrupt int) {
	nep := len(f.eps)
	cleanBy := make([]int, nep)
	corruptBy := make([]int, nep)
	total := 0
	for e := range f.eps {
		e := e
		count := 1 + r.Intn(perEp)
		total += count
		dsts := make([]NodeID, count)
		for i := range dsts {
			switch r.Intn(10) {
			case 0:
				dsts[i] = 999 // unroutable everywhere
			case 1:
				dsts[i] = NodeID(100 + r.Intn(len(f.sws))) // a switch: no local sink
			default:
				dsts[i] = NodeID(r.Intn(nep))
			}
		}
		size := int64(64 + r.Intn(1024))
		eng.Spawn("tx", func(p *sim.Proc) {
			for _, dst := range dsts {
				f.eps[e].Out.Send(p, &Packet{Hdr: Header{Src: NodeID(e), Dst: dst}, Size: size})
			}
		})
	}
	for e := range f.eps {
		e := e
		eng.Spawn("rx", func(p *sim.Proc) {
			for {
				pkt := f.eps[e].In.Recv(p)
				if h := hold(e); h > 0 {
					p.Sleep(h)
				}
				if pkt.Corrupt {
					corruptBy[e]++
				} else {
					cleanBy[e]++
				}
				f.eps[e].In.ReturnCredit()
			}
		})
	}
	eng.Run()
	for e := range f.eps {
		clean += cleanBy[e]
		corrupt += corruptBy[e]
	}
	return total, clean, corrupt
}

// accounted sums every drop cause across the fabric.
func (f *invFabric) accounted() (linkDrops, swDrops, corruptDrops int64) {
	for _, l := range f.links {
		linkDrops += l.Stats().Dropped
	}
	for _, sw := range f.sws {
		swDrops += sw.Stats().Dropped
		corruptDrops += sw.Stats().CorruptDrops
	}
	return
}

// checkQuiesced asserts the credit and pool invariants: after the engine
// runs dry, every link holds its full credit complement and every switch's
// central pool is back to capacity.
func (f *invFabric) checkQuiesced(t *testing.T, round int) {
	t.Helper()
	for i, l := range f.links {
		if got, want := l.credits.Available(), l.Config().Credits; got != want {
			t.Fatalf("round %d: link %d (%s) quiesced with %d of %d credits", round, i, l.Name(), got, want)
		}
	}
	for i, sw := range f.sws {
		if got, want := sw.PoolFree(), PoolPackets; got != want {
			t.Fatalf("round %d: switch %d quiesced with %d of %d pool slots", round, i, got, want)
		}
	}
}

func invRounds() int {
	if testing.Short() {
		return 5
	}
	return 12
}

// TestInvariantPacketConservation checks, across random fabrics with drop
// and corrupt injection armed on every link, that
//
//	sent == delivered(clean) + delivered(corrupt)
//	      + link drops + switch drops + switch CRC drops
//
// — no packet is ever lost without a cause counter naming why.
func TestInvariantPacketConservation(t *testing.T) {
	r := sim.NewRand(0x1a7e57)
	for round := 0; round < invRounds(); round++ {
		eng := sim.NewEngine()
		f := buildInvFabric(eng, r, DefaultLinkConfig())
		inj := &invInjector{r: r, dropPct: 10, corruptPct: 10, maxDelayNic: 500}
		for _, l := range f.links {
			l.SetInjector(inj)
		}
		sent, clean, corrupt := f.run(eng, r, 12, func(int) sim.Time { return 0 })
		linkDrops, swDrops, corruptDrops := f.accounted()
		got := int64(clean+corrupt) + linkDrops + swDrops + corruptDrops
		if got != int64(sent) {
			t.Fatalf("round %d: sent %d, accounted %d (clean %d corrupt %d linkdrop %d swdrop %d crc %d)",
				round, sent, got, clean, corrupt, linkDrops, swDrops, corruptDrops)
		}
		f.checkQuiesced(t, round)
		eng.Shutdown()
	}
}

// TestInvariantCreditsRestoredUnderFaults hits the flow-control ledger
// hard: tiny credit windows plus heavy loss, so only the drop path's credit
// restoration lets senders finish at all.
func TestInvariantCreditsRestoredUnderFaults(t *testing.T) {
	r := sim.NewRand(0xc4ed17)
	for round := 0; round < invRounds(); round++ {
		eng := sim.NewEngine()
		cfg := DefaultLinkConfig()
		cfg.Credits = 2
		f := buildInvFabric(eng, r, cfg)
		inj := &invInjector{r: r, dropPct: 35, corruptPct: 5}
		for _, l := range f.links {
			l.SetInjector(inj)
		}
		sent, clean, corrupt := f.run(eng, r, 10, func(int) sim.Time { return 0 })
		linkDrops, swDrops, corruptDrops := f.accounted()
		if got := int64(clean+corrupt) + linkDrops + swDrops + corruptDrops; got != int64(sent) {
			t.Fatalf("round %d: sent %d, accounted %d", round, sent, got)
		}
		f.checkQuiesced(t, round)
		eng.Shutdown()
	}
}

// TestInvariantCreditsRestoredWithSlowReceivers holds each delivered
// packet's credit for a random per-endpoint time before returning it: the
// stalls reshape every queue and backpressure interaction, but quiescence
// must still find all credits and pool slots home, and conservation intact.
func TestInvariantCreditsRestoredWithSlowReceivers(t *testing.T) {
	r := sim.NewRand(0x51033)
	for round := 0; round < invRounds(); round++ {
		eng := sim.NewEngine()
		cfg := DefaultLinkConfig()
		cfg.Credits = 1 + r.Intn(3)
		f := buildInvFabric(eng, r, cfg)
		holds := make([]sim.Time, len(f.eps))
		for i := range holds {
			holds[i] = sim.Time(r.Intn(2000)) * sim.Nanosecond
		}
		sent, clean, corrupt := f.run(eng, r, 8, func(e int) sim.Time { return holds[e] })
		if corrupt != 0 {
			t.Fatalf("round %d: %d corrupt deliveries with no injector", round, corrupt)
		}
		linkDrops, swDrops, corruptDrops := f.accounted()
		if linkDrops != 0 || corruptDrops != 0 {
			t.Fatalf("round %d: fault drops (%d link, %d crc) with no injector", round, linkDrops, corruptDrops)
		}
		if got := int64(clean) + swDrops; got != int64(sent) {
			t.Fatalf("round %d: sent %d, accounted %d (clean %d swdrop %d)", round, sent, got, clean, swDrops)
		}
		f.checkQuiesced(t, round)
		eng.Shutdown()
	}
}

// TestInvariantDropCausesSumToDropped cross-checks the switch's own drop
// taxonomy: Dropped must equal NoRouteDrops plus local-without-sink drops,
// and Routed plus Local plus Dropped plus CorruptDrops must cover every
// arrival the fabric's links delivered into switches.
func TestInvariantDropCausesSumToDropped(t *testing.T) {
	r := sim.NewRand(0xd06f00d)
	for round := 0; round < invRounds(); round++ {
		eng := sim.NewEngine()
		f := buildInvFabric(eng, r, DefaultLinkConfig())
		inj := &invInjector{r: r, dropPct: 8, corruptPct: 12}
		for _, l := range f.links {
			l.SetInjector(inj)
		}
		f.run(eng, r, 12, func(int) sim.Time { return 0 })
		for i, sw := range f.sws {
			st := sw.Stats()
			// Local counts all switch-addressed arrivals; with no sink every
			// one of them is also a drop, and the rest of Dropped is no-route.
			if st.Dropped != st.NoRouteDrops+st.Local {
				t.Fatalf("round %d: switch %d Dropped=%d != NoRouteDrops=%d + Local=%d",
					round, i, st.Dropped, st.NoRouteDrops, st.Local)
			}
		}
		f.checkQuiesced(t, round)
		eng.Shutdown()
	}
}

// PoolFree reports the buffer-pool slots currently free.
func (s *Switch) PoolFree() int { return s.pool.Available() }
