package fault

import (
	"fmt"
	"strings"

	"activesan/internal/aswitch"
	"activesan/internal/cluster"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// Arm wires a validated plan into a cluster. Call after the topology is
// built and before cluster.Start. seed, when non-zero, overrides the plan's
// own seed (the CLI's -fault-seed). Arm panics on plan references that
// don't resolve against this cluster (unknown link substrings, switch or
// port indexes out of range) — a fault plan that silently does nothing is
// worse than a crash.
//
// Arming installs the injector on every switch-port link — even links no
// rule matches — because clean passes on any link are how the injector
// observes recoveries. It also installs the cluster's ExtraMetrics and
// FaultCounts hooks, whose presence switches on all fault/retry metric and
// timeline emission.
func Arm(c *cluster.Cluster, p *Plan, seed uint64) *Injector {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("fault: invalid plan: %v", err))
	}
	if seed == 0 {
		seed = p.Seed
	}
	in := newInjector(seed)

	links := clusterLinks(c)
	for _, l := range links {
		in.rules[l] = compileRule(p, l.Name())
		l.SetInjector(in)
	}

	for _, d := range c.Stores {
		for i := range p.Disks {
			r := &p.Disks[i]
			if r.Match != "" && !strings.Contains(d.Name(), r.Match) {
				continue
			}
			in.disks[d.Name()] = r
			d.SetDiskFaults(in, sim.Time(r.RetryNS)*sim.Nanosecond)
			break
		}
	}

	scheduleEvents(c, p, in, links)

	if p.needsRetx() {
		cfg := p.retxConfig()
		endpoints := map[san.NodeID]bool{}
		for _, h := range c.Hosts {
			endpoints[h.ID()] = true
		}
		for _, d := range c.Stores {
			endpoints[d.ID()] = true
		}
		in.protocol = endpoints
		trackable := func(id san.NodeID) bool { return endpoints[id] }
		for _, h := range c.Hosts {
			tx := h.NIC().EnableReliability(cfg)
			tx.SetResolve(in.resolveFlow)
			h.NIC().SetRelFilter(trackable)
		}
		for _, d := range c.Stores {
			tx := d.EnableReliability(cfg)
			tx.SetResolve(in.resolveFlow)
			d.SetRelFilter(trackable)
		}
	}

	c.ExtraMetrics = in.addMetrics
	c.FaultCounts = func() (injected, recovered int64) {
		cnt := in.Counts()
		return cnt.Injected, cnt.Recovered
	}
	return in
}

// clusterLinks collects every distinct link in the cluster. Switch ports
// cover them all (host and store uplinks are switch-port links), but a
// switch-to-switch trunk appears as two ports' views of the same *Link, so
// deduplicate by pointer.
func clusterLinks(c *cluster.Cluster) []*san.Link {
	seen := map[*san.Link]bool{}
	var links []*san.Link
	for _, sw := range c.Switches {
		for i := 0; i < sw.Config().Ports; i++ {
			port := sw.Port(i)
			for _, l := range []*san.Link{port.In, port.Out} {
				if l != nil && !seen[l] {
					seen[l] = true
					links = append(links, l)
				}
			}
		}
	}
	return links
}

// scheduleEvents places the plan's discrete events on the engines. On a
// partitioned cluster a link's state lives on the engine that constructed it
// and a switch's plane on its partition's engine, so each event is scheduled
// per target engine — for a link flap crossing a partition cut, one event
// per side, both at the same virtual instant. On a serial cluster every
// target shares c.Eng and the grouping degenerates to the single-event
// schedule it always was.
func scheduleEvents(c *cluster.Cluster, p *Plan, in *Injector, links []*san.Link) {
	for i, e := range p.Events {
		e := e
		at := sim.Time(e.AtNS) * sim.Nanosecond
		switch e.Kind {
		case LinkDown, LinkUp:
			var targets []*san.Link
			for _, l := range links {
				if strings.Contains(l.Name(), e.Link) {
					targets = append(targets, l)
				}
			}
			if len(targets) == 0 {
				panic(fmt.Sprintf("fault: events[%d]: no link matches %q", i, e.Link))
			}
			down := e.Kind == LinkDown
			byEng := map[*sim.Engine][]*san.Link{}
			var order []*sim.Engine // first-seen order keeps scheduling deterministic
			for _, l := range targets {
				eng := l.Engine()
				if _, ok := byEng[eng]; !ok {
					order = append(order, eng)
				}
				byEng[eng] = append(byEng[eng], l)
			}
			for _, eng := range order {
				group := byEng[eng]
				eng.Schedule(at, func() {
					for _, l := range group {
						l.SetDown(down)
						in.noteLinkEvent()
					}
				})
			}
		case PortDown, PortUp:
			sw := eventSwitch(c, i, e)
			if e.Port < 0 || e.Port >= sw.Config().Ports {
				panic(fmt.Sprintf("fault: events[%d]: switch %d has no port %d", i, e.Switch, e.Port))
			}
			port := sw.Port(e.Port)
			down := e.Kind == PortDown
			// A trunk port's In link is constructed on the neighbor's engine;
			// schedule each side where it lives.
			for _, l := range []*san.Link{port.In, port.Out} {
				if l == nil {
					continue
				}
				l := l
				l.Engine().Schedule(at, func() {
					l.SetDown(down)
					in.noteLinkEvent()
				})
			}
		case HandlerCrash:
			sw := eventSwitch(c, i, e)
			c.EngineFor(sw.ID()).Schedule(at, func() {
				// A crash is injected and tolerated in the same breath: the
				// recovery (host-side fallback or restart) re-does the work
				// rather than re-delivering anything.
				in.noteCrash()
				sw.Crash()
			})
		case HandlerRestart:
			sw := eventSwitch(c, i, e)
			c.EngineFor(sw.ID()).Schedule(at, func() { sw.Restart() })
		}
	}
}

func eventSwitch(c *cluster.Cluster, i int, e Event) *aswitch.ActiveSwitch {
	if e.Switch < 0 || e.Switch >= len(c.Switches) {
		panic(fmt.Sprintf("fault: events[%d]: switch index %d out of range (cluster has %d)",
			i, e.Switch, len(c.Switches)))
	}
	return c.Switches[e.Switch]
}
