package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"activesan"
	"activesan/internal/apps"
	"activesan/internal/apps/reduce"
	"activesan/internal/aswitch"
	"activesan/internal/cluster"
	"activesan/internal/collective"
	"activesan/internal/exp"
	"activesan/internal/metrics"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

// knownDefects names the ops that fail today because of a defect in the
// program, not in the benchmark. They stay in their workloads and count as
// failed; a pass whose only failures are these is still a correct pass.
// The change that fixes a defect deletes its entry and records the op's
// simulated result beside the others.
var knownDefects = map[string]string{
	"fabric/keyagg-active": "keyagg-deadlock-512: active keyagg at >=512 hosts with the default " +
		"32-entry table leaves every home rank's row empty, latency 0, packets queued in switches",
}

// --- paper ---------------------------------------------------------------

// goldenScale is the problem-size divisor the repository's goldens pin, and
// goldenDir, relative to the repository root, holds them.
const (
	goldenScale = 64
	goldenDir   = "internal/exp/testdata/golden"
)

// runPaper runs every registered experiment once, in registry order, and
// byte-compares each result with its golden.
func runPaper(p *pass) {
	for _, e := range exp.Registry {
		var res *stats.Result
		p.op(e.ID, nil, func() {
			sp := p.call("Experiment.Run", func() { res = e.Run(goldenScale) })
			p.add("exp."+e.ID+"_s", p.dur(sp))
		}, func() error {
			for _, r := range res.Runs {
				if r.Metrics != nil {
					p.tally(r.Metrics)
				}
			}
			return checkGolden(e.ID, res)
		})
	}
}

// checkGolden compares res, encoded as `activesim -json` writes it, with
// the golden file of experiment id.
func checkGolden(id string, res *stats.Result) error {
	got, err := activesan.ResultJSON([]*stats.Result{res})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	got = append(got, '\n')
	path := filepath.Join(goldenDir, id+".json")
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read golden: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("result differs from %s", path)
	}
	return nil
}

// --- fabric --------------------------------------------------------------

// fabricHosts fills a k=16 fat tree: 256 edge and aggregation switches
// plus 64 cores.
const fabricHosts = 1024

// fabricOut is what one fabric op reports.
type fabricOut struct {
	latency   sim.Time
	correct   bool
	runOn     float64 // seconds inside the RunOn call
	engine    time.Duration
	aggHits   int64
	aggIngest int64
}

// fabricOp is one reduction on a fresh fabric. latency pins its simulated
// completion time; ops listed in knownDefects have none.
type fabricOp struct {
	name    string
	latency sim.Time
	run     func(p *pass, c *cluster.Cluster) fabricOut
}

var fabricOps = []fabricOp{
	{"reduce-active", 24210500 * sim.Picosecond, runReduce(true)},
	{"reduce-passive", 80278500 * sim.Picosecond, runReduce(false)},
	{"allreduce-active", 34458500 * sim.Picosecond, runCollective(collective.Allreduce, true)},
	{"allreduce-passive", 80278500 * sim.Picosecond, runCollective(collective.Allreduce, false)},
	{"keyagg-active", 0, runCollective(collective.KeyAgg, true)},
}

func runReduce(active bool) func(*pass, *cluster.Cluster) fabricOut {
	return func(p *pass, c *cluster.Cluster) fabricOut {
		var r reduce.Result
		sp := p.call("reduce.RunOn", func() {
			r = reduce.RunOn(c.Eng, c, reduce.ToOne, active, fabricHosts, reduce.DefaultParams())
		})
		p.child(sp, "EngineWall", r.EngineWall)
		return fabricOut{latency: r.Latency, correct: r.Correct, runOn: p.dur(sp), engine: r.EngineWall}
	}
}

// runCollective runs op with the library's default parameters, so keyagg
// uses the default switch table budget.
func runCollective(op collective.Op, active bool) func(*pass, *cluster.Cluster) fabricOut {
	return func(p *pass, c *cluster.Cluster) fabricOut {
		var r collective.Result
		sp := p.call("collective.RunOn", func() {
			r = collective.RunOn(c, op, active, fabricHosts, collective.DefaultParams())
		})
		p.child(sp, "EngineWall", r.EngineWall)
		return fabricOut{
			latency: r.Latency, correct: r.Correct, runOn: p.dur(sp), engine: r.EngineWall,
			aggHits: r.AggHits, aggIngest: r.AggIngested,
		}
	}
}

// runFabric runs each fabric op on its own freshly built serial fabric.
func runFabric(p *pass) {
	cfg := cluster.DefaultFatTreeConfig(fabricHosts)
	for _, o := range fabricOps {
		var c *cluster.Cluster
		var out fabricOut
		p.op(o.name, func() {
			sp := p.call("cluster.NewFatTreeCluster", func() {
				c = cluster.NewFatTreeCluster(sim.NewEngine(), cfg)
			})
			p.add("cluster.build_s", p.dur(sp))
		}, func() {
			out = o.run(p, c)
		}, func() error {
			if p.trace {
				p.add("sim.events", float64(c.Eng.Events()))
				p.add("sim.run_s", out.engine.Seconds())
				p.add("collective.overhead_s", out.runOn-out.engine.Seconds())
				p.aggHits += float64(out.aggHits)
				p.aggIngested += float64(out.aggIngest)
				p.tally(metrics.Collect(c, out.latency))
			}
			var errs []string
			if !out.correct {
				errs = append(errs, "result differs from the oracle")
			}
			if out.latency == 0 {
				errs = append(errs, "zero latency")
			}
			if q := queued(c); q > 0 {
				errs = append(errs, fmt.Sprintf("%d packets left queued in switches", q))
			}
			if o.latency != 0 && out.latency != o.latency {
				errs = append(errs, fmt.Sprintf("latency %dps, recorded %dps", out.latency, o.latency))
			}
			return joinErrs(errs)
		})
	}
}

// joinErrs reports every failed check of one op on one line.
func joinErrs(msgs []string) error {
	if len(msgs) == 0 {
		return nil
	}
	return errors.New(strings.Join(msgs, "; "))
}

// queued counts the packets sitting in every switch's output queues.
func queued(c *cluster.Cluster) int {
	n := 0
	for _, sw := range c.Switches {
		n += sw.QueuedPackets()
	}
	return n
}

// --- permute -------------------------------------------------------------

const (
	permuteHosts  = 256
	permuteK      = 16 // four full 64-host pods, so each partition owns two
	permuteParts  = 2
	permuteRounds = 24
)

// permuteSizes are the message sizes a round deals out.
var permuteSizes = [...]int64{512, 4 << 10, 16 << 10}

// permuteDefaultSeed's virtual end time is pinned; other seeds are held out
// and keep only the completion, conservation and drain checks.
const (
	permuteDefaultSeed = 1
	permuteDefaultEnd  = 699838000 * sim.Picosecond
)

// traffic is permute's generated input, indexed [round][host].
type traffic struct {
	dst, src [][]int
	size     [][]int64
}

// genTraffic draws every round's permutation and message sizes from seed.
func genTraffic(seed uint64) traffic {
	rng := apps.NewRand(seed)
	var t traffic
	for r := 0; r < permuteRounds; r++ {
		dst := make([]int, permuteHosts)
		for i := range dst {
			dst[i] = i
		}
		// Sattolo's shuffle draws a uniform single-cycle permutation, so
		// no host is its own image.
		for i := permuteHosts - 1; i > 0; i-- {
			j := int(rng.Intn(int64(i)))
			dst[i], dst[j] = dst[j], dst[i]
		}
		// Every round sends each size to an equal share of hosts, shuffled,
		// so the bytes a round moves do not depend on the seed.
		size := make([]int64, permuteHosts)
		for i := range size {
			size[i] = permuteSizes[i%len(permuteSizes)]
		}
		for i := permuteHosts - 1; i > 0; i-- {
			j := int(rng.Intn(int64(i + 1)))
			size[i], size[j] = size[j], size[i]
		}
		src := make([]int, permuteHosts)
		for i, d := range dst {
			src[d] = i
		}
		t.dst = append(t.dst, dst)
		t.src = append(t.src, src)
		t.size = append(t.size, size)
	}
	return t
}

// flowID numbers host i's message of round r. Flows start at 1: nic.Post
// reads flow 0 as a request for a fresh flow id.
func flowID(r, i int) int64 { return int64(r*permuteHosts + i + 1) }

// runPermute runs the closed-loop permutation exchange on a partitioned
// fabric: each round every host sends one message to its image and waits
// for the one addressed to it.
func runPermute(p *pass, seed uint64) {
	var c *cluster.Cluster
	var t traffic
	var end sim.Time
	var run int
	done := make([]int, permuteHosts)
	p.op("permute", func() {
		p.call("traffic", func() { t = genTraffic(seed) })
		cfg := cluster.DefaultFatTreeConfig(permuteHosts)
		cfg.K = permuteK
		cfg.Switch = aswitch.DefaultConfig(permuteK)
		sp := p.call("cluster.NewPartitionedFatTreeCluster", func() {
			c = cluster.NewPartitionedFatTreeCluster(cfg, permuteParts)
		})
		p.add("cluster.build_s", p.dur(sp))
		p.call("Cluster.Start", c.Start)
		p.call("Engine.Spawn", func() {
			for i := 0; i < permuteHosts; i++ {
				h := c.Host(i)
				c.EngineFor(h.ID()).Spawn(fmt.Sprintf("perm%d", i), func(proc *sim.Proc) {
					for r := 0; r < permuteRounds; r++ {
						h.SendMessage(proc, &san.Message{
							Hdr:  san.Header{Dst: c.Host(t.dst[r][i]).ID(), Type: san.Data, Flow: flowID(r, i)},
							Size: t.size[r][i],
						}, 0)
						from := t.src[r][i]
						h.RecvFlow(proc, c.Host(from).ID(), flowID(r, from))
						done[i]++
					}
				})
			}
		})
	}, func() {
		run = p.call("Cluster.Run", func() { end = c.Run() })
		p.call("Cluster.Shutdown", c.Shutdown)
	}, func() error {
		if p.trace {
			g := c.Group
			wall := p.dur(run)
			p.add("sim.events", float64(g.EventsTotal()))
			p.add("sim.run_s", wall)
			p.add("group.rounds", float64(g.Rounds()))
			p.add("group.micro_step_share", float64(g.MicroSteps())/float64(g.Rounds()))
			p.add("group.parallelism", float64(g.EventsTotal())/float64(g.EventsCritical()))
			p.add("group.barrier_s", wall-g.CriticalPath().Seconds())
			p.add("group.overlap", g.BusyTime().Seconds()/wall)
			p.tally(metrics.Collect(c, end))
		}
		var errs []string
		finished := 0
		for _, n := range done {
			if n == permuteRounds {
				finished++
			}
		}
		if finished != permuteHosts {
			errs = append(errs, fmt.Sprintf("%d of %d hosts finished all %d rounds", finished, permuteHosts, permuteRounds))
		}
		var want, bytesIn, bytesOut, msgsIn, msgsOut int64
		for r := range t.size {
			for _, s := range t.size[r] {
				want += s
			}
		}
		for _, h := range c.Hosts {
			s := h.NIC().Stats()
			bytesIn += s.BytesIn
			bytesOut += s.BytesOut
			msgsIn += s.MessagesIn
			msgsOut += s.MessagesOut
		}
		if msgs := int64(permuteHosts * permuteRounds); msgsIn != msgs || msgsOut != msgs {
			errs = append(errs, fmt.Sprintf("NIC messages in %d, out %d, sent %d", msgsIn, msgsOut, msgs))
		}
		if bytesIn != want || bytesOut != want {
			errs = append(errs, fmt.Sprintf("NIC bytes in %d, out %d, sent %d", bytesIn, bytesOut, want))
		}
		if q := queued(c); q > 0 {
			errs = append(errs, fmt.Sprintf("%d packets left queued in switches", q))
		}
		if seed == permuteDefaultSeed && end != permuteDefaultEnd {
			errs = append(errs, fmt.Sprintf("end time %dps at the default seed, recorded %dps", end, permuteDefaultEnd))
		}
		return joinErrs(errs)
	})
}

// --- counters ------------------------------------------------------------

// tally adds the simulated-work counters of one metrics snapshot.
func (p *pass) tally(s *metrics.Snapshot) {
	for k, v := range s.Values {
		top := strings.Count(k, "/") == 1 // "<switch>/<counter>"
		switch {
		case strings.HasSuffix(k, "/l1i/accesses"), strings.HasSuffix(k, "/l1d/accesses"), strings.HasSuffix(k, "/l2/accesses"):
			p.add("cache.accesses", v)
		case strings.HasSuffix(k, "/disk/bytes_read"):
			p.add("iodev.bytes_read", v)
		case strings.HasSuffix(k, "/active/invocations"):
			p.add("aswitch.invocations", v)
		case strings.HasSuffix(k, "/nic/bytes_in"), strings.HasSuffix(k, "/nic/bytes_out"):
			p.add("nic.bytes", v)
		case top && strings.HasSuffix(k, "/routed"):
			p.add("san.packets_routed", v)
		case top && strings.HasSuffix(k, "/max_queue_depth"):
			p.peak("san.max_queue_depth", v)
		case k == "collective/agg_hits":
			p.aggHits += v
		case k == "collective/agg_ingested":
			p.aggIngested += v
		}
	}
}
