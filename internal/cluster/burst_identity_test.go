package cluster_test

// Adversarial identity suite for same-instant arbitration: every host fires
// at the identical instant, so packets from different partitions collide at
// shared switches with exactly equal timestamps — the one pattern that used
// to be tie-broken by event-insertion order, which barrier injection cannot
// reproduce. With the settle-phase crossbar, metrics, telemetry histograms,
// and the trace-event multiset must be byte-identical at any partition
// count, on fat trees and on seeded random fabrics alike.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"activesan/internal/cluster"
	"activesan/internal/metrics"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/telemetry"
)

// burstResult is everything the identity property compares: the metric
// snapshot (cluster collection plus telemetry histograms and watermarks),
// the final virtual time, and the canonically ordered trace stream.
type burstResult struct {
	values map[string]float64
	end    sim.Time
	trace  []sim.TraceEvent
}

// runBurst builds spec at the given partition count and fires the
// synchronized all-to-all burst: at t=0 every host sends one message to the
// host half a ring away — a permutation that pushes every message through
// shared fabric — and each receiver then acks to a collector on host 0.
// A partitioned group dispatches its windows by d.
func runBurst(t *testing.T, spec cluster.Topology, nparts int, d sim.Dispatch, msgSize int64) burstResult {
	t.Helper()
	return driveBurst(t, newPartitioned(spec, nparts, d), msgSize)
}

// driveBurst runs the synchronized burst on an already-built cluster.
func driveBurst(t *testing.T, c *cluster.Cluster, msgSize int64) burstResult {
	t.Helper()
	defer c.Shutdown()

	// One trace buffer per engine: partition workers emit concurrently and
	// each sink must only touch its own rank's slice.
	var streams [][]sim.TraceEvent
	if c.Group != nil {
		streams = make([][]sim.TraceEvent, c.Group.Len())
		for r := 0; r < c.Group.Len(); r++ {
			r := r
			c.Group.Engine(r).SetTraceSink(func(ev sim.TraceEvent) { streams[r] = append(streams[r], ev) })
		}
	} else {
		streams = make([][]sim.TraceEvent, 1)
		c.Eng.SetTraceSink(func(ev sim.TraceEvent) { streams[0] = append(streams[0], ev) })
	}

	rec := telemetry.NewRecorder(nil)
	rec.Attach(c)
	c.Start()

	nh := len(c.Hosts)
	shift := nh / 2
	if shift == 0 {
		shift = 1
	}
	coll := c.Host(0)
	for i := 0; i < nh; i++ {
		i := i
		h := c.Host(i)
		dst := c.Host((i + shift) % nh)
		src := c.Host((i + nh - shift) % nh)
		c.EngineFor(h.ID()).Spawn(fmt.Sprintf("burst%d", i), func(p *sim.Proc) {
			// Every host's send starts at the same instant zero.
			h.SendMessage(p, &san.Message{
				Hdr:  san.Header{Dst: dst.ID(), Type: san.Data, Flow: int64(4000 + i)},
				Size: msgSize,
			}, 0)
			h.RecvFlow(p, src.ID(), int64(4000+(i+nh-shift)%nh))
			h.SendMessage(p, &san.Message{
				Hdr:  san.Header{Dst: coll.ID(), Type: san.Data, Flow: int64(5000 + i)},
				Size: 64,
			}, 0)
		})
	}
	c.EngineFor(coll.ID()).Spawn("collector", func(p *sim.Proc) {
		for i := 0; i < nh; i++ {
			coll.RecvFlow(p, c.Host(i).ID(), int64(5000+i))
		}
	})

	res := burstResult{}
	res.end = c.Run()
	res.values = metrics.Collect(c, res.end).Values
	tsnap := metrics.NewSnapshot()
	rec.Into(tsnap)
	for k, v := range tsnap.Values {
		res.values[k] = v
	}
	for _, s := range streams {
		res.trace = append(res.trace, s...)
	}
	sort.Slice(res.trace, func(i, j int) bool { return traceLess(res.trace[i], res.trace[j]) })
	return res
}

// compareBurst asserts got is byte-identical to the serial oracle.
func compareBurst(t *testing.T, label string, want, got burstResult) {
	t.Helper()
	if got.end != want.end {
		t.Errorf("%s: end %v, serial %v", label, got.end, want.end)
	}
	if !reflect.DeepEqual(got.values, want.values) {
		reportValueDiff(t, label, want.values, got.values)
	}
	if !reflect.DeepEqual(got.trace, want.trace) {
		reportTraceDiff(t, label, want.trace, got.trace)
	}
}

// TestSynchronizedBurstIdentity is the adversarial arm of the partition
// identity guarantee. The fat-tree arm collides same-instant arrivals at
// edge, aggregation, and core switches; the random-fabric arm does the same
// on irregular graphs where the BFS partitioner produces uneven cuts. Both
// must hold at 1, 2, 4, and 8 partitions, under every pinnedDispatch mode.
func TestSynchronizedBurstIdentity(t *testing.T) {
	t.Run("fattree", func(t *testing.T) {
		cfg := cluster.DefaultFatTreeConfig(16)
		want := driveBurst(t, cluster.NewPartitionedFatTreeCluster(cfg, 1), 8<<10)
		if len(want.trace) == 0 {
			t.Fatal("serial run emitted no trace events")
		}
		for _, nparts := range []int{2, 4, 8} {
			for _, d := range pinnedDispatch {
				c := cluster.NewPartitionedFatTreeCluster(cfg, nparts)
				c.Group.SetDispatch(d)
				label := fmt.Sprintf("fattree, %d partitions, %v dispatch", nparts, d)
				compareBurst(t, label, want, driveBurst(t, c, 8<<10))
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		r := sim.NewRand(0xb1257_1d)
		rounds := 3
		if testing.Short() {
			rounds = 1
		}
		for round := 0; round < rounds; round++ {
			spec := randomFabric(r)
			label := fmt.Sprintf("random round %d", round)
			want := runBurst(t, spec, 1, sim.DispatchAdaptive, 4<<10)
			if len(want.trace) == 0 {
				t.Fatalf("%s: serial run emitted no trace events", label)
			}
			for _, nparts := range []int{2, 4, 8} {
				for _, d := range pinnedDispatch {
					got := runBurst(t, spec, nparts, d, 4<<10)
					compareBurst(t, fmt.Sprintf("%s, %d partitions, %v dispatch", label, nparts, d), want, got)
				}
			}
		}
	})
}
