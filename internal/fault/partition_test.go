package fault

// Fault injection under the partitioned engine: scheduled events (link
// flaps) are placed per target engine at one virtual instant, so a flap on
// a trunk whose directed links straddle a partition cut must produce the
// identical fault ledger at any partition count. (Probabilistic rules draw
// from per-engine PRNG streams and are only reproducible per partition
// count — the ledger-identity guarantee here is for scheduled plans, see
// PERFORMANCE.md.)

import (
	"testing"

	"activesan/internal/cluster"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// flapRun drives cross-pod traffic on a k=4 fat tree while the whole core
// layer flaps down and back up, with retransmission recovering the packets
// lost in the window. At 4 partitions each pod is its own rank, so the
// flapped links cross partition cuts and the down/up events schedule on
// several engines at the same virtual instant. A partitioned group
// dispatches its windows by d.
func flapRun(t *testing.T, nparts int, d sim.Dispatch) (Counts, int) {
	t.Helper()
	c := cluster.NewPartitionedFatTreeCluster(cluster.DefaultFatTreeConfig(16), nparts)
	defer c.Shutdown()
	if c.Group != nil {
		c.Group.SetDispatch(d)
	}
	plan := &Plan{
		Events: []Event{
			{AtNS: 2_000, Kind: LinkDown, Link: "core"},
			{AtNS: 60_000, Kind: LinkUp, Link: "core"},
		},
		Reliability: &Reliability{MaxRetries: 64},
	}
	in := Arm(c, plan, 0)
	c.Start()

	// Host i to host 15-i: every pair crosses pods, and with the core layer
	// dark the first sends race the flap — some packets die on a down link
	// and must be retransmitted after LinkUp. Each pair records into its own
	// slot: receiver procs on different partitions run concurrently.
	const pairs = 8
	got := make([]bool, pairs)
	for i := 0; i < pairs; i++ {
		i := i
		src, dst := c.Host(i), c.Host(15-i)
		c.EngineFor(dst.ID()).Spawn("rx", func(p *sim.Proc) {
			comp := dst.RecvAny(p)
			got[i] = comp.Hdr.Src == src.ID()
		})
		c.EngineFor(src.ID()).Spawn("tx", func(p *sim.Proc) {
			src.SendMessage(p, &san.Message{
				Hdr:  san.Header{Dst: dst.ID(), Type: san.Data, Flow: int64(1000 + i)},
				Size: 64 << 10,
			}, 0)
		})
	}
	c.Run()
	delivered := 0
	for _, ok := range got {
		if ok {
			delivered++
		}
	}
	return in.Counts(), delivered
}

// TestPartitionedLinkFlapAcrossCut runs the partitioned point under the
// default dispatch and again with concurrent dispatch pinned, so the race
// detector sees the cut's windows overlap however narrow they are.
func TestPartitionedLinkFlapAcrossCut(t *testing.T) {
	serial, deliveredSerial := flapRun(t, 1, sim.DispatchAdaptive)
	if deliveredSerial != 8 {
		t.Fatalf("serial run delivered %d of 8 messages", deliveredSerial)
	}
	if serial.LinkEvents == 0 {
		t.Fatal("no link events applied: the flap did not match any trunk")
	}
	if serial.Injected == 0 {
		t.Fatal("no faults injected: the flap window missed all traffic")
	}
	if serial.Injected != serial.Recovered+serial.Tolerated {
		t.Fatalf("serial ledger unbalanced: %+v", serial)
	}

	for _, d := range []sim.Dispatch{sim.DispatchAdaptive, sim.DispatchConcurrent} {
		part, deliveredPart := flapRun(t, 4, d)
		if deliveredPart != deliveredSerial {
			t.Fatalf("%v dispatch: partitioned run delivered %d, serial %d", d, deliveredPart, deliveredSerial)
		}
		if part != serial {
			t.Fatalf("%v dispatch: ledger differs across partition counts:\nserial      %+v\n4 partitions %+v", d, serial, part)
		}
	}
}
