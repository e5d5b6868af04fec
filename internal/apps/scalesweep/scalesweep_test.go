package scalesweep

import (
	"bytes"
	"testing"

	"activesan/internal/cluster"
	"activesan/internal/sim"
)

// TestActiveCutsHostIOAt64Hosts is the headline acceptance check: a 64-host
// fat-tree reduction completes correctly in both variants and the active
// configuration moves strictly fewer bytes across host NICs than the
// passive MST — the paper's core claim, held at scale.
func TestActiveCutsHostIOAt64Hosts(t *testing.T) {
	if testing.Short() {
		t.Skip("64-host fat tree (80 switches)")
	}
	prm := DefaultParams()
	active := RunPoint(prm.Env, 64, true, prm.Reduce)
	passive := RunPoint(prm.Env, 64, false, prm.Reduce)
	if !active.Correct || !passive.Correct {
		t.Fatalf("incorrect reduction: active ok=%v, passive ok=%v", active.Correct, passive.Correct)
	}
	if active.K != 8 || active.Switches != 80 {
		t.Errorf("64 hosts built k=%d with %d switches, want k=8 with 80", active.K, active.Switches)
	}
	if active.HostBytes >= passive.HostBytes {
		t.Errorf("active host I/O %d B >= passive %d B: in-network aggregation saved nothing",
			active.HostBytes, passive.HostBytes)
	}
	if active.Latency >= passive.Latency {
		t.Errorf("active latency %v >= passive %v", active.Latency, passive.Latency)
	}
}

// TestHostIOSavingGrowsWithScale checks the scaling shape: the passive MST
// moves ~log2(p) vectors per host while active moves one up and at most one
// down, so the byte ratio must widen as hosts grow.
func TestHostIOSavingGrowsWithScale(t *testing.T) {
	prm := DefaultParams()
	counts := []int{4, 16}
	if !testing.Short() {
		counts = append(counts, 64)
	}
	prev := 0.0
	for _, p := range counts {
		a := RunPoint(prm.Env, p, true, prm.Reduce)
		b := RunPoint(prm.Env, p, false, prm.Reduce)
		ratio := float64(b.HostBytes) / float64(a.HostBytes)
		if ratio <= prev {
			t.Errorf("p=%d: passive/active byte ratio %.3f did not grow (prev %.3f)", p, ratio, prev)
		}
		prev = ratio
	}
}

// TestEveryPointCorrect runs the shrunk sweep and requires the oracle check
// to pass at every point (no INCORRECT notes).
func TestEveryPointCorrect(t *testing.T) {
	prm := DefaultParams()
	prm.HostCounts = []int{4, 8, 16}
	res := RunAll(prm)
	for _, n := range res.Notes {
		if bytes.Contains([]byte(n), []byte("INCORRECT")) {
			t.Errorf("sweep note: %s", n)
		}
	}
	if len(res.Series) != 5 {
		t.Errorf("%d series, want 5 (two latency, two host-byte, speedup)", len(res.Series))
	}
}

// TestSerialVsPartitionedByteIdentity is the determinism contract at the
// sweep's own level: one point measured through the serial engine and
// through 2 and 4 partitions must agree on every field — virtual latency,
// host bytes, correctness — not approximately but exactly. Any conservatism
// bug in the partition barriers (a message injected late, a reordered
// same-time pair) shows up here as a latency or byte diff. Each partitioned
// point runs once through the run config's Parts, under the default
// dispatch, and once more with concurrent dispatch pinned, so the race
// detector sees every round's windows overlap however narrow they are.
func TestSerialVsPartitionedByteIdentity(t *testing.T) {
	hosts := 64
	if testing.Short() {
		hosts = 16
	}
	prm := DefaultParams()
	for _, active := range []bool{false, true} {
		want := RunPoint(prm.Env, hosts, active, prm.Reduce)
		if !want.Correct {
			t.Fatalf("active=%v: serial point incorrect", active)
		}
		for _, parts := range []int{2, 4} {
			env := prm.Env
			env.Topology.Parts = parts
			got := RunPoint(env, hosts, active, prm.Reduce)
			if got != want {
				t.Errorf("active=%v partitions=%d diverges from serial:\n got %+v\nwant %+v",
					active, parts, got, want)
			}
			c := cluster.NewPartitionedFatTreeCluster(cluster.DefaultFatTreeConfig(hosts), parts)
			c.Group.SetDispatch(sim.DispatchConcurrent)
			if got := pointOn(c, hosts, active, prm.Reduce); got != want {
				t.Errorf("active=%v partitions=%d concurrent dispatch diverges from serial:\n got %+v\nwant %+v",
					active, parts, got, want)
			}
		}
	}
}
