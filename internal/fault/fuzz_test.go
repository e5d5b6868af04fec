package fault

import (
	"fmt"
	"strings"
	"testing"

	"activesan/internal/cluster"
	"activesan/internal/iodev"
	"activesan/internal/sim"
)

// FuzzPlan feeds arbitrary JSON to Parse. Every plan Parse accepts must arm
// on a default I/O cluster, start, and run a host's disk read to a 10 ms
// deadline. The only panics allowed are Arm's, for event references that
// do not resolve against the cluster.
func FuzzPlan(f *testing.F) {
	for _, seed := range []string{
		// CI's fault-smoke and telemetry-smoke plans.
		`{"seed": 7, "links": [{"drop": 0.005}], "disks": [{"fail": 0.1}]}`,
		`{"events": [{"at_ns": 50000, "kind": "handler_crash", "switch": 0}]}`,
		// RELIABILITY.md's example plan and its raw-damage setting.
		`{
		  "seed": 7,
		  "links": [
		    {"match": "trunk", "drop": 0.01, "corrupt": 0.001},
		    {"match": "", "delay_ns": 2000, "jitter_ns": 2000, "delay_prob": 0.05}
		  ],
		  "disks": [{"match": "d0", "fail": 0.01, "retry_ns": 500000}],
		  "events": [
		    {"at_ns": 1000000, "kind": "link_down", "link": "h1.up"},
		    {"at_ns": 3000000, "kind": "link_up",   "link": "h1.up"},
		    {"at_ns": 5000000, "kind": "handler_crash", "switch": 0}
		  ],
		  "reliability": {"timeout_ns": 50000, "backoff": 2, "max_retries": 12}
		}`,
		`{"links": [{"drop": 0.2}], "reliability": {"disable": true}}`,
		// A flap and a port outage on the default cluster's own links.
		`{"events": [
		  {"at_ns": 8000000, "kind": "link_down", "link": "h0.up"},
		  {"at_ns": 8500000, "kind": "link_up", "link": "h0.up"},
		  {"at_ns": 9000000, "kind": "port_down", "switch": 0, "port": 1}
		]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := Parse(data); err == nil {
			readUnder(p, 10*sim.Millisecond)
		}
	})
}

// TestPlanAtCeilingsRuns runs plans with every time field at its ceiling
// to the end: each time derived from them must stay inside sim.Time. The
// first loses every packet, so its timeouts back off to the ceiling until
// the flow is abandoned; the second completes its read after the maximum
// delay on every hop and 64 failed disk attempts.
func TestPlanAtCeilingsRuns(t *testing.T) {
	for i, c := range []struct {
		plan *Plan
		read bool
	}{
		{&Plan{
			Links:       []LinkRule{{Drop: 1}},
			Reliability: &Reliability{TimeoutNS: MaxNS, MaxBackoffNS: MaxNS, Backoff: MaxBackoff},
		}, false},
		{&Plan{
			Links:  []LinkRule{{DelayNS: MaxNS, JitterNS: MaxNS}},
			Disks:  []DiskRule{{Fail: 1, RetryNS: MaxNS}},
			Events: []Event{{AtNS: MaxNS, Kind: HandlerCrash}, {AtNS: MaxNS, Kind: LinkUp, Link: "d0"}},
		}, true},
	} {
		armed, read := readUnder(c.plan, sim.Forever)
		if !armed || read != c.read {
			t.Errorf("plan %d: armed %v, read %v; want armed, read %v", i, armed, read, c.read)
		}
	}
}

// readUnder arms p on a default I/O cluster and runs a host's 64 KB disk
// read until deadline, reporting whether the read completed. It reports
// armed false, having run nothing, when Arm panics for an event that names
// a link, switch or port the cluster does not have; any other panic
// propagates.
func readUnder(p *Plan, deadline sim.Time) (armed, read bool) {
	c := cluster.NewIOCluster(sim.NewEngine(), cluster.DefaultIOClusterConfig())
	defer c.Shutdown()
	func() {
		defer func() {
			if r := recover(); r != nil && !strings.HasPrefix(fmt.Sprint(r), "fault: events[") {
				panic(r)
			}
		}()
		Arm(c, p, 0)
		armed = true
	}()
	if !armed {
		return false, false
	}
	const size = 64 << 10
	c.Store(0).AddFile(&iodev.File{Name: "f", Size: size})
	c.Start()
	h := c.Host(0)
	c.Eng.Spawn("read", func(pr *sim.Proc) {
		h.WaitRead(pr, h.IssueRead(pr, c.Store(0).ID(), "f", 0, size, 0x10000))
		read = true
	})
	c.Eng.RunUntil(deadline)
	return true, read
}
