package fault

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"activesan/internal/san"
	"activesan/internal/sim"
)

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"drop above 1", Plan{Links: []LinkRule{{Drop: 1.5}}}, "drop=1.5"},
		{"negative corrupt", Plan{Links: []LinkRule{{Corrupt: -0.1}}}, "corrupt=-0.1"},
		{"bad delay prob", Plan{Links: []LinkRule{{DelayProb: 2}}}, "delay_prob"},
		{"negative delay", Plan{Links: []LinkRule{{DelayNS: -5}}}, "delay_ns=-5"},
		{"bad disk fail", Plan{Disks: []DiskRule{{Fail: 7}}}, "fail=7"},
		{"negative retry", Plan{Disks: []DiskRule{{Fail: 0.1, RetryNS: -1}}}, "retry_ns=-1"},
		{"unknown kind", Plan{Events: []Event{{Kind: "meteor_strike"}}}, "unknown kind"},
		{"link event without link", Plan{Events: []Event{{Kind: LinkDown}}}, "needs a link name"},
		{"negative at", Plan{Events: []Event{{Kind: HandlerCrash, AtNS: -1}}}, "at_ns=-1"},
		{"delay past ceiling", Plan{Links: []LinkRule{{DelayNS: MaxNS + 1}}}, "delay_ns="},
		{"jitter past ceiling", Plan{Links: []LinkRule{{JitterNS: MaxNS + 1}}}, "jitter_ns="},
		{"retry past ceiling", Plan{Disks: []DiskRule{{RetryNS: MaxNS + 1}}}, "retry_ns="},
		{"at past ceiling", Plan{Events: []Event{{Kind: HandlerCrash, AtNS: MaxNS + 1}}}, "at_ns="},
		{"timeout past ceiling", Plan{Reliability: &Reliability{TimeoutNS: MaxNS + 1}}, "timeout_ns="},
		{"negative max backoff", Plan{Reliability: &Reliability{MaxBackoffNS: -1}}, "max_backoff_ns=-1"},
		{"backoff past ceiling", Plan{Reliability: &Reliability{Backoff: 1e300}}, "backoff=1e+300"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.plan.Validate()
			if err == nil {
				t.Fatalf("plan %+v accepted", c.plan)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
	good := Plan{
		Links:  []LinkRule{{Drop: 0.01, DelayNS: 100, JitterNS: 50, DelayProb: 0.5}},
		Disks:  []DiskRule{{Fail: 0.1, RetryNS: 1000}},
		Events: []Event{{AtNS: 10, Kind: LinkDown, Link: "h0"}, {AtNS: MaxNS, Kind: HandlerCrash}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// TestLoadRejectsTimesPastSimTime: nanosecond fields beyond sim.Time's
// range wrap negative once scaled to picoseconds. The event plan used to
// load and then crash the run ("scheduling into the past"); the delay plan
// used to load and inject no delay at all.
func TestLoadRejectsTimesPastSimTime(t *testing.T) {
	for _, src := range []string{
		`{"events": [{"at_ns": 9300000000000000, "kind": "handler_crash", "switch": 0}]}`,
		`{"links": [{"delay_ns": 9300000000000000}]}`,
	} {
		path := filepath.Join(t.TempDir(), "plan.json")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("plan loaded: %s", src)
		}
	}
}

func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	const src = `{
		"seed": 7,
		"links": [{"match": "trunk", "drop": 0.01, "delay_ns": 2000}],
		"disks": [{"fail": 0.3, "retry_ns": 5000}],
		"events": [{"at_ns": 1000000, "kind": "handler_crash", "switch": 0}],
		"reliability": {"timeout_ns": 50000, "max_retries": 12}
	}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if p.Seed != 7 || len(p.Links) != 1 || p.Links[0].Match != "trunk" ||
		len(p.Disks) != 1 || p.Disks[0].Fail != 0.3 ||
		len(p.Events) != 1 || p.Events[0].Kind != HandlerCrash ||
		p.Reliability == nil || p.Reliability.MaxRetries != 12 {
		t.Fatalf("plan fields lost in round trip: %+v", p)
	}

	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := Load(bad); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	invalid := filepath.Join(dir, "invalid.json")
	os.WriteFile(invalid, []byte(`{"links":[{"drop": 2}]}`), 0o644)
	if _, err := Load(invalid); err == nil {
		t.Fatal("out-of-range plan accepted")
	}
}

func TestNeedsRetx(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want bool
	}{
		{"empty", Plan{}, false},
		{"delay only", Plan{Links: []LinkRule{{DelayNS: 100}}}, false},
		{"drop", Plan{Links: []LinkRule{{Drop: 0.01}}}, true},
		{"corrupt", Plan{Links: []LinkRule{{Corrupt: 0.01}}}, true},
		{"link down", Plan{Events: []Event{{Kind: LinkDown, Link: "x"}}}, true},
		{"port down", Plan{Events: []Event{{Kind: PortDown}}}, true},
		{"crash only", Plan{Events: []Event{{Kind: HandlerCrash}}}, false},
		{"disabled", Plan{
			Links:       []LinkRule{{Drop: 0.5}},
			Reliability: &Reliability{Disable: true},
		}, false},
	}
	for _, c := range cases {
		if got := c.plan.needsRetx(); got != c.want {
			t.Errorf("%s: needsRetx=%v, want %v", c.name, got, c.want)
		}
	}
}

func TestCompileRuleFirstMatchWins(t *testing.T) {
	p := &Plan{Links: []LinkRule{
		{Match: "trunk", Drop: 0.5},
		{Match: "", Drop: 0.1}, // catch-all
	}}
	if r := compileRule(p, "sw0.trunk.out"); r == nil || r.drop != 0.5 {
		t.Fatalf("trunk rule not selected: %+v", r)
	}
	if r := compileRule(p, "h0.up"); r == nil || r.drop != 0.1 {
		t.Fatalf("catch-all not selected: %+v", r)
	}
	only := &Plan{Links: []LinkRule{{Match: "trunk", Drop: 0.5}}}
	if r := compileRule(only, "h0.up"); r != nil {
		t.Fatalf("unmatched link got rule %+v, want observe-only nil", r)
	}
	// A bare delay defaults to firing on every packet.
	delayed := &Plan{Links: []LinkRule{{DelayNS: 100}}}
	if r := compileRule(delayed, "any"); r == nil || r.delayProb != 1 {
		t.Fatalf("bare delay rule %+v, want delayProb=1", r)
	}
}

// pkt builds a data packet with the identity fields the injector keys on.
func pkt(src, dst san.NodeID, flow int64, seq int) *san.Packet {
	return &san.Packet{Hdr: san.Header{Src: src, Dst: dst, Flow: flow, Seq: seq}, Size: 64}
}

func TestInjectorLossAndRecoveryAccounting(t *testing.T) {
	eng := sim.NewEngine()
	l := san.NewLink(eng, "l", san.DefaultLinkConfig())
	in := newInjector(1)
	in.rules[l] = &linkRule{drop: 1} // deterministic loss

	v, _ := in.OnTransmit(l, pkt(1, 2, 100, 0))
	if v != san.FaultDrop {
		t.Fatalf("verdict %v, want drop", v)
	}
	c := in.Counts()
	if c.Injected != 1 || c.Dropped != 1 || in.Pending() != 1 {
		t.Fatalf("after drop: %+v pending=%d", c, in.Pending())
	}
	if in.Balanced() {
		t.Fatal("balanced with a pending loss")
	}

	// The retransmission passes cleanly on another (observe-only) link and
	// recovers the pending identity.
	clean := san.NewLink(eng, "clean", san.DefaultLinkConfig())
	in.rules[clean] = nil
	if v, _ := in.OnTransmit(clean, pkt(1, 2, 100, 0)); v != san.FaultPass {
		t.Fatal("clean link did not pass")
	}
	c = in.Counts()
	if c.Recovered != 1 || in.Pending() != 0 || !in.Balanced() {
		t.Fatalf("after recovery: %+v pending=%d", c, in.Pending())
	}
}

func TestInjectorAckLossTolerated(t *testing.T) {
	eng := sim.NewEngine()
	l := san.NewLink(eng, "l", san.DefaultLinkConfig())
	in := newInjector(1)
	in.rules[l] = &linkRule{drop: 1}
	ack := pkt(2, 1, 100, 0)
	ack.Hdr.Type = san.Ack
	in.OnTransmit(l, ack)
	c := in.Counts()
	if c.Injected != 1 || c.Tolerated != 1 || in.Pending() != 0 || !in.Balanced() {
		t.Fatalf("ACK loss not tolerated immediately: %+v pending=%d", c, in.Pending())
	}
}

func TestInjectorResolveFlowToleratesStragglers(t *testing.T) {
	eng := sim.NewEngine()
	l := san.NewLink(eng, "l", san.DefaultLinkConfig())
	in := newInjector(1)
	in.rules[l] = &linkRule{drop: 1}
	in.OnTransmit(l, pkt(1, 2, 100, 3)) // lost retransmission
	if in.Pending() != 1 {
		t.Fatalf("pending=%d, want 1", in.Pending())
	}
	// Sender reports the flow fully acknowledged: the pending loss can
	// never be re-delivered and must be tolerated.
	in.resolveFlow(2, 100, 0)
	if in.Pending() != 0 || !in.Balanced() {
		t.Fatalf("resolved flow left pending=%d", in.Pending())
	}
	// A later loss on the resolved flow is tolerated on the spot.
	in.OnTransmit(l, pkt(1, 2, 100, 4))
	if in.Pending() != 0 || !in.Balanced() {
		t.Fatalf("post-resolve loss pended: %+v", in.Counts())
	}
}

func TestInjectorProtocolExemption(t *testing.T) {
	eng := sim.NewEngine()
	l := san.NewLink(eng, "l", san.DefaultLinkConfig())
	in := newInjector(1)
	in.rules[l] = &linkRule{drop: 1}
	in.protocol = map[san.NodeID]bool{1: true, 2: true} // 50 is outside

	// Host-to-host traffic is covered: the drop fires.
	if v, _ := in.OnTransmit(l, pkt(1, 2, 100, 0)); v != san.FaultDrop {
		t.Fatal("covered packet not dropped")
	}
	// Switch-destined and switch-sourced packets are exempt: delivered.
	if v, _ := in.OnTransmit(l, pkt(1, 50, 101, 0)); v != san.FaultPass {
		t.Fatal("switch-destined packet dropped despite exemption")
	}
	if v, _ := in.OnTransmit(l, pkt(50, 2, 102, 0)); v != san.FaultPass {
		t.Fatal("switch-sourced packet dropped despite exemption")
	}
	c := in.Counts()
	if c.Exempt != 2 || c.Dropped != 1 {
		t.Fatalf("Exempt=%d Dropped=%d, want 2 and 1", c.Exempt, c.Dropped)
	}
}

func TestInjectorDiskRetryAccounting(t *testing.T) {
	in := newInjector(1)
	in.disks["store0"] = &DiskRule{Fail: 1}
	if !in.OnDiskOp("store0", "f", 0, 512) {
		t.Fatal("fail=1 rule did not fail the attempt")
	}
	if in.Counts().DiskErrors != 1 || in.Pending() != 1 {
		t.Fatalf("after failure: %+v pending=%d", in.Counts(), in.Pending())
	}
	// The retry succeeds once the rule stops firing (simulate by dropping
	// the rule, as a real plan's probability draw eventually misses).
	in.disks["store0"] = &DiskRule{Fail: 0}
	if in.OnDiskOp("store0", "f", 0, 512) {
		t.Fatal("fail=0 rule failed the attempt")
	}
	if in.Counts().Recovered != 1 || in.Pending() != 0 || !in.Balanced() {
		t.Fatalf("retry did not recover: %+v pending=%d", in.Counts(), in.Pending())
	}
	// Unarmed stores never fail.
	if in.OnDiskOp("other", "f", 0, 512) {
		t.Fatal("store without a rule failed")
	}
}

func TestArmRejectsBadReferences(t *testing.T) {
	// Arm panics on plan references that don't resolve; exercised through
	// Validate here since building a cluster in-package would be a cycle —
	// the cluster-level path is covered by the faultsweep tests.
	p := &Plan{Links: []LinkRule{{Drop: 2}}}
	defer func() {
		if recover() == nil {
			t.Fatal("Arm accepted an invalid plan")
		}
	}()
	Arm(nil, p, 0)
}
