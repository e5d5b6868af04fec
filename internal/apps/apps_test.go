package apps

import (
	"testing"
	"testing/quick"

	"activesan/internal/cluster"
	"activesan/internal/iodev"
	"activesan/internal/sim"
)

func TestConfigMatrix(t *testing.T) {
	if len(AllConfigs) != 4 {
		t.Fatalf("configs = %d, want the paper's 4", len(AllConfigs))
	}
	cases := []struct {
		c      Config
		name   string
		active bool
		out    int
	}{
		{Normal, "normal", false, 1},
		{NormalPref, "normal+pref", false, 2},
		{Active, "active", true, 1},
		{ActivePref, "active+pref", true, 2},
	}
	for _, c := range cases {
		if c.c.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", int(c.c), c.c.String(), c.name)
		}
		if c.c.IsActive() != c.active {
			t.Errorf("%s.IsActive() = %v", c.name, c.c.IsActive())
		}
		if c.c.Outstanding() != c.out {
			t.Errorf("%s.Outstanding() = %d, want %d", c.name, c.c.Outstanding(), c.out)
		}
	}
}

func TestRandDeterministicAndSpread(t *testing.T) {
	a, b := NewRand(1), NewRand(1)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	// Different seeds diverge.
	c, d := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Next() == d.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
	}
}

func TestMix64Properties(t *testing.T) {
	// Mix64 must be a bijection-ish hash: deterministic, and flipping one
	// input bit changes roughly half the output bits on average.
	f := func(x uint64) bool {
		if Mix64(x) != Mix64(x) {
			return false
		}
		d := Mix64(x) ^ Mix64(x^1)
		pop := 0
		for d != 0 {
			pop++
			d &= d - 1
		}
		return pop >= 8 && pop <= 56
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamChunksOrderAndCoverage(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.NewIOCluster(eng, cluster.DefaultIOClusterConfig())
	const size = 300 * 1024 // not a multiple of the chunk
	c.Store(0).AddFile(&iodev.File{Name: "f", Size: size})
	c.Start()
	var offs []int64
	var total int64
	eng.Spawn("app", func(p *sim.Proc) {
		h := c.Host(0)
		buf := h.Space().Alloc(64*1024, 4096)
		StreamChunks(p, h, c.Store(0).ID(), "f", size, 64*1024, buf, 2,
			func(off, n int64, _ []any) {
				offs = append(offs, off)
				total += n
			})
	})
	eng.Run()
	defer c.Shutdown()
	if total != size {
		t.Fatalf("covered %d bytes, want %d", total, size)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] <= offs[i-1] {
			t.Fatalf("chunks out of order: %v", offs)
		}
	}
	// Final chunk is the remainder.
	if offs[len(offs)-1] != 256*1024 {
		t.Fatalf("last chunk at %d", offs[len(offs)-1])
	}
}

func TestCollectAggregatesHosts(t *testing.T) {
	eng := sim.NewEngine()
	ccfg := cluster.DefaultIOClusterConfig()
	ccfg.Hosts = 2
	c := cluster.NewIOCluster(eng, ccfg)
	c.Start()
	eng.Spawn("a", func(p *sim.Proc) {
		c.Host(0).CPU().Compute(p, 2000)
		c.Host(1).CPU().Compute(p, 2000)
	})
	end := eng.Run()
	run := Collect(Normal, c, end, map[string]any{"k": 1})
	c.Shutdown()
	if run.Hosts != 2 {
		t.Fatalf("hosts = %d", run.Hosts)
	}
	if run.HostBusy != sim.HostClock.Cycles(4000) {
		t.Fatalf("aggregated busy = %v", run.HostBusy)
	}
	if run.Extra["k"] != 1 {
		t.Fatal("extra not carried")
	}
	if run.Config != "normal" {
		t.Fatalf("config label = %q", run.Config)
	}
}

func TestRunIOScopedRestrictsHosts(t *testing.T) {
	ccfg := cluster.DefaultIOClusterConfig()
	ccfg.Hosts = 2
	app := func(p *sim.Proc, c *cluster.Cluster) map[string]any {
		c.Host(0).CPU().Compute(p, 1000)
		c.Host(1).CPU().Compute(p, 9000)
		return nil
	}
	all := RunIO(Env{}, ccfg, Normal, nil, app)
	scoped, _ := RunIOWith(Env{}, ccfg, Normal, nil, app, []int{0})
	if all.Hosts != 2 || scoped.Hosts != 1 {
		t.Fatalf("hosts = %d / %d", all.Hosts, scoped.Hosts)
	}
	if scoped.HostBusy != sim.HostClock.Cycles(1000) {
		t.Fatalf("scoped busy = %v", scoped.HostBusy)
	}
	if all.HostBusy != sim.HostClock.Cycles(10000) {
		t.Fatalf("all busy = %v", all.HostBusy)
	}
}
