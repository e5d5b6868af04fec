package san

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"activesan/internal/sim"
)

// TestRouteTableDense drives the dense route table through the id layout
// clusters use — hosts, stores and switches in runs far apart — and checks
// that unset ids read as no route, later routes overwrite earlier ones, and
// sparse ids never allocate the gaps between them.
func TestRouteTableDense(t *testing.T) {
	const stores, switches NodeID = 1 << 19, 1 << 20
	s := NewSwitch(sim.NewEngine(), switches+1, "sw", DefaultSwitchConfig(8))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := NodeID(1); id <= 8; id++ {
		s.SetRoute(id, int(id-1))
	}
	for id := stores; id < stores+4; id++ {
		s.SetRoute(id, 6)
		s.SetBackupRoute(id, 7)
	}
	for id := switches; id < switches+6; id++ {
		if id != s.ID() { // a switch never routes to itself
			s.SetRoute(id, 5)
		}
	}
	runtime.ReadMemStats(&after)
	// One slice spanning ids 1 .. 1<<20 would take 8 MiB.
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("17 ids over three far-apart runs allocated %d bytes", got)
	}
	if n := len(s.routes.runs); n != 3 {
		t.Errorf("%d runs, want 3 (hosts, stores, switches)", n)
	}

	for id := NodeID(1); id <= 8; id++ {
		if p, b := s.Route(id), s.BackupRoute(id); p != int(id-1) || b != -1 {
			t.Errorf("host %d: route (%d, %d), want (%d, -1)", id, p, b, id-1)
		}
	}
	if p, b := s.Route(stores+2), s.BackupRoute(stores+2); p != 6 || b != 7 {
		t.Errorf("store: route (%d, %d), want (6, 7)", p, b)
	}
	if p := s.Route(switches + 5); p != 5 {
		t.Errorf("switch: route %d, want 5", p)
	}
	unset := []NodeID{NoNode, -5, 0, 9, 100, stores - 1, stores + 4,
		s.ID(), switches + 6, switches - 1, 1 << 21, 1<<62 + 3, -1 << 62}
	for _, id := range unset {
		if p, b := s.Route(id), s.BackupRoute(id); p != -1 || b != -1 {
			t.Errorf("unset id %d: route (%d, %d), want (-1, -1)", id, p, b)
		}
	}

	s.SetRoute(3, 7)
	s.SetBackupRoute(3, 1)
	s.SetRoute(3, 4)
	if p, b := s.Route(3), s.BackupRoute(3); p != 4 || b != 1 {
		t.Errorf("overwritten id 3: route (%d, %d), want (4, 1)", p, b)
	}
	// A backup alone leaves the primary unset, as pickRoute expects.
	s.SetBackupRoute(12, 2)
	if p, b := s.Route(12), s.BackupRoute(12); p != -1 || b != 2 {
		t.Errorf("backup-only id 12: route (%d, %d), want (-1, 2)", p, b)
	}
}

// TestRouteTableGapBound pins where a run stops growing: it takes in an id
// across 63 unset ids, on either side, but not across 64.
func TestRouteTableGapBound(t *testing.T) {
	var up routeTable
	up.slot(0)
	up.slot(maxRunGap)       // ids 1 .. 63 unset: joins
	up.slot(2*maxRunGap + 1) // ids 65 .. 128 unset: a new run
	var down routeTable
	down.slot(1000)
	down.slot(1000 - maxRunGap)       // ids 937 .. 999 unset: joins
	down.slot(1000 - 2*maxRunGap - 1) // ids 872 .. 935 unset: a new run
	for name, tab := range map[string]*routeTable{"upwards": &up, "downwards": &down} {
		if n := len(tab.runs); n != 2 {
			t.Errorf("%s: %d runs, want 2", name, n)
		}
	}
}

// TestRouteTableAmortisedGrowth checks that a run grows by doubling whether
// ids arrive ascending or descending, so filling n ids allocates O(log n)
// times rather than once per id.
func TestRouteTableAmortisedGrowth(t *testing.T) {
	for _, desc := range []bool{false, true} {
		allocs := testing.AllocsPerRun(1, func() {
			var tab routeTable
			for i := NodeID(1); i <= 4096; i++ {
				id := i
				if desc {
					id = 4097 - i
				}
				tab.slot(id)
			}
		})
		if allocs > 40 {
			t.Errorf("descending %v: 4096 ids took %.0f allocations", desc, allocs)
		}
	}
}

// TestRouteTableReserveJoins pins how a reserved span joins the runs it
// overlaps or touches on either side, keeping their routes, and stays
// apart from runs it does not reach.
func TestRouteTableReserveJoins(t *testing.T) {
	var tab routeTable
	tab.slot(10).primary = 1 // three runs, over maxRunGap apart
	tab.slot(100).primary = 2
	tab.slot(300).primary = 3
	steps := []struct {
		lo   NodeID
		n    int
		want [][2]NodeID // each run's [base, end)
	}{
		{11, 89, [][2]NodeID{{10, 101}, {300, 301}}}, // touches both neighbours
		{5, 3, [][2]NodeID{{5, 8}, {10, 101}, {300, 301}}},
		{8, 2, [][2]NodeID{{5, 101}, {300, 301}}},
		{20, 5, [][2]NodeID{{5, 101}, {300, 301}}}, // inside a run: no change
		{0, 0, [][2]NodeID{{5, 101}, {300, 301}}},
		{90, 250, [][2]NodeID{{5, 340}}},
	}
	for _, st := range steps {
		tab.reserve(st.lo, st.n)
		var got [][2]NodeID
		for _, r := range tab.runs {
			got = append(got, [2]NodeID{r.base, r.end()})
		}
		if !slices.Equal(got, st.want) {
			t.Fatalf("after reserve(%d, %d): runs %v, want %v", st.lo, st.n, got, st.want)
		}
	}
	for id, want := range map[NodeID]int{10: 0, 100: 1, 300: 2, 5: -1, 99: -1, 339: -1} {
		if p, _ := tab.ports(id); p != want {
			t.Errorf("id %d: port %d, want %d", id, p, want)
		}
	}
}

// TestReservedRoutesAllocateNothing pins what installShortestPaths relies
// on: once a switch has reserved the id runs of a 1024-host k=16 fat tree
// (hosts from 1, 320 switches from 1<<20), setting the primary and backup
// route of every id allocates nothing, and each run holds exactly its ids.
// Every measured run fills a switch whose table nothing has written yet.
func TestReservedRoutesAllocateNothing(t *testing.T) {
	const hostBase, switchBase NodeID = 1, 1 << 20
	const hosts, switches, runs = 1024, 320, 4
	sws := make([]*Switch, runs+1) // AllocsPerRun adds a warm-up call
	for i := range sws {
		sws[i] = NewSwitch(sim.NewEngine(), switchBase+7, "sw", DefaultSwitchConfig(16))
		sws[i].ReserveRoutes(hostBase, hosts)
		sws[i].ReserveRoutes(switchBase, switches)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		s := sws[next]
		next++
		for id := hostBase; id < hostBase+hosts; id++ {
			s.SetRoute(id, int(id)%16)
			s.SetBackupRoute(id, int(id+1)%16)
		}
		for id := switchBase; id < switchBase+switches; id++ {
			if id != s.ID() {
				s.SetRoute(id, int(id)%16)
				s.SetBackupRoute(id, int(id+1)%16)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("setting every route after ReserveRoutes took %.1f allocations per switch", allocs)
	}
	for _, s := range sws {
		var got []int
		for _, run := range s.routes.runs {
			got = append(got, len(run.ents))
		}
		if !slices.Equal(got, []int{hosts, switches}) {
			t.Fatalf("run lengths %v, want [%d %d]", got, hosts, switches)
		}
	}
}

// TestRouteTablePickRoute pins pickRoute's fallback over the table: the
// primary while its link is up, else a backup that is up (a reroute only
// when a primary exists), else the primary anyway, else no route.
func TestRouteTablePickRoute(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultSwitchConfig(2)
	s := NewSwitch(eng, 100, "sw", cfg)
	var out [2]*Link
	for i := range out {
		out[i] = NewLink(eng, fmt.Sprintf("out%d", i), cfg.Link)
		s.AttachPort(i, NewLink(eng, fmt.Sprintf("in%d", i), cfg.Link), out[i])
	}
	s.SetRoute(1, 0)
	s.SetBackupRoute(1, 1)
	s.SetRoute(2, 0)
	s.SetBackupRoute(3, 1)
	cases := []struct {
		dst      NodeID
		down     []int
		port     int
		rerouted bool
	}{
		{1, nil, 0, false},
		{1, []int{0}, 1, true},
		{1, []int{0, 1}, 0, false},
		{2, []int{0}, 0, false},
		{3, nil, 1, false},
		{3, []int{1}, -1, false},
		{4, nil, -1, false},
		{NoNode, nil, -1, false},
	}
	for _, c := range cases {
		for i, l := range out {
			l.SetDown(slices.Contains(c.down, i))
		}
		if p, r := s.pickRoute(c.dst); p != c.port || r != c.rerouted {
			t.Errorf("dst %d, ports %v down: pickRoute (%d, %v), want (%d, %v)",
				c.dst, c.down, p, r, c.port, c.rerouted)
		}
	}
}

// TestRouteTableMatchesMap checks the table against a map under random
// route sequences — ascending, descending and shuffled ids, clustered and
// sparse, negative ones included, with ReserveRoutes spans between the
// sets — and checks the run layout after each: runs sorted, apart, and no
// longer than their set and reserved ids justify.
func TestRouteTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 13))
	bases := []NodeID{-300, 0, 1000, 1 << 19, 1 << 20}
	for round := 0; round < 60; round++ {
		var ids []NodeID
		for n := 1 + r.IntN(400); len(ids) < n; {
			base := bases[r.IntN(len(bases))]
			switch r.IntN(4) {
			case 0: // sparse
				ids = append(ids, base+NodeID(r.IntN(1<<16)))
			default: // clustered, with small holes
				ids = append(ids, base+NodeID(r.IntN(200)))
			}
		}
		switch round % 3 {
		case 0:
			slices.Sort(ids)
		case 1:
			slices.Sort(ids)
			slices.Reverse(ids)
		}

		s := NewSwitch(sim.NewEngine(), NoNode, "sw", DefaultSwitchConfig(16))
		prim, back := map[NodeID]int{}, map[NodeID]int{}
		held := map[NodeID]bool{}
		for _, id := range ids {
			if r.IntN(16) == 0 {
				lo, n := bases[r.IntN(len(bases))]+NodeID(r.IntN(300)-50), r.IntN(150)
				s.ReserveRoutes(lo, n)
				for i := 0; i < n; i++ {
					held[lo+NodeID(i)] = true
				}
			}
			p := r.IntN(16)
			if r.IntN(3) == 0 {
				s.SetBackupRoute(id, p)
				back[id] = p
			} else {
				s.SetRoute(id, p)
				prim[id] = p
			}
		}

		for _, id := range ids {
			for _, q := range []NodeID{id - 1, id, id + 1, id + maxRunGap} {
				wp, wb := -1, -1
				if p, ok := prim[q]; ok {
					wp = p
				}
				if b, ok := back[q]; ok {
					wb = b
				}
				if p, b := s.Route(q), s.BackupRoute(q); p != wp || b != wb {
					t.Fatalf("round %d: id %d reads (%d, %d), want (%d, %d)", round, q, p, b, wp, wb)
				}
			}
		}
		tab := &s.routes

		for _, id := range ids {
			held[id] = true
		}
		for i, run := range tab.runs {
			if i > 0 && tab.runs[i-1].end() >= run.base {
				t.Fatalf("round %d: run %d [%d,%d) touches run %d ending at %d",
					round, i, run.base, run.end(), i-1, tab.runs[i-1].end())
			}
			justified := 0
			for id := run.base; id < run.end(); id++ {
				if held[id] {
					justified++
				}
			}
			if len(run.ents) > 2*maxRunGap*justified {
				t.Fatalf("round %d: run [%d,%d) spans %d ids for %d set or reserved",
					round, run.base, run.end(), len(run.ents), justified)
			}
		}
	}
}
