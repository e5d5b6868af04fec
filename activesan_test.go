package activesan_test

import (
	"strings"
	"testing"

	"activesan"
)

func TestExperimentsListComplete(t *testing.T) {
	exps := activesan.Experiments()
	if len(exps) != 17 {
		t.Fatalf("experiments = %d, want 17 (2 tables + 9 figure entries + 6 extensions)", len(exps))
	}
	for _, e := range exps {
		// Each entry's run function is checked inside internal/exp
		// (TestEveryEntryHasRunner): Run is a method here.
		if e.ID == "" || e.Paper == "" || e.Title == "" {
			t.Fatalf("incomplete experiment entry: %+v", e)
		}
	}
}

func TestRunExperimentUnknownID(t *testing.T) {
	if _, err := activesan.RunExperiment("fig42", activesan.DefaultConfig(1)); err == nil {
		t.Fatal("unknown experiment accepted")
	} else if !strings.Contains(err.Error(), "fig42") {
		t.Fatalf("error does not name the id: %v", err)
	}
}

func TestRunExperimentTable2(t *testing.T) {
	res, err := activesan.RunExperiment("table2", activesan.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Notes, "\n")
	if !strings.Contains(joined, "correct=true") {
		t.Fatalf("table2 did not verify:\n%s", joined)
	}
	if strings.Contains(joined, "correct=false") {
		t.Fatalf("table2 recorded an incorrect reduction:\n%s", joined)
	}
}

func TestPublicAPIBuildsACluster(t *testing.T) {
	// The facade must be sufficient to build and drive a system — the same
	// flow as examples/quickstart, asserted.
	eng := activesan.NewEngine()
	c := activesan.NewIOCluster(eng, activesan.DefaultIOClusterConfig())
	const size = 128 * 1024
	c.Store(0).AddFile(&activesan.File{Name: "data", Size: size})
	sw := c.Switch(0)
	var counted int64
	sw.Register(1, "count", func(x *activesan.HandlerCtx) {
		x.ReleaseArgs()
		cursor := int64(0x100000)
		for counted < size {
			b := x.WaitStream(cursor)
			x.ReadAll(b)
			counted += b.Size()
			cursor = b.End()
			x.Deallocate(cursor)
		}
		x.Send(activesan.SendSpec{Dst: x.Src(), Type: activesan.DataPacket,
			Addr: 0x100, Size: 8, Flow: 42})
	})
	c.Start()
	finished := false
	eng.Spawn("app", func(p *activesan.Proc) {
		h := c.Host(0)
		h.SendMessage(p, &activesan.Message{
			Hdr:  activesan.Header{Dst: sw.ID(), Type: activesan.ActiveMsgPacket, HandlerID: 1},
			Size: 32,
		}, 0)
		tok := h.IssueReadTo(p, c.Store(0).ID(), "data", 0, size,
			sw.ID(), 0x100000, 7)
		h.WaitRead(p, tok)
		h.RecvFlow(p, sw.ID(), 42)
		finished = true
	})
	eng.Run()
	defer c.Shutdown()
	if !finished || counted != size {
		t.Fatalf("finished=%v counted=%d", finished, counted)
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Two identical runs of a full benchmark must agree to the picosecond
	// — the engine is deterministic by construction, and any map-iteration
	// order leaking into timing would break this.
	run := func() (activesan.Time, int64) {
		res, err := activesan.RunExperiment("fig9", activesan.DefaultConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		r, _ := res.Run("active+pref")
		return r.Time, r.Traffic
	}
	t1, tr1 := run()
	t2, tr2 := run()
	if t1 != t2 || tr1 != tr2 {
		t.Fatalf("replay diverged: %v/%d vs %v/%d", t1, tr1, t2, tr2)
	}
}

func TestShapesFacade(t *testing.T) {
	res, err := activesan.RunExperiment("fig9", activesan.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	shapes := activesan.Shapes(res)
	if len(shapes) == 0 {
		t.Fatal("no shapes for fig9")
	}
}

func TestRenderingFacades(t *testing.T) {
	res, err := activesan.RunExperiment("table2", activesan.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if ascii := activesan.RenderASCII(res); !strings.Contains(ascii, "table2") {
		t.Fatal("ASCII rendering lost the result id")
	}
	svg := activesan.RenderSVG(res)
	if !strings.Contains(string(svg), "<svg") {
		t.Fatal("SVG rendering is not SVG")
	}
	md := activesan.MarkdownReport("t", 1, []*activesan.Result{res})
	if !strings.Contains(md, "## table2") {
		t.Fatal("markdown report lost the result")
	}
	js, err := activesan.ResultJSON([]*activesan.Result{res})
	if err != nil || !strings.Contains(string(js), "table2") {
		t.Fatalf("JSON export failed: %v", err)
	}
}
