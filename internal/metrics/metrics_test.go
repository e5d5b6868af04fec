package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"activesan/internal/cluster"
	"activesan/internal/iodev"
	"activesan/internal/sim"
)

func TestSnapshotBasics(t *testing.T) {
	s := NewSnapshot()
	s.Set("b/util", 0.5)
	s.SetInt("a/count", 3)
	s.Add("a/count", 2)
	if got := s.Get("a/count"); got != 5 {
		t.Errorf("Get(a/count) = %g, want 5", got)
	}
	if got := s.Get("missing"); got != 0 {
		t.Errorf("Get(missing) = %g, want 0", got)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a/count" || names[1] != "b/util" {
		t.Errorf("Names() = %v, want sorted [a/count b/util]", names)
	}
	want := "a/count = 5\nb/util = 0.5\n"
	if got := s.Format(); got != want {
		t.Errorf("Format() = %q, want %q", got, want)
	}
}

func TestSetSeriesSkipsEmpty(t *testing.T) {
	s := NewSnapshot()
	s.SetSeries("empty", nil, nil)
	if s.Series != nil {
		t.Errorf("empty series stored: %v", s.Series)
	}
	s.SetSeries("tl", []float64{0, 1}, []float64{2, 3})
	if len(s.Series["tl"].X) != 2 {
		t.Errorf("series not stored: %v", s.Series)
	}
}

func TestSummary(t *testing.T) {
	s := NewSnapshot()
	s.Set("sw0/port1/out/util", 0.25)
	s.Set("sw0/port2/out/util", 0.75)
	s.Set("h0/cpu/util", 0.99) // not a port: must not win the link-util line
	s.SetInt("h0/l2/accesses", 1000)
	s.SetInt("h0/l2/misses", 50)
	s.SetInt("sw0/cpu0/atb/hits", 90)
	s.SetInt("sw0/cpu0/atb/misses", 10)
	s.Set("h0/mem/bus_util", 0.4)
	s.SetInt("sw0/max_queue_depth", 7)

	sum := strings.Join(s.Summary(), "; ")
	for _, want := range []string{
		"link util max 75.0% (sw0/port2/out)",
		"L2 miss 5.00%",
		"ATB hit 90.00%",
		"mem bus util max 40.0% (h0)",
		"switch queue max 7 (sw0)",
	} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary missing %q in %q", want, sum)
		}
	}
}

func TestSummaryEmpty(t *testing.T) {
	if sum := NewSnapshot().Summary(); len(sum) != 0 {
		t.Errorf("empty snapshot Summary = %v, want none", sum)
	}
}

func TestDiff(t *testing.T) {
	before := NewSnapshot()
	after := NewSnapshot()
	before.Set("small", 100)
	after.Set("small", 100.5) // +0.5%: under threshold
	before.Set("big", 100)
	after.Set("big", 150) // +50%
	before.Set("bigger", 100)
	after.Set("bigger", 30) // -70%
	before.Set("zero", 0)
	after.Set("zero", 10) // zero baseline: skipped
	before.Set("gone", 5) // one-sided: skipped

	drifts := Diff(before, after, 1.0)
	if len(drifts) != 2 {
		t.Fatalf("Diff returned %d drifts (%v), want 2", len(drifts), drifts)
	}
	if drifts[0].Name != "bigger" || drifts[1].Name != "big" {
		t.Errorf("drift order = [%s %s], want largest |Δ%%| first [bigger big]",
			drifts[0].Name, drifts[1].Name)
	}
	if drifts[0].DeltaPct != -70 {
		t.Errorf("bigger DeltaPct = %g, want -70", drifts[0].DeltaPct)
	}
	if got := drifts[1].String(); !strings.Contains(got, "big 100 -> 150 (+50.00%)") {
		t.Errorf("Drift.String() = %q", got)
	}
}

func TestDiffNilSnapshots(t *testing.T) {
	s := NewSnapshot()
	s.Set("x", 1)
	if d := Diff(nil, s, 0); d != nil {
		t.Errorf("Diff(nil, s) = %v, want nil", d)
	}
	if d := Diff(s, nil, 0); d != nil {
		t.Errorf("Diff(s, nil) = %v, want nil", d)
	}
}

// chromeDoc mirrors the trace-event JSON for decoding in tests.
type chromeDoc struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"`
		TID   int            `json:"tid"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestChromeTraceWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewChromeTraceWriter(&buf, 0)
	sink := w.Sink()
	sink(sim.TraceEvent{At: 2 * sim.Microsecond, Cat: "packet", Name: "send", Comp: "sw0", Detail: "pkt 1"})
	sink(sim.TraceEvent{At: 3 * sim.Microsecond, Cat: "disk", Name: "read", Comp: "d0", Detail: "blk 7"})
	sink(sim.TraceEvent{At: 4 * sim.Microsecond, Cat: "packet", Name: "recv", Comp: "sw0", Detail: "pkt 1"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Events() != 3 {
		t.Errorf("Events() = %d, want 3", w.Events())
	}

	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	// 3 instants + 2 thread_name metadata records.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("traceEvents count = %d, want 5", len(doc.TraceEvents))
	}
	meta, instants := 0, 0
	tids := make(map[string]int)
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			meta++
			tids[ev.Args["name"].(string)] = ev.TID
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %q", ev.Phase)
		}
	}
	if meta != 2 || instants != 3 {
		t.Errorf("meta=%d instants=%d, want 2 and 3", meta, instants)
	}
	if tids["sw0"] == 0 || tids["d0"] == 0 || tids["sw0"] == tids["d0"] {
		t.Errorf("thread ids not distinct per component: %v", tids)
	}
	first := doc.TraceEvents[1] // after sw0's metadata record
	if first.Name != "send" || first.Cat != "packet" || first.TS != 2 {
		t.Errorf("first instant = %+v, want send/packet at ts=2µs", first)
	}
	if first.Args["detail"] != "pkt 1" {
		t.Errorf("detail = %v, want pkt 1", first.Args["detail"])
	}
}

func TestChromeTraceWriterLimit(t *testing.T) {
	var buf bytes.Buffer
	w := NewChromeTraceWriter(&buf, 2)
	sink := w.Sink()
	for i := 0; i < 10; i++ {
		sink(sim.TraceEvent{At: sim.Time(i), Cat: "c", Name: "n", Comp: "x"})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Events() != 2 {
		t.Errorf("Events() = %d, want limit 2", w.Events())
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("capped output is not valid JSON: %v", err)
	}
}

func TestChromeTraceWriterCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	w := NewChromeTraceWriter(&buf, 0)
	w.Sink()(sim.TraceEvent{Cat: "c", Name: "n"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Errorf("second Close wrote %d more bytes", buf.Len()-n)
	}
	// Events after Close are dropped, not appended to a closed document.
	w.Sink()(sim.TraceEvent{Cat: "c", Name: "late"})
	if buf.Len() != n {
		t.Errorf("event after Close wrote %d bytes", buf.Len()-n)
	}
}

// TestCollectSmoke runs a real single-host read workload and checks the
// snapshot covers every layer of the tree with sane values.
func TestCollectSmoke(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.NewIOCluster(eng, cluster.DefaultIOClusterConfig())
	const size = 64 << 10
	c.Store(0).AddFile(&iodev.File{Name: "f", Size: size})
	c.Start()
	tl := StartTimelines(c, 10*sim.Microsecond)
	var end sim.Time
	eng.Spawn("app", func(p *sim.Proc) {
		h := c.Host(0)
		tok := h.IssueRead(p, cluster.StoreIDBase, "f", 0, size, 0)
		h.WaitRead(p, tok)
		end = p.Now()
		tl.Stop()
	})
	eng.Run()
	s := Collect(c, end)
	tl.Into(s)

	if got := s.Get("cluster/elapsed_s"); got != end.Seconds() {
		t.Errorf("cluster/elapsed_s = %g, want %g", got, end.Seconds())
	}
	for _, name := range []string{
		"h0/nic/bytes_in", "h0/io/requests", "h0/cpu/busy_ps",
		"d0/disk/reads", "d0/disk/bytes_read", "sw0/routed",
	} {
		if s.Get(name) <= 0 {
			t.Errorf("%s = %g, want > 0", name, s.Get(name))
		}
	}
	if got := s.Get("d0/disk/bytes_read"); got != size {
		t.Errorf("d0/disk/bytes_read = %g, want %d", got, size)
	}
	// Port 0 wires host 0; its downlink carried the payload.
	if u := s.Get("sw0/port0/out/util"); u <= 0 || u > 1 {
		t.Errorf("sw0/port0/out/util = %g, want in (0, 1]", u)
	}
	// Structural keys exist even when the counter is zero.
	for _, name := range []string{
		"h0/l2/accesses", "h0/mem/accesses", "sw0/cpu0/atb/hits",
		"sw0/max_queue_depth", "h0/tlb/walks",
	} {
		if _, ok := s.Values[name]; !ok {
			t.Errorf("missing metric %s", name)
		}
	}
	for _, name := range []string{"timeline/link_util", "timeline/queue_depth", "timeline/io_mbps"} {
		series, ok := s.Series[name]
		if !ok || len(series.X) == 0 {
			t.Errorf("missing timeline %s", name)
			continue
		}
		if len(series.X) != len(series.Y) {
			t.Errorf("%s: len(X)=%d len(Y)=%d", name, len(series.X), len(series.Y))
		}
	}
	// JSON round-trip stays deterministic: two marshals are byte-identical.
	d1, err1 := json.Marshal(s)
	d2, err2 := json.Marshal(s)
	if err1 != nil || err2 != nil || !bytes.Equal(d1, d2) {
		t.Errorf("snapshot marshal not deterministic (%v, %v)", err1, err2)
	}
}

// Add accumulates v into name.
func (s *Snapshot) Add(name string, v float64) { s.Values[name] += v }

// Merge folds o into s: values accumulate, series copy over (last writer
// wins on a name collision). Merging a nil or empty snapshot — e.g. a
// component tree that recorded nothing — is a no-op.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	for name, v := range o.Values {
		s.Values[name] += v
	}
	for name, sr := range o.Series {
		s.SetSeries(name, sr.X, sr.Y)
	}
}

// Format renders the snapshot as sorted "name = value" lines.
func (s *Snapshot) Format() string {
	var b strings.Builder
	for _, n := range s.Names() {
		fmt.Fprintf(&b, "%s = %g\n", n, s.Values[n])
	}
	return b.String()
}
