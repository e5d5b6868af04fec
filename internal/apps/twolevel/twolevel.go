// Package twolevel builds the system the paper's related-work section
// sketches but never evaluates: "If active I/O devices do become prevalent,
// they can also be used within our active switch system, creating a
// two-level active I/O system." A range selection runs four ways:
//
//	host      — the table streams to the host, which evaluates the predicate
//	switch    — the paper's active case: the switch filters, the host counts
//	disk      — an active disk (200 MHz embedded core) filters at the source
//	two-level — the disk filters, the switch aggregates, the host receives
//	            a single count: level one removes 75% of the bytes before
//	            they reach the fabric, level two removes the rest
package twolevel

import (
	"fmt"

	"activesan/internal/apps"
	"activesan/internal/aswitch"
	"activesan/internal/cluster"
	"activesan/internal/iodev"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

// Mode selects where the predicate runs.
type Mode int

// The four placements.
const (
	OnHost Mode = iota
	OnSwitch
	OnDisk
	TwoLevel
)

func (m Mode) String() string {
	switch m {
	case OnSwitch:
		return "switch"
	case OnDisk:
		return "disk"
	case TwoLevel:
		return "two-level"
	default:
		return "host"
	}
}

// Params sizes the workload.
type Params struct {
	TableBytes     int64
	RecordSize     int64
	ChunkSize      int64
	SelectPermille int64

	HostPredInstr    int64
	SwitchPredCycles int64
	DiskPredCycles   int64 // per byte on the 200 MHz disk core

	// Env observes each placement's cluster: trace sink and strict routes
	// only (no fault plan or telemetry).
	Env apps.Env
}

// DefaultParams returns a 32 MB table (the study is about placement, not
// scale).
func DefaultParams() Params {
	return Params{
		TableBytes:       32 << 20,
		RecordSize:       128,
		ChunkSize:        1 << 20,
		SelectPermille:   250,
		HostPredInstr:    12,
		SwitchPredCycles: 12,
		DiskPredCycles:   2,
	}
}

// Key derives record i's field value.
func Key(i int64) int64 { return int64(apps.Mix64(uint64(i)|7<<40) % 1000) }

// Matches is the predicate.
func (prm Params) Matches(i int64) bool { return Key(i) < prm.SelectPermille }

// ExpectedMatches is the oracle.
func (prm Params) ExpectedMatches() int64 {
	n := prm.TableBytes / prm.RecordSize
	var c int64
	for i := int64(0); i < n; i++ {
		if prm.Matches(i) {
			c++
		}
	}
	return c
}

// chunkCount carries a filtered chunk's surviving record count.
type chunkCount struct{ N int64 }

const (
	handlerID  = 17
	filterID   = 1
	streamBase = 0x0010_0000
	countFlow  = 0x7200
)

// Run executes the selection with the predicate at the given placement and
// returns the run metrics (Extra: "matches").
func Run(mode Mode, prm Params) stats.Run {
	eng := sim.NewEngine()
	ccfg := cluster.DefaultIOClusterConfig()
	c := cluster.NewIOCluster(eng, ccfg)
	prm.Env.Observe(c)
	c.Store(0).AddFile(&iodev.File{Name: "table", Size: prm.TableBytes})
	sw := c.Switch(0)
	store := c.Store(0)

	// Level one: the active disk's pushdown filter.
	if mode == OnDisk || mode == TwoLevel {
		store.RegisterFilter(filterID, &iodev.Filter{
			Name:          "range-select",
			CyclesPerByte: prm.DiskPredCycles,
			Fn: func(off, n int64, _ any) (int64, any) {
				lo := (off + prm.RecordSize - 1) / prm.RecordSize
				hi := (off + n + prm.RecordSize - 1) / prm.RecordSize
				var kept int64
				for i := lo; i < hi; i++ {
					if prm.Matches(i) {
						kept++
					}
				}
				return kept * prm.RecordSize, chunkCount{N: kept}
			},
		})
	}

	// Level two: switch-side predicate or aggregation.
	switch mode {
	case OnSwitch:
		sw.Register(handlerID, "select", func(x *aswitch.Ctx) {
			x.ReleaseArgs()
			var matched int64
			cursor := int64(streamBase)
			end := cursor + prm.TableBytes
			for cursor < end {
				b := x.WaitStream(cursor)
				recBase := (cursor - streamBase) / prm.RecordSize
				n := b.Size() / prm.RecordSize
				for r := int64(0); r < n; r++ {
					x.ReadAt(b, r*prm.RecordSize, 8)
					x.Compute(prm.SwitchPredCycles)
					if prm.Matches(recBase + r) {
						matched++
					}
				}
				cursor = b.End()
				x.Deallocate(cursor)
			}
			x.Send(aswitch.SendSpec{
				Dst: x.Src(), Type: san.Control, Addr: 0x100,
				Size: 8, Flow: countFlow, Payload: matched,
			})
		})
	case TwoLevel:
		sw.Register(handlerID, "aggregate", func(x *aswitch.Ctx) {
			x.ReleaseArgs()
			var matched int64
			cursor := int64(streamBase)
			for {
				b := x.WaitStream(cursor)
				if cc, ok := x.ReadAll(b).(chunkCount); ok {
					x.Compute(cc.N * 2)
					matched += cc.N
				}
				last := b.Last()
				cursor = b.End()
				x.Deallocate(cursor)
				if last {
					break
				}
			}
			x.Send(aswitch.SendSpec{
				Dst: x.Src(), Type: san.Control, Addr: 0x100,
				Size: 8, Flow: countFlow, Payload: matched,
			})
		})
	}
	c.Start()

	var matched int64
	var end sim.Time
	eng.Spawn("app", func(p *sim.Proc) {
		h := c.Host(0)
		defer func() { end = p.Now() }()
		switch mode {
		case OnHost:
			buf := h.Space().Alloc(prm.ChunkSize, 4096)
			apps.StreamChunks(p, h, store.ID(), "table", prm.TableBytes, prm.ChunkSize, buf, 2,
				func(off, n int64, _ []any) {
					recBase := off / prm.RecordSize
					cnt := n / prm.RecordSize
					for r := int64(0); r < cnt; r++ {
						h.CPU().Load(p, buf+(r%(prm.ChunkSize/prm.RecordSize))*prm.RecordSize)
						h.CPU().Compute(p, prm.HostPredInstr)
						if prm.Matches(recBase + r) {
							matched++
						}
					}
				})

		case OnDisk:
			// Filtered records stream straight to the host; count them
			// from the chunk summaries.
			tok := h.IssueReadReq(p, store.ID(), iodev.ReadReq{
				File: "table", Len: prm.TableBytes,
				Dst: h.ID(), DstAddr: 0x0200_0000, Type: san.Data,
				Flow: 0x6400, FilterID: filterID,
			})
			comp := h.RecvFlow(p, store.ID(), 0x6400)
			for _, pl := range comp.Payloads {
				if cc, ok := pl.(chunkCount); ok {
					h.CPU().Compute(p, 4)
					matched += cc.N
				}
			}
			h.WaitRead(p, tok)

		case OnSwitch, TwoLevel:
			h.SendMessage(p, &san.Message{
				Hdr:  san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: handlerID, Addr: 0},
				Size: 32,
			}, 0)
			req := iodev.ReadReq{
				File: "table", Len: prm.TableBytes,
				Dst: sw.ID(), DstAddr: streamBase, Type: san.Data, Flow: 0x6400,
			}
			if mode == TwoLevel {
				req.FilterID = filterID
			}
			tok := h.IssueReadReq(p, store.ID(), req)
			h.WaitRead(p, tok)
			comp := h.RecvFlow(p, sw.ID(), countFlow)
			matched = comp.Payloads[0].(int64)
		}
	})
	eng.Run()
	run := apps.Collect(apps.ActivePref, c, end, map[string]any{"matches": matched})
	run.Config = mode.String()
	c.Shutdown()
	return run
}

// RunAll compares the four placements, through prm.Env.Runs.
func RunAll(prm Params) *stats.Result {
	res := &stats.Result{
		ID:    "twolevel",
		Title: "Two-level active I/O: predicate placement for a range select",
	}
	modes := []Mode{OnHost, OnSwitch, OnDisk, TwoLevel}
	res.Runs = make([]stats.Run, len(modes))
	prm.Env.Runs(len(modes),
		func(i int) string { return "twolevel " + modes[i].String() },
		func(i int) { res.Runs[i] = Run(modes[i], prm) })
	res.Notes = append(res.Notes, fmt.Sprintf(
		"host traffic: host=%d switch=%d disk=%d two-level=%d bytes",
		res.Runs[0].Traffic, res.Runs[1].Traffic, res.Runs[2].Traffic, res.Runs[3].Traffic))
	return res
}
