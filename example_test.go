package activesan_test

import (
	"fmt"

	"activesan"
)

// Example builds the smallest active-switch system: one host, one disk,
// one switch running a byte-counting handler.
func Example() {
	eng := activesan.NewEngine()
	c := activesan.NewIOCluster(eng, activesan.DefaultIOClusterConfig())
	c.Store(0).AddFile(&activesan.File{Name: "data", Size: 64 * 1024})

	sw := c.Switch(0)
	sw.Register(1, "bytecount", func(x *activesan.HandlerCtx) {
		x.ReleaseArgs()
		var counted int64
		cursor := int64(0x100000)
		for counted < 64*1024 {
			b := x.WaitStream(cursor)
			x.ReadAll(b)
			counted += b.Size()
			cursor = b.End()
			x.Deallocate(cursor)
		}
		x.Send(activesan.SendSpec{
			Dst: x.Src(), Type: activesan.ControlPacket,
			Addr: 0x100, Size: 8, Flow: 42, Payload: counted,
		})
	})
	c.Start()

	eng.Spawn("app", func(p *activesan.Proc) {
		h := c.Host(0)
		h.SendMessage(p, &activesan.Message{
			Hdr:  activesan.Header{Dst: sw.ID(), Type: activesan.ActiveMsgPacket, HandlerID: 1},
			Size: 32,
		}, 0)
		tok := h.IssueReadTo(p, c.Store(0).ID(), "data", 0, 64*1024,
			sw.ID(), 0x100000, 7)
		h.WaitRead(p, tok)
		comp := h.RecvFlow(p, sw.ID(), 42)
		fmt.Printf("switch counted %d bytes; host saw %d bytes of data\n",
			comp.Payloads[0].(int64), h.Traffic()-8-64-32)
	})
	eng.Run()
	c.Shutdown()
	// Output: switch counted 65536 bytes; host saw 0 bytes of data
}

// ExampleRunExperiment regenerates one of the paper's artifacts.
func ExampleRunExperiment() {
	res, err := activesan.RunExperiment("table2", activesan.DefaultConfig(1))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.ID, "notes:", len(res.Notes))
	// Output: table2 notes: 3
}

// ExampleAssemble runs a handler written in switch assembly outside any
// simulation via the toolchain in cmd/swasm; inside a handler, use
// RunProgram instead.
func ExampleAssemble() {
	prog, err := activesan.Assemble(`
		li   r1, 6
		li   r2, 7
		mul  r3, r1, r2
		emit r3
		stop
	`)
	if err != nil {
		panic(err)
	}
	fmt.Println("instructions:", len(prog.Instrs))
	// Output: instructions: 5
}
