// Quickstart: build the smallest interesting active-switch system — one
// host, one storage node, one active switch — register a handler that
// counts the bytes of a file as it streams through the switch, and compare
// it with reading the file to the host.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"activesan"
)

const (
	handlerID  = 1
	streamBase = 0x0010_0000
	resultFlow = 0x4242
	fileSize   = 1 << 20 // 1 MB
)

func main() {
	fmt.Println("== active case: count bytes on the switch ==")
	activeTime, hostTraffic := runActive()
	fmt.Printf("time %v, host traffic %d bytes\n\n", activeTime, hostTraffic)

	fmt.Println("== normal case: read the file to the host ==")
	normalTime, normalTraffic := runNormal()
	fmt.Printf("time %v, host traffic %d bytes\n\n", normalTime, normalTraffic)

	fmt.Printf("traffic saved by the active switch: %.1f%%\n",
		100*(1-float64(hostTraffic)/float64(normalTraffic)))
}

func runActive() (activesan.Time, int64) {
	eng := activesan.NewEngine()
	c := activesan.NewIOCluster(eng, activesan.DefaultIOClusterConfig())
	c.Store(0).AddFile(&activesan.File{Name: "data", Size: fileSize})

	sw := c.Switch(0)
	sw.Register(handlerID, "bytecount", func(x *activesan.HandlerCtx) {
		x.ReleaseArgs()
		var counted int64
		cursor := int64(streamBase)
		for counted < fileSize {
			b := x.WaitStream(cursor) // blocks until the next packet maps in
			x.ReadAll(b)              // stalls on the per-line valid bits
			x.Compute(b.Size() / 8)   // one instruction per 8 bytes counted
			counted += b.Size()
			cursor = b.End()
			x.Deallocate(cursor) // the paper's Deallocate_Buffer
		}
		// Report the count back to the host.
		x.Send(activesan.SendSpec{
			Dst: x.Src(), Type: activesan.DataPacket, Addr: 0x100,
			Size: 8, Flow: resultFlow, Payload: counted,
		})
	})
	c.Start()

	var end activesan.Time
	eng.Spawn("app", func(p *activesan.Proc) {
		h := c.Host(0)
		// Invoke the handler, then aim the disk stream at the switch.
		h.SendMessage(p, &activesan.Message{
			Hdr:  activesan.Header{Dst: sw.ID(), Type: activesan.ActiveMsgPacket, HandlerID: handlerID},
			Size: 32,
		}, 0)
		tok := h.IssueReadTo(p, c.Store(0).ID(), "data", 0, fileSize,
			sw.ID(), streamBase, 0x9999)
		h.WaitRead(p, tok)
		comp := h.RecvFlow(p, sw.ID(), resultFlow)
		fmt.Printf("switch counted %d bytes\n", comp.Payloads[0].(int64))
		end = p.Now()
	})
	eng.Run()
	defer c.Shutdown()
	return end, c.Host(0).Traffic()
}

func runNormal() (activesan.Time, int64) {
	eng := activesan.NewEngine()
	c := activesan.NewIOCluster(eng, activesan.DefaultIOClusterConfig())
	c.Store(0).AddFile(&activesan.File{Name: "data", Size: fileSize})
	c.Start()

	var end activesan.Time
	eng.Spawn("app", func(p *activesan.Proc) {
		h := c.Host(0)
		buf := h.Space().Alloc(64*1024, 4096)
		var counted int64
		for off := int64(0); off < fileSize; off += 64 * 1024 {
			tok := h.IssueRead(p, c.Store(0).ID(), "data", off, 64*1024, buf)
			h.WaitRead(p, tok)
			h.CPU().Compute(p, 64*1024/8)
			counted += 64 * 1024
		}
		fmt.Printf("host counted %d bytes\n", counted)
		end = p.Now()
	})
	eng.Run()
	defer c.Shutdown()
	return end, c.Host(0).Traffic()
}
