// Asmhandler: write a switch handler in the embedded processor's assembly
// and execute it instruction-by-instruction on the simulated switch CPU —
// the paper's "single-issue MIPS-like core with extensions" made concrete.
// The program below scans 16-byte records streaming off the disk, counts
// those whose first byte is under a threshold, and emits the count.
//
//	go run ./examples/asmhandler
package main

import (
	"fmt"

	"activesan"
)

// r1=cursor r2=end r3=count r5=threshold r6=record size
const source = `
; select: count records whose key byte < threshold
loop:
	bge  r1, r2, done
	lb   r4, 0(r1)      ; key byte, via the ATB (stalls on valid bits)
	blt  r4, r5, keep
	j    next
keep:
	addi r3, r3, 1
next:
	add  r1, r1, r6
	dealloc r1          ; Deallocate_Buffer(cursor)
	j    loop
done:
	emit r3             ; hand the count to the send unit
	stop
`

const (
	recSize    = 16
	total      = 256 * 1024
	streamBase = 0x0010_0000
	threshold  = 64
)

func main() {
	prog, err := activesan.Assemble(source)
	if err != nil {
		panic(err)
	}
	fmt.Printf("assembled %d instructions\n", len(prog.Instrs))

	// Workload: deterministic records; compute the oracle.
	data := make([]byte, total)
	want := 0
	for i := 0; i < total/recSize; i++ {
		data[i*recSize] = byte((i * 131) % 251)
		if data[i*recSize] < threshold {
			want++
		}
	}

	eng := activesan.NewEngine()
	c := activesan.NewIOCluster(eng, activesan.DefaultIOClusterConfig())
	c.Store(0).AddFile(&activesan.File{Name: "records", Size: total, Data: data})
	sw := c.Switch(0)

	var executed int64
	sw.Register(1, "asm-select", func(x *activesan.HandlerCtx) {
		x.ReleaseArgs()
		res, out, err := activesan.RunProgram(x, prog, streamBase, 1<<16, map[uint8]uint32{
			1: streamBase,
			2: streamBase + total,
			5: threshold,
			6: recSize,
		})
		if err != nil {
			panic(err)
		}
		executed = res.Executed
		x.Send(activesan.SendSpec{
			Dst: x.Src(), Type: activesan.ControlPacket, Addr: 0x100,
			Size: 8, Flow: 99, Payload: out[0],
		})
	})
	c.Start()

	eng.Spawn("app", func(p *activesan.Proc) {
		h := c.Host(0)
		h.SendMessage(p, &activesan.Message{
			Hdr:  activesan.Header{Dst: sw.ID(), Type: activesan.ActiveMsgPacket, HandlerID: 1},
			Size: 32,
		}, 0)
		tok := h.IssueReadTo(p, c.Store(0).ID(), "records", 0, total,
			sw.ID(), streamBase, 7)
		h.WaitRead(p, tok)
		comp := h.RecvFlow(p, sw.ID(), 99)
		got := comp.Payloads[0].(uint32)
		fmt.Printf("assembly handler counted %d matching records (oracle %d)\n", got, want)
		if int(got) == want {
			fmt.Println("MATCH")
		} else {
			fmt.Println("MISMATCH")
		}
		fmt.Printf("executed %d instructions on the 500 MHz switch CPU in %v simulated time\n",
			executed, p.Now())
	})
	eng.Run()
	c.Shutdown()
}
