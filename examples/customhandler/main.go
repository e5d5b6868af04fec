// Customhandler: write your own switch handler with the public API — a
// word-count filter in the spirit of the paper's Grep. The handler scans
// the stream inside the switch, counts words and line lengths, and ships
// only a small summary to the host; the host never sees the file.
//
//	go run ./examples/customhandler
package main

import (
	"bytes"
	"fmt"

	"activesan"
)

const (
	handlerID  = 2
	streamBase = 0x0010_0000
	resultFlow = 0x5151
)

// summary is the handler's output: what a "wc"-style active filter returns
// instead of the whole file.
type summary struct {
	Words, Lines, Longest int64
}

// countWords is shared by the handler and the oracle.
func countWords(data []byte, inWord *bool, cur *int64, s *summary) {
	for _, b := range data {
		switch {
		case b == '\n':
			s.Lines++
			if *cur > s.Longest {
				s.Longest = *cur
			}
			*cur = 0
			if *inWord {
				s.Words++
				*inWord = false
			}
		case b == ' ':
			*cur++
			if *inWord {
				s.Words++
				*inWord = false
			}
		default:
			*cur++
			*inWord = true
		}
	}
}

func main() {
	// A deterministic corpus.
	var corpus bytes.Buffer
	for i := 0; corpus.Len() < 512*1024; i++ {
		fmt.Fprintf(&corpus, "line %d of the corpus with a handful of words\n", i)
	}
	data := corpus.Bytes()
	size := int64(len(data))

	// Oracle.
	var want summary
	inWord := false
	var cur int64
	countWords(data, &inWord, &cur, &want)

	eng := activesan.NewEngine()
	c := activesan.NewIOCluster(eng, activesan.DefaultIOClusterConfig())
	c.Store(0).AddFile(&activesan.File{Name: "corpus", Size: size, Data: data})

	sw := c.Switch(0)
	sw.Register(handlerID, "wordcount", func(x *activesan.HandlerCtx) {
		x.ReleaseArgs()
		var s summary
		inWord := false
		var cur int64
		cursor := int64(streamBase)
		end := cursor + size
		for cursor < end {
			b := x.WaitStream(cursor)
			payload, _ := x.ReadAll(b).([]byte)
			x.Compute(2 * b.Size()) // ~2 switch instructions per byte
			countWords(payload, &inWord, &cur, &s)
			cursor = b.End()
			x.Deallocate(cursor)
		}
		x.Send(activesan.SendSpec{
			Dst: x.Src(), Type: activesan.DataPacket, Addr: 0x100,
			Size: 24, Flow: resultFlow, Payload: s,
		})
	})
	c.Start()

	eng.Spawn("app", func(p *activesan.Proc) {
		h := c.Host(0)
		h.SendMessage(p, &activesan.Message{
			Hdr:  activesan.Header{Dst: sw.ID(), Type: activesan.ActiveMsgPacket, HandlerID: handlerID},
			Size: 32,
		}, 0)
		tok := h.IssueReadTo(p, c.Store(0).ID(), "corpus", 0, size,
			sw.ID(), streamBase, 0x8888)
		h.WaitRead(p, tok)
		comp := h.RecvFlow(p, sw.ID(), resultFlow)
		got := comp.Payloads[0].(summary)
		fmt.Printf("switch reports: %d words, %d lines, longest line %d\n",
			got.Words, got.Lines, got.Longest)
		fmt.Printf("oracle reports: %d words, %d lines, longest line %d\n",
			want.Words, want.Lines, want.Longest)
		if got == want {
			fmt.Println("MATCH — the in-switch word count is exact")
		} else {
			fmt.Println("MISMATCH")
		}
		fmt.Printf("elapsed %v, host traffic %d bytes (file was %d)\n",
			p.Now(), h.Traffic(), size)
	})
	eng.Run()
	c.Shutdown()
}
