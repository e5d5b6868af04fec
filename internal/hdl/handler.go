package hdl

import (
	"fmt"

	"activesan/internal/aswitch"
	"activesan/internal/san"
	"activesan/internal/svm"
)

// Hand-written library handlers (svm/programs.go) ported to HDL. Each
// documents the predecessor it must match; port_test.go proves the emitted
// words identical on the same streams.

// SelectHDL is svm.SelectSource: count fixed-size records whose key byte is
// below a threshold. The record size is fixed at compile time (16 here,
// where the assembly took it in r6).
const SelectHDL = `
; count records with key byte < threshold (port of svm.SelectSource)
handler select {
	param threshold
	var count
	on record 16 {
		if b[0] < threshold {
			count = count + 1
		}
	}
	end {
		emit count
	}
}
`

// SumHDL is svm.SumWordsSource: the wrapping 32-bit sum of the stream's
// little-endian words. Identical on word-aligned streams; on a ragged tail
// the assembly folds in a zero-padded partial word while HDL's loop stops
// at the last whole unit.
const SumHDL = `
; sum 32-bit words (port of svm.SumWordsSource)
handler sum {
	var acc
	on word x {
		acc = acc + x
	}
	end {
		emit acc
	}
}
`

// MinMaxHDL is svm.MinMaxSource: a byte min/max scan, emitting min then max.
const MinMaxHDL = `
; byte min/max scan (port of svm.MinMaxSource)
handler minmax {
	var lo = 255
	var hi = 0
	on byte x {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	end {
		emit lo
		emit hi
	}
}
`

// MustCompile compiles a library handler, panicking on error — for the
// constant sources above, which tests validate.
func MustCompile(src string) *Compiled {
	c, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return c
}

// HandlerSpec tells the aswitch adapter how to launch a compiled program
// and where to send its output.
type HandlerSpec struct {
	// StreamBase / StreamLen locate the mapped stream.
	StreamBase int64
	StreamLen  int64
	// MemBase anchors private memory in the switch's address space.
	MemBase int64
	// Params binds launch parameters by name.
	Params map[string]uint32
	// Flow and Addr route the result message back to the sender.
	Flow int64
	Addr int64
}

// Handler wraps a compiled program as a switch handler: release the
// activation arguments, run the program through CtxEnv (cycles charge the
// switch CPU, stream loads stall on the ATB), then send every emitted word
// back to the activating host in one completion message on the spec's flow.
func (c *Compiled) Handler(spec HandlerSpec) aswitch.HandlerFunc {
	return func(x *aswitch.Ctx) {
		x.ReleaseArgs()
		init, err := c.InitRegs(spec.StreamBase, spec.StreamLen, spec.Params, nil)
		if err != nil {
			panic(fmt.Sprintf("hdl: handler %s: %v", c.AST.Name, err))
		}
		_, out, err := svm.RunOnCtx(x, c.Prog, spec.StreamBase, spec.MemBase, init)
		if err != nil {
			panic(fmt.Sprintf("hdl: handler %s: %v", c.AST.Name, err))
		}
		x.Send(aswitch.SendSpec{
			Dst: x.Src(), Type: san.Control, Addr: spec.Addr,
			Size: int64(8 + 4*len(out)), Flow: spec.Flow, Payload: out,
		})
	}
}
