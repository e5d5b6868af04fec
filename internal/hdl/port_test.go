package hdl

import (
	"reflect"
	"testing"

	"activesan/internal/svm"
)

// The library handlers were first written in assembly. These tests keep the
// hand-written programs as reference oracles: the compiled HDL must emit the
// same words on the same streams. The assembly lives only here.

// selectAsm counts fixed-size records whose first (key) byte is below a
// threshold. In: r1=stream cursor, r2=stream end, r5=threshold, r6=record
// size. Out: emits the match count.
const selectAsm = `
; count records with key byte < threshold
loop:
	bge  r1, r2, done
	lb   r4, 0(r1)
	blt  r4, r5, keep
	j    next
keep:
	addi r3, r3, 1
next:
	add  r1, r1, r6
	dealloc r1
	j    loop
done:
	emit r3
	stop
`

// sumWordsAsm adds up the stream's 32-bit little-endian words. In: r1=stream
// cursor, r2=stream end. Out: emits the wrapping 32-bit sum.
const sumWordsAsm = `
; sum 32-bit words
loop:
	bge  r1, r2, done
	lw   r4, 0(r1)
	add  r3, r3, r4
	addi r1, r1, 4
	dealloc r1
	j    loop
done:
	emit r3
	stop
`

// minMaxAsm scans bytes tracking the minimum and maximum values. In:
// r1=stream cursor, r2=stream end. Out: emits min then max.
const minMaxAsm = `
; byte min/max scan
	li   r5, 255        ; min
	li   r6, 0          ; max
loop:
	bge  r1, r2, done
	lb   r4, 0(r1)
	bge  r4, r5, chkmax
	mv   r5, r4
chkmax:
	bge  r6, r4, next
	mv   r6, r4
next:
	addi r1, r1, 1
	dealloc r1
	j    loop
done:
	emit r5
	emit r6
	stop
`

// runAsm executes a hand-written program over a stream with the documented
// register convention and returns its emitted words.
func runAsm(t *testing.T, src string, stream []byte, extra map[uint8]uint32) []uint32 {
	t.Helper()
	env := svm.NewSliceEnv(DiffBase, stream)
	init := map[uint8]uint32{
		1: uint32(DiffBase),
		2: uint32(DiffBase + int64(len(stream))),
	}
	for r, v := range extra {
		init[r] = v
	}
	prog, err := svm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svm.NewMachine(env, prog, init).Run(); err != nil {
		t.Fatal(err)
	}
	return env.Out
}

func runHDL(t *testing.T, src string, stream []byte, params map[string]uint32) []uint32 {
	t.Helper()
	got, err := RunSlice(MustCompile(src), stream, DiffBase, params)
	if err != nil {
		t.Fatal(err)
	}
	return got.Out
}

func TestSelectPortMatchesAssembly(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		stream := GenStream(seed)
		stream = stream[:len(stream)/16*16] // whole records
		for _, thr := range []uint32{0, 1, 64, 128, 255, 256} {
			asm := runAsm(t, selectAsm, stream, map[uint8]uint32{5: thr, 6: 16})
			hdl := runHDL(t, SelectHDL, stream, map[string]uint32{"threshold": thr})
			if !reflect.DeepEqual(asm, hdl) {
				t.Fatalf("seed %d thr %d: assembly %v, HDL %v", seed, thr, asm, hdl)
			}
		}
	}
}

func TestSumPortMatchesAssembly(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		stream := GenStream(seed)
		stream = stream[:len(stream)/4*4] // whole words: on a ragged tail the assembly folds in a zero-padded partial word
		asm := runAsm(t, sumWordsAsm, stream, nil)
		hdl := runHDL(t, SumHDL, stream, nil)
		if !reflect.DeepEqual(asm, hdl) {
			t.Fatalf("seed %d: assembly %v, HDL %v", seed, asm, hdl)
		}
	}
}

func TestMinMaxPortMatchesAssembly(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		stream := GenStream(seed)
		asm := runAsm(t, minMaxAsm, stream, nil)
		hdl := runHDL(t, MinMaxHDL, stream, nil)
		if !reflect.DeepEqual(asm, hdl) {
			t.Fatalf("seed %d: assembly %v, HDL %v", seed, asm, hdl)
		}
	}
}
