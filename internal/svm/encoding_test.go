package svm

import (
	"reflect"
	"testing"
	"testing/quick"

	"activesan/internal/sim"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for name, src := range map[string]string{
		"histogram": HistogramSource, "matchcount": MatchCountSource,
	} {
		p := MustAssemble(src)
		img, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		q, err := DecodeProgram(img)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(q.Instrs) != len(p.Instrs) {
			t.Fatalf("%s: %d instrs, want %d", name, len(q.Instrs), len(p.Instrs))
		}
		for i := range p.Instrs {
			if q.Instrs[i] != p.Instrs[i] {
				t.Fatalf("%s: instr %d round-tripped to %+v, want %+v",
					name, i, q.Instrs[i], p.Instrs[i])
			}
		}
	}
}

func TestDecodedProgramRunsIdentically(t *testing.T) {
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i * 31)
	}
	run := func(p *Program) []uint32 {
		env := NewSliceEnv(1<<20, data)
		m := NewMachine(env, p, map[uint8]uint32{1: 1 << 20, 2: 1<<20 + 512})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return env.Out
	}
	p := MustAssemble(HistogramSource)
	img, _ := EncodeProgram(p)
	q, _ := DecodeProgram(img)
	if a, b := run(p), run(q); !reflect.DeepEqual(a, b) {
		t.Fatalf("decoded program diverged: %v vs %v", a, b)
	}
}

func TestEncodeInstrProperty(t *testing.T) {
	// Property: any instruction with in-range fields round-trips exactly.
	f := func(op uint8, rd, rs, rt uint8, imm int16) bool {
		ins := Instr{
			Op: Op(op % uint8(OpStop+1)),
			Rd: rd % 32, Rs: rs % 32, Rt: rt % 32,
			Imm: int32(imm % 1024),
		}
		w, err := EncodeInstr(ins)
		if err != nil {
			return false
		}
		got, err := DecodeInstr(w)
		return err == nil && got == ins
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeProgramProperty round-trips whole randomly generated valid
// programs — every opcode, register and in-range immediate mixed across
// programs up to the encodable size — not just the hand-picked library
// sources above. Seeded splitmix64 keeps failures reproducible.
func TestEncodeProgramProperty(t *testing.T) {
	next := sim.NewRand(0x5EED).Next
	trials := 300
	if testing.Short() {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + int(next()%512)
		p := &Program{Labels: map[string]int{}}
		for i := 0; i < n; i++ {
			p.Instrs = append(p.Instrs, Instr{
				Op:  Op(next() % uint64(OpStop+1)),
				Rd:  uint8(next() % 32),
				Rs:  uint8(next() % 32),
				Rt:  uint8(next() % 32),
				Imm: int32(next()%2048) - 1024, // the full signed 11-bit range
			})
		}
		img, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		q, err := DecodeProgram(img)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(q.Instrs) != len(p.Instrs) {
			t.Fatalf("trial %d: %d instrs, want %d", trial, len(q.Instrs), len(p.Instrs))
		}
		for i := range p.Instrs {
			if q.Instrs[i] != p.Instrs[i] {
				t.Fatalf("trial %d: instr %d round-tripped to %+v, want %+v",
					trial, i, q.Instrs[i], p.Instrs[i])
			}
		}
	}
}

func TestEncodeRejectsWideImmediates(t *testing.T) {
	if _, err := EncodeInstr(Instr{Op: OpAddi, Imm: 1 << 20}); err == nil {
		t.Fatal("wide immediate encoded")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeProgram([]byte("not an image")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeProgram([]byte{'S', 'V', 'M', '1', 9, 0, 0, 0}); err == nil {
		t.Fatal("truncated image accepted")
	}
	if _, err := DecodeInstr(uint32(OpStop+7) << 26); err == nil {
		t.Fatal("illegal opcode decoded")
	}
}
