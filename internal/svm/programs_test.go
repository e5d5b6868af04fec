package svm

import (
	"hash/crc32"
	"testing"
	"testing/quick"

	"activesan/internal/aswitch"
	"activesan/internal/cluster"
	"activesan/internal/iodev"
	"activesan/internal/san"
	"activesan/internal/sim"
)

func runLib(t *testing.T, src string, data []byte, init map[uint8]uint32) *SliceEnv {
	t.Helper()
	env := NewSliceEnv(1<<20, data)
	if init == nil {
		init = map[uint8]uint32{}
	}
	if _, ok := init[1]; !ok {
		init[1] = 1 << 20
	}
	if _, ok := init[2]; !ok {
		init[2] = uint32(1<<20 + len(data))
	}
	m := NewMachine(env, MustAssemble(src), init)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return env
}

func TestHistogramProgram(t *testing.T) {
	data := make([]byte, 400)
	var want [4]uint32
	for i := range data {
		data[i] = byte(i * 37)
		want[data[i]>>6]++
	}
	env := runLib(t, HistogramSource, data, nil)
	for b := 0; b < 4; b++ {
		if env.Out[b] != want[b] {
			t.Fatalf("bucket %d = %d, want %d (all %v vs %v)", b, env.Out[b], want[b], env.Out, want)
		}
	}
	// The histogram counters live in private memory: the D-cache path must
	// have been exercised.
	if env.Loads == 0 || env.Stores == 0 {
		t.Fatalf("histogram never touched private memory: %d loads, %d stores", env.Loads, env.Stores)
	}
}

func TestLibraryProgramsAssemble(t *testing.T) {
	for name, src := range map[string]string{
		"histogram": HistogramSource, "matchcount": MatchCountSource,
		"crc32": CRC32Source,
	} {
		if p := MustAssemble(src); len(p.Instrs) == 0 {
			t.Fatalf("%s assembled empty", name)
		}
	}
}

func TestSliceEnvAccounting(t *testing.T) {
	env := runLib(t, HistogramSource, make([]byte, 64), nil)
	if env.Cycles == 0 || env.Fetches == 0 {
		t.Fatal("no work accounted")
	}
	if env.Cycles != env.Fetches {
		t.Fatalf("cycles %d != fetches %d for single-issue", env.Cycles, env.Fetches)
	}
	if len(env.Deallocs) == 0 {
		t.Fatal("no deallocations recorded")
	}
}

func TestMatchCountProgram(t *testing.T) {
	pattern := []byte("abab")
	corpus := []byte("zababab-abab!xxabababab")
	// Oracle: overlapping occurrences with restart-at-zero after a match
	// (the program resets its state), i.e. non-overlapping count.
	want := uint32(0)
	state := 0
	table := KMPTable(pattern)
	for _, c := range corpus {
		state = int(table[state*256+int(c)])
		if state == len(pattern) {
			want++
			state = 0
		}
	}
	env := NewSliceEnv(1<<20, corpus)
	m := NewMachine(env, MustAssemble(MatchCountSource), map[uint8]uint32{
		1: 1 << 20,
		2: uint32(1<<20 + len(corpus)),
		5: uint32(len(pattern)),
	})
	for i, b := range table {
		m.Poke(int64(i), b)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Out[0] != want {
		t.Fatalf("assembly matcher found %d, want %d", env.Out[0], want)
	}
	if want < 3 {
		t.Fatalf("weak test corpus: only %d matches", want)
	}
}

func TestMatchCountOnRealSwitch(t *testing.T) {
	// End to end with the 1 KB switch D-cache in the loop: the handler
	// builds the machine itself, pokes the host-supplied table into
	// private memory, and scans the disk stream. The table (1 KB for a
	// 4-byte pattern) exactly fills the D-cache.
	pattern := []byte("BEEF")
	const total = 32 * 1024
	data := make([]byte, total)
	for i := range data {
		data[i] = byte('a' + i%23)
	}
	want := uint32(0)
	for i := 0; i+len(pattern) < len(data); i += 997 {
		copy(data[i:], pattern)
		want++
	}

	eng := sim.NewEngine()
	c := cluster.NewIOCluster(eng, cluster.DefaultIOClusterConfig())
	c.Store(0).AddFile(&iodev.File{Name: "t", Size: total, Data: data})
	sw := c.Switch(0)
	table := KMPTable(pattern)
	prog := MustAssemble(MatchCountSource)
	sw.Register(21, "asm-match", func(x *aswitch.Ctx) {
		x.ReleaseArgs()
		env := NewCtxEnv(x, 1<<20, 1<<16)
		m := NewMachine(env, prog, map[uint8]uint32{
			1: 1 << 20, 2: 1<<20 + total, 5: uint32(len(pattern)),
		})
		for i, b := range table {
			m.Poke(int64(i), b)
		}
		if _, err := m.Run(); err != nil {
			t.Errorf("vm: %v", err)
			return
		}
		x.Send(aswitch.SendSpec{Dst: x.Src(), Type: san.Control, Addr: 0x100,
			Size: 8, Flow: 0x7400, Payload: env.Out[0]})
	})
	c.Start()
	var got uint32
	eng.Spawn("app", func(p *sim.Proc) {
		h := c.Host(0)
		h.SendMessage(p, &san.Message{
			Hdr:  san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 21, Addr: 0},
			Size: 32,
		}, 0)
		tok := h.IssueReadTo(p, c.Store(0).ID(), "t", 0, total,
			sw.ID(), 1<<20, 0x6800)
		h.WaitRead(p, tok)
		comp := h.RecvFlow(p, sw.ID(), 0x7400)
		got = comp.Payloads[0].(uint32)
	})
	eng.Run()
	defer c.Shutdown()
	if got != want {
		t.Fatalf("switch matcher found %d, want %d", got, want)
	}
	// Table lookups go through the D-cache: the run must have issued real
	// data-cache traffic.
	if st := sw.CPU(0).Timing().Hier().L1D().Stats(); st.Accesses == 0 {
		t.Fatal("no D-cache traffic from the transition table")
	}
}

func TestCRC32Program(t *testing.T) {
	data := []byte("The quick brown fox jumps over the lazy dog")
	env := NewSliceEnv(1<<20, data)
	m := NewMachine(env, MustAssemble(CRC32Source), map[uint8]uint32{
		1: 1 << 20,
		2: uint32(1<<20 + len(data)),
	})
	for i, b := range CRC32Table() {
		m.Poke(int64(i), b)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if want := crc32.ChecksumIEEE(data); env.Out[0] != want {
		t.Fatalf("assembly CRC32 = %#x, want %#x", env.Out[0], want)
	}
}

func TestCRC32ProgramProperty(t *testing.T) {
	f := func(data []byte) bool {
		env := NewSliceEnv(1<<20, data)
		m := NewMachine(env, MustAssemble(CRC32Source), map[uint8]uint32{
			1: 1 << 20,
			2: uint32(1<<20 + len(data)),
		})
		for i, b := range CRC32Table() {
			m.Poke(int64(i), b)
		}
		if _, err := m.Run(); err != nil {
			return false
		}
		return env.Out[0] == crc32.ChecksumIEEE(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Poke writes a byte of private data memory before the run.
func (m *Machine) Poke(addr int64, b byte) { m.mem[addr] = b }

// The tests' library of handler programs in switch assembly. Each documents
// its register calling convention; all expect the stream mapped at r1 with
// the end address in r2 and deallocate buffers as they go.

// HistogramSource counts bytes into a 4-bucket histogram by the top two
// bits, using private memory for the counters — exercising the D-cache
// path.
//
// In: r1=stream cursor, r2=stream end.
// Out: emits the four bucket counts (bucket 0 first).
const HistogramSource = `
; 4-bucket histogram of the top two bits of each byte
loop:
	bge  r1, r2, done
	lb   r4, 0(r1)
	srli r4, r4, 6      ; bucket index 0..3
	slli r4, r4, 2      ; *4 for word addressing
	lw   r7, 0(r4)
	addi r7, r7, 1
	sw   r7, 0(r4)
	addi r1, r1, 1
	dealloc r1
	j    loop
done:
	lw   r7, 0(r0)
	emit r7
	lw   r7, 4(r0)
	emit r7
	lw   r7, 8(r0)
	emit r7
	lw   r7, 12(r0)
	emit r7
	stop
`

// MustAssemble assembles a library program, panicking on error: the
// sources are constants, and TestLibraryProgramsAssemble checks them.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

// MatchCountSource counts occurrences of a pattern using a DFA transition
// table in private memory (poked in by the host before the run — the
// paper's model of the host setting up handler state). The table holds
// 256 bytes per state: next_state = table[state*256 + byte].
//
// In: r1=stream cursor, r2=stream end, r5=accepting state (pattern length).
// Private memory: transition table at address 0.
// Out: emits the match count.
const MatchCountSource = `
; DFA pattern scan over the stream
loop:
	bge  r1, r2, done
	lb   r4, 0(r1)
	slli r7, r6, 8      ; state*256
	add  r7, r7, r4
	lb   r6, 0(r7)      ; next state from the table (D-cache)
	bne  r6, r5, next
	addi r3, r3, 1
	li   r6, 0
next:
	addi r1, r1, 1
	dealloc r1
	j    loop
done:
	emit r3
	stop
`

// KMPTable builds the byte-wide DFA transition table MatchCountSource
// expects: len(pattern)*256 entries, table[s*256+c] = next state after
// reading byte c in state s. State len(pattern) is accepting; the scanner
// resets it to 0 itself.
func KMPTable(pattern []byte) []byte {
	m := len(pattern)
	if m == 0 || m > 255 {
		panic("svm: pattern length must be 1..255")
	}
	table := make([]byte, m*256)
	table[int(pattern[0])] = 1
	x := 0
	for s := 1; s < m; s++ {
		for c := 0; c < 256; c++ {
			table[s*256+c] = table[x*256+c]
		}
		table[s*256+int(pattern[s])] = byte(s + 1)
		x = int(table[x*256+int(pattern[s])])
	}
	return table
}

// CRC32Source computes the IEEE CRC-32 of the stream with a 256-entry
// word table in private memory (see CRC32Table).
//
// In: r1=stream cursor, r2=stream end. Private memory: table at address 0.
// Out: emits the final checksum.
const CRC32Source = `
; table-driven CRC-32 (IEEE, reflected)
	lui  r6, 0xFFFF
	ori  r6, r6, 0xFFFF ; crc = 0xFFFFFFFF
loop:
	bge  r1, r2, done
	lb   r4, 0(r1)
	xor  r5, r6, r4
	andi r5, r5, 0xFF
	slli r5, r5, 2
	lw   r5, 0(r5)      ; table[(crc ^ b) & 0xFF]
	srli r6, r6, 8
	xor  r6, r6, r5
	addi r1, r1, 1
	dealloc r1
	j    loop
done:
	li   r7, -1
	xor  r6, r6, r7     ; final inversion
	emit r6
	stop
`

// CRC32Table renders the IEEE polynomial's lookup table as the bytes
// CRC32Source expects in private memory (256 little-endian words).
func CRC32Table() []byte {
	const poly = 0xEDB88320
	out := make([]byte, 256*4)
	for i := 0; i < 256; i++ {
		crc := uint32(i)
		for k := 0; k < 8; k++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
		out[i*4] = byte(crc)
		out[i*4+1] = byte(crc >> 8)
		out[i*4+2] = byte(crc >> 16)
		out[i*4+3] = byte(crc >> 24)
	}
	return out
}
