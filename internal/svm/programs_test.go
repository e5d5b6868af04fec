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
			sw.ID(), 1<<20, san.Data, 0, 0, 0x6800)
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
