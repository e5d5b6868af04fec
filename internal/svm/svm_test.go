package svm

import (
	"strings"
	"testing"

	"activesan/internal/aswitch"
	"activesan/internal/cluster"
	"activesan/internal/iodev"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// fakeEnv runs programs against an in-memory stream with cost counters.
type fakeEnv struct {
	base    int64
	stream  []byte
	cycles  int64
	fetches int64
	out     []uint32
	dealloc []int64
	loads   int64
	stores  int64
}

func (f *fakeEnv) Compute(n int64)   { f.cycles += n }
func (f *fakeEnv) Ifetch(int64)      { f.fetches++ }
func (f *fakeEnv) StreamBase() int64 { return f.base }
func (f *fakeEnv) MemLoad(int64)     { f.loads++ }
func (f *fakeEnv) MemStore(int64)    { f.stores++ }
func (f *fakeEnv) Dealloc(end int64) { f.dealloc = append(f.dealloc, end) }
func (f *fakeEnv) Emit(v uint32)     { f.out = append(f.out, v) }
func (f *fakeEnv) StreamBytes(addr, n int64) []byte {
	off := addr - f.base
	if off < 0 || off >= int64(len(f.stream)) {
		return nil
	}
	end := off + n
	if end > int64(len(f.stream)) {
		end = int64(len(f.stream))
	}
	return f.stream[off:end]
}

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAssembleBasics(t *testing.T) {
	p := mustAssemble(t, `
		; a tiny loop
		li   r1, 3
		li   r2, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bne  r1, r0, loop
		emit r2
		stop
	`)
	if len(p.Instrs) != 7 {
		t.Fatalf("assembled %d instructions, want 7", len(p.Instrs))
	}
	if p.Labels["loop"] != 2 {
		t.Fatalf("label loop at %d, want 2", p.Labels["loop"])
	}
	if !strings.Contains(p.String(), "loop:") {
		t.Fatal("disassembly lacks label")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"",                           // empty
		"frob r1, r2",                // unknown mnemonic
		"add r1, r2",                 // wrong arity
		"addi r99, r0, 1",            // bad register
		"beq r1, r2, nowhere\n stop", // undefined label
		"x: x: stop",                 // duplicate label
		"lw r1, r2",                  // not imm(reg)
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("assembled %q without error", src)
		}
	}
}

func runProg(t *testing.T, src string, env *fakeEnv, init map[uint8]uint32) (*Result, *fakeEnv) {
	t.Helper()
	if env == nil {
		env = &fakeEnv{base: 1 << 20}
	}
	m := NewMachine(env, mustAssemble(t, src), init)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, env
}

func TestArithmeticAndBranches(t *testing.T) {
	// Sum 1..10 via a countdown loop.
	res, env := runProg(t, `
		li   r1, 10
		li   r2, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bne  r1, r0, loop
		emit r2
		stop
	`, nil, nil)
	if env.out[0] != 55 {
		t.Fatalf("sum = %d, want 55", env.out[0])
	}
	// 2 setup + 10*3 loop + emit + stop = 34 instructions.
	if res.Executed != 34 {
		t.Fatalf("executed %d instructions, want 34", res.Executed)
	}
	if env.cycles != res.Executed {
		t.Fatalf("cycles %d != executed %d (single-issue)", env.cycles, res.Executed)
	}
	if env.fetches != res.Executed {
		t.Fatalf("fetches %d != executed %d", env.fetches, res.Executed)
	}
}

func TestRegisterZeroHardwired(t *testing.T) {
	res, _ := runProg(t, `
		addi r0, r0, 99
		emit r0
		stop
	`, nil, nil)
	if res.Regs[0] != 0 {
		t.Fatalf("r0 = %d, want 0", res.Regs[0])
	}
}

func TestShiftLogicCompare(t *testing.T) {
	_, env := runProg(t, `
		li   r1, 0xF0
		slli r2, r1, 4      ; 0xF00
		srli r3, r2, 8      ; 0xF
		and  r4, r2, r1     ; 0
		or   r5, r3, r1     ; 0xFF
		xor  r6, r5, r1     ; 0x0F
		slt  r7, r0, r5     ; 1
		emit r2
		emit r3
		emit r4
		emit r5
		emit r6
		emit r7
		stop
	`, nil, nil)
	want := []uint32{0xF00, 0xF, 0, 0xFF, 0x0F, 1}
	for i, w := range want {
		if env.out[i] != w {
			t.Fatalf("out[%d] = %#x, want %#x", i, env.out[i], w)
		}
	}
}

func TestSignedComparisons(t *testing.T) {
	_, env := runProg(t, `
		li   r1, -5
		li   r2, 3
		slt  r3, r1, r2   ; signed: -5 < 3 -> 1
		sltu r4, r1, r2   ; unsigned: big < 3 -> 0
		emit r3
		emit r4
		stop
	`, nil, nil)
	if env.out[0] != 1 || env.out[1] != 0 {
		t.Fatalf("slt/sltu = %v", env.out)
	}
}

func TestPrivateMemoryRoundTrip(t *testing.T) {
	_, env := runProg(t, `
		li  r1, 0x1234
		sw  r1, 64(r0)
		lw  r2, 64(r0)
		sb  r1, 100(r0)
		lb  r3, 100(r0)
		emit r2
		emit r3
		stop
	`, nil, nil)
	if env.out[0] != 0x1234 {
		t.Fatalf("word round trip = %#x", env.out[0])
	}
	if env.out[1] != 0x34 {
		t.Fatalf("byte round trip = %#x", env.out[1])
	}
	if env.loads != 2 || env.stores != 2 {
		t.Fatalf("mem refs = %d loads / %d stores", env.loads, env.stores)
	}
}

func TestJalAndJr(t *testing.T) {
	_, env := runProg(t, `
		jal  fn
		emit r2
		stop
	fn:
		li   r2, 7
		jr   r31
	`, nil, nil)
	if env.out[0] != 7 {
		t.Fatalf("subroutine result = %d", env.out[0])
	}
}

func TestStreamLoads(t *testing.T) {
	env := &fakeEnv{base: 1 << 20, stream: []byte{0x11, 0x22, 0x33, 0x44, 0x55}}
	_, env = runProg(t, `
		lui  r1, 16        ; r1 = 0x100000
		lb   r2, 0(r1)
		lw   r3, 1(r1)
		emit r2
		emit r3
		stop
	`, env, nil)
	if env.out[0] != 0x11 {
		t.Fatalf("stream byte = %#x", env.out[0])
	}
	if env.out[1] != 0x55443322 {
		t.Fatalf("stream word = %#x", env.out[1])
	}
}

func TestStoreToStreamPanics(t *testing.T) {
	env := &fakeEnv{base: 1 << 20, stream: make([]byte, 16)}
	m := NewMachine(env, mustAssemble(t, `
		lui r1, 16
		sw  r1, 0(r1)
		stop
	`), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("store to stream did not panic")
		}
	}()
	m.Run()
}

func TestRunawayGuard(t *testing.T) {
	env := &fakeEnv{base: 1 << 20}
	m := NewMachine(env, mustAssemble(t, "loop: j loop"), nil)
	m.MaxInstrs = 1000
	if _, err := m.Run(); err == nil {
		t.Fatal("infinite loop not caught")
	}
}

func TestFallOffEndErrors(t *testing.T) {
	env := &fakeEnv{base: 1 << 20}
	m := NewMachine(env, mustAssemble(t, "addi r1, r0, 1"), nil)
	if _, err := m.Run(); err == nil {
		t.Fatal("fall-off-the-end not reported")
	}
}

// selectAsm is a real handler in assembly: scan fixed-size records at the
// stream base, count those whose first byte is below a threshold,
// deallocating buffers as the cursor advances.
//
// r1=cursor r2=end r3=count r5=threshold r6=record size
const selectAsm = `
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

func TestSelectHandlerOnFakeEnv(t *testing.T) {
	const recSize = 16
	const nRec = 200
	stream := make([]byte, recSize*nRec)
	want := uint32(0)
	for i := 0; i < nRec; i++ {
		stream[i*recSize] = byte(i * 7)
		if stream[i*recSize] < 64 {
			want++
		}
	}
	env := &fakeEnv{base: 1 << 20, stream: stream}
	init := map[uint8]uint32{
		1: 1 << 20,
		2: 1<<20 + recSize*nRec,
		5: 64,
		6: recSize,
	}
	_, env = runProg(t, selectAsm, env, init)
	if env.out[0] != want {
		t.Fatalf("assembly select counted %d, want %d", env.out[0], want)
	}
}

func TestSelectHandlerOnRealSwitch(t *testing.T) {
	// The full loop: the assembly program runs as a switch handler on a
	// simulated cluster, reading real disk-streamed bytes through the ATB,
	// and its count must match the oracle. This validates the entire
	// cost-model substitution chain with per-instruction execution.
	const recSize = 16
	const total = 64 * 1024
	const nRec = total / recSize
	const streamBase = 1 << 20
	data := make([]byte, total)
	want := uint32(0)
	for i := 0; i < nRec; i++ {
		data[i*recSize] = byte((i * 131) % 251)
		if data[i*recSize] < 64 {
			want++
		}
	}

	eng := sim.NewEngine()
	c := cluster.NewIOCluster(eng, cluster.DefaultIOClusterConfig())
	c.Store(0).AddFile(&iodev.File{Name: "t", Size: total, Data: data})
	sw := c.Switch(0)
	prog := mustAssemble(t, selectAsm)
	var vmInstrs int64
	sw.Register(20, "asm-select", func(x *aswitch.Ctx) {
		x.ReleaseArgs()
		res, out, err := RunOnCtx(x, prog, streamBase, 1<<16, map[uint8]uint32{
			1: streamBase,
			2: streamBase + total,
			5: 64,
			6: recSize,
		})
		if err != nil {
			t.Errorf("vm error: %v", err)
			return
		}
		vmInstrs = res.Executed
		x.Send(aswitch.SendSpec{
			Dst: x.Src(), Type: san.Control, Addr: 0x100,
			Size: 8, Flow: 0x7300, Payload: out[0],
		})
	})
	c.Start()
	var got uint32
	eng.Spawn("app", func(p *sim.Proc) {
		h := c.Host(0)
		h.SendMessage(p, &san.Message{
			Hdr:  san.Header{Dst: sw.ID(), Type: san.ActiveMsg, HandlerID: 20, Addr: 0},
			Size: 32,
		}, 0)
		tok := h.IssueReadTo(p, c.Store(0).ID(), "t", 0, total,
			sw.ID(), streamBase, 0x6500)
		h.WaitRead(p, tok)
		comp := h.RecvFlow(p, sw.ID(), 0x7300)
		got = comp.Payloads[0].(uint32)
	})
	eng.Run()
	defer c.Shutdown()
	if got != want {
		t.Fatalf("switch-executed assembly counted %d, want %d", got, want)
	}
	// Timing fidelity: the switch CPU's busy time must be at least the
	// executed instruction count (one cycle each) and not wildly more.
	busy := sw.CPU(0).Timing().Breakdown().Busy
	minBusy := sim.SwitchClock.Cycles(vmInstrs)
	if busy < minBusy {
		t.Fatalf("busy %v below one-cycle-per-instruction floor %v", busy, minBusy)
	}
	if busy > 3*minBusy {
		t.Fatalf("busy %v far above the instruction floor %v", busy, minBusy)
	}
}
