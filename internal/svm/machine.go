package svm

import (
	"encoding/binary"
	"fmt"
)

// Env supplies the hardware behind a running handler program: timing
// charges flow to the switch CPU model, stream loads go through the ATB
// (stalling on buffer arrival and valid bits), and private memory goes
// through the switch data cache.
type Env interface {
	// Compute charges n busy cycles.
	Compute(n int64)
	// Ifetch models an instruction fetch at addr through the I-cache.
	Ifetch(addr int64)
	// StreamBase returns the lowest stream-mapped address; loads at or
	// above it read packet data via the ATB.
	StreamBase() int64
	// StreamBytes returns n bytes of stream data at addr, charging buffer
	// reads and stalling until the data is valid.
	StreamBytes(addr, n int64) []byte
	// MemLoad/MemStore charge a private-memory reference through the
	// D-cache (values themselves live in the machine).
	MemLoad(addr int64)
	MemStore(addr int64)
	// Dealloc releases stream buffers mapped wholly below end.
	Dealloc(end int64)
	// Emit appends one word to the handler's output (the send unit).
	Emit(v uint32)
}

// Result reports a finished execution.
type Result struct {
	Regs     [NumRegs]uint32
	Executed int64
}

// Machine executes a Program against an Env.
type Machine struct {
	env  Env
	prog *Program
	regs [NumRegs]uint32
	mem  map[int64]byte

	// MaxInstrs guards against runaway handlers (default 256M).
	MaxInstrs int64
}

// NewMachine prepares an execution with the given initial registers.
func NewMachine(env Env, prog *Program, init map[uint8]uint32) *Machine {
	m := &Machine{
		env:       env,
		prog:      prog,
		mem:       make(map[int64]byte),
		MaxInstrs: 256 << 20,
	}
	for r, v := range init {
		if r > 0 && r < NumRegs {
			m.regs[r] = v
		}
	}
	return m
}

// loadByte reads data memory: stream addresses via the Env, private bytes
// from the machine's map.
func (m *Machine) loadByte(addr int64) byte {
	if addr >= m.env.StreamBase() {
		b := m.env.StreamBytes(addr, 1)
		if len(b) == 0 {
			return 0
		}
		return b[0]
	}
	m.env.MemLoad(addr)
	return m.mem[addr]
}

func (m *Machine) loadWord(addr int64) uint32 {
	if addr >= m.env.StreamBase() {
		b := m.env.StreamBytes(addr, 4)
		if len(b) < 4 {
			var buf [4]byte
			copy(buf[:], b)
			return binary.LittleEndian.Uint32(buf[:])
		}
		return binary.LittleEndian.Uint32(b)
	}
	m.env.MemLoad(addr)
	var buf [4]byte
	for i := int64(0); i < 4; i++ {
		buf[i] = m.mem[addr+i]
	}
	return binary.LittleEndian.Uint32(buf[:])
}

func (m *Machine) storeByte(addr int64, v byte) {
	if addr >= m.env.StreamBase() {
		panic(fmt.Sprintf("svm: store into read-only stream address %#x", addr))
	}
	m.env.MemStore(addr)
	m.mem[addr] = v
}

func (m *Machine) storeWord(addr int64, v uint32) {
	if addr >= m.env.StreamBase() {
		panic(fmt.Sprintf("svm: store into read-only stream address %#x", addr))
	}
	m.env.MemStore(addr)
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	for i := int64(0); i < 4; i++ {
		m.mem[addr+i] = buf[i]
	}
}

// Run executes until STOP, a fall-off-the-end, or the instruction budget.
func (m *Machine) Run() (*Result, error) {
	pc := 0
	var executed int64
	n := len(m.prog.Instrs)
	for pc >= 0 && pc < n {
		if executed >= m.MaxInstrs {
			return nil, fmt.Errorf("svm: instruction budget (%d) exhausted at pc=%d", m.MaxInstrs, pc)
		}
		m.env.Ifetch(m.prog.Base + int64(pc)*4)
		m.env.Compute(1)
		ins := m.prog.Instrs[pc]
		executed++
		next := pc + 1
		rs := m.regs[ins.Rs]
		rt := m.regs[ins.Rt]
		set := func(v uint32) {
			if ins.Rd != 0 {
				m.regs[ins.Rd] = v
			}
		}
		switch ins.Op {
		case OpAdd:
			set(rs + rt)
		case OpSub:
			set(rs - rt)
		case OpMul:
			set(rs * rt)
		case OpAnd:
			set(rs & rt)
		case OpOr:
			set(rs | rt)
		case OpXor:
			set(rs ^ rt)
		case OpSlt:
			if int32(rs) < int32(rt) {
				set(1)
			} else {
				set(0)
			}
		case OpSltu:
			if rs < rt {
				set(1)
			} else {
				set(0)
			}
		case OpAddi:
			set(rs + uint32(ins.Imm))
		case OpAndi:
			set(rs & uint32(ins.Imm))
		case OpOri:
			set(rs | uint32(ins.Imm))
		case OpSlli:
			set(rs << (uint32(ins.Imm) & 31))
		case OpSrli:
			set(rs >> (uint32(ins.Imm) & 31))
		case OpLui:
			set(uint32(ins.Imm) << 16)
		case OpLw:
			set(m.loadWord(int64(int32(rs)) + int64(ins.Imm)))
		case OpLb:
			set(uint32(m.loadByte(int64(int32(rs)) + int64(ins.Imm))))
		case OpSw:
			m.storeWord(int64(int32(rs))+int64(ins.Imm), rt)
		case OpSb:
			m.storeByte(int64(int32(rs))+int64(ins.Imm), byte(rt))
		case OpBeq:
			if rs == rt {
				next = int(ins.Imm)
			}
		case OpBne:
			if rs != rt {
				next = int(ins.Imm)
			}
		case OpBlt:
			if int32(rs) < int32(rt) {
				next = int(ins.Imm)
			}
		case OpBge:
			if int32(rs) >= int32(rt) {
				next = int(ins.Imm)
			}
		case OpJ:
			next = int(ins.Imm)
		case OpJal:
			m.regs[31] = uint32(pc + 1)
			next = int(ins.Imm)
		case OpJr:
			next = int(rs)
		case OpEmit:
			m.env.Emit(rs)
		case OpDealloc:
			m.env.Dealloc(int64(rs))
		case OpStop:
			res := &Result{Regs: m.regs, Executed: executed}
			return res, nil
		default:
			return nil, fmt.Errorf("svm: illegal opcode %v at pc=%d", ins.Op, pc)
		}
		pc = next
	}
	return nil, fmt.Errorf("svm: control fell off the program (pc=%d)", pc)
}
