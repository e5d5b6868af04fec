package svm

// Library of handler programs in switch assembly. Each documents its
// register calling convention; all expect the stream mapped at r1 with the
// end address in r2 and deallocate buffers as they go.

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

// MustAssemble assembles a library program; it panics on error since the
// sources above are constants validated by tests.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

// SliceEnv is a stand-alone Env over an in-memory stream, for writing and
// debugging handler programs outside a simulation. It counts the work a
// real switch CPU would be charged.
type SliceEnv struct {
	Base   int64
	Stream []byte

	Cycles   int64
	Fetches  int64
	Loads    int64
	Stores   int64
	Deallocs []int64
	Out      []uint32
}

// NewSliceEnv builds an Env over data mapped at base.
func NewSliceEnv(base int64, data []byte) *SliceEnv {
	return &SliceEnv{Base: base, Stream: data}
}

// Compute implements Env.
func (e *SliceEnv) Compute(n int64) { e.Cycles += n }

// Ifetch implements Env.
func (e *SliceEnv) Ifetch(int64) { e.Fetches++ }

// StreamBase implements Env.
func (e *SliceEnv) StreamBase() int64 { return e.Base }

// StreamBytes implements Env.
func (e *SliceEnv) StreamBytes(addr, n int64) []byte {
	off := addr - e.Base
	if off < 0 || off >= int64(len(e.Stream)) {
		return nil
	}
	end := off + n
	if end > int64(len(e.Stream)) {
		end = int64(len(e.Stream))
	}
	return e.Stream[off:end]
}

// MemLoad implements Env.
func (e *SliceEnv) MemLoad(int64) { e.Loads++ }

// MemStore implements Env.
func (e *SliceEnv) MemStore(int64) { e.Stores++ }

// Dealloc implements Env.
func (e *SliceEnv) Dealloc(end int64) { e.Deallocs = append(e.Deallocs, end) }

// Emit implements Env.
func (e *SliceEnv) Emit(v uint32) { e.Out = append(e.Out, v) }

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
