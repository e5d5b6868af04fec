// Package md5app reproduces the paper's MD5 benchmark: the message digest
// of a 256 KB input. MD5's block chaining prevents parallelism, so the
// single-switch-CPU active case is slower than the host (the paper's one
// failed partitioning); the paper's multi-CPU variant splits the input into
// K independent chains (block i joins chain i mod K) and digests the K
// digests with a single-block pass, recovering speedup with 2-4 switch CPUs.
//
// The digest core below is implemented from scratch (RFC 1321) and verified
// against the standard library in tests.
package md5app

import "encoding/binary"

// Size is the digest length in bytes.
const Size = 16

// BlockSize is MD5's internal block size.
const BlockSize = 64

var shift = [64]uint{
	7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
	5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
	4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
	6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
}

var sines = [64]uint32{
	0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee,
	0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
	0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
	0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
	0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa,
	0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
	0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
	0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
	0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
	0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
	0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05,
	0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
	0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039,
	0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
	0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
	0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
}

// Digest is a streaming MD5 state.
type Digest struct {
	s   [4]uint32
	buf [BlockSize]byte
	nx  int
	len uint64
}

// New returns an initialized digest.
func New() *Digest {
	d := &Digest{}
	d.Reset()
	return d
}

// Reset restores the initial state.
func (d *Digest) Reset() {
	d.s = [4]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}
	d.nx = 0
	d.len = 0
}

// Write absorbs data; it never fails.
func (d *Digest) Write(data []byte) (int, error) {
	n := len(data)
	d.len += uint64(n)
	if d.nx > 0 {
		c := copy(d.buf[d.nx:], data)
		d.nx += c
		if d.nx == BlockSize {
			d.block(d.buf[:])
			d.nx = 0
		}
		data = data[c:]
	}
	for len(data) >= BlockSize {
		d.block(data[:BlockSize])
		data = data[BlockSize:]
	}
	if len(data) > 0 {
		d.nx = copy(d.buf[:], data)
	}
	return n, nil
}

// Sum returns the digest of everything written so far without disturbing
// the running state.
func (d *Digest) Sum() [Size]byte {
	cp := *d
	var pad [BlockSize + 8]byte
	pad[0] = 0x80
	padLen := 56 - int(cp.len%BlockSize)
	if padLen <= 0 {
		padLen += BlockSize
	}
	binary.LittleEndian.PutUint64(pad[padLen:], cp.len<<3)
	cp.Write(pad[:padLen+8])
	var out [Size]byte
	for i, v := range cp.s {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
	return out
}

func (d *Digest) block(p []byte) {
	var m [16]uint32
	for i := range m {
		m[i] = binary.LittleEndian.Uint32(p[i*4:])
	}
	a, b, c, dd := d.s[0], d.s[1], d.s[2], d.s[3]
	for i := 0; i < 64; i++ {
		var f uint32
		var g int
		switch {
		case i < 16:
			f = (b & c) | (^b & dd)
			g = i
		case i < 32:
			f = (dd & b) | (^dd & c)
			g = (5*i + 1) % 16
		case i < 48:
			f = b ^ c ^ dd
			g = (3*i + 5) % 16
		default:
			f = c ^ (b | ^dd)
			g = (7 * i) % 16
		}
		f += a + sines[i] + m[g]
		a = dd
		dd = c
		c = b
		b += f<<shift[i] | f>>(32-shift[i])
	}
	d.s[0] += a
	d.s[1] += b
	d.s[2] += c
	d.s[3] += dd
}

// SumBytes digests a complete message.
func SumBytes(data []byte) [Size]byte {
	d := New()
	d.Write(data)
	return d.Sum()
}
