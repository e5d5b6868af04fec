package memsys

import "fmt"

// AddressSpace is a bump allocator over a node's physical address range. The
// benchmarks use it to lay out their data structures (hash tables,
// bit-vectors, I/O buffers) at realistic, distinct addresses so that the
// cache models see representative conflict and reuse behaviour.
type AddressSpace struct {
	next int64
	end  int64
}

// NewAddressSpace returns an allocator over [base, base+size).
func NewAddressSpace(base, size int64) *AddressSpace {
	if base < 0 || size <= 0 {
		panic("memsys: invalid address space bounds")
	}
	return &AddressSpace{next: base, end: base + size}
}

// Alloc returns the base of a fresh region of the given size, aligned to
// align (which must be a power of two; 0 means 64-byte alignment).
func (s *AddressSpace) Alloc(size int64, align int64) int64 {
	if size <= 0 {
		panic("memsys: Alloc of non-positive size")
	}
	if align == 0 {
		align = 64
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("memsys: alignment %d is not a power of two", align))
	}
	base := (s.next + align - 1) &^ (align - 1)
	if base+size > s.end {
		panic(fmt.Sprintf("memsys: address space exhausted (need %d bytes at %#x, end %#x)", size, base, s.end))
	}
	s.next = base + size
	return base
}

// Region is a convenience pairing of a base address and length.
type Region struct {
	Base int64
	Len  int64
}

// AllocRegion allocates and returns a Region.
func (s *AddressSpace) AllocRegion(size, align int64) Region {
	return Region{Base: s.Alloc(size, align), Len: size}
}
