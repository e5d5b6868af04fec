package memsys

import (
	"testing"
	"testing/quick"

	"activesan/internal/sim"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	if Bandwidth != 1.6e9 {
		t.Errorf("bandwidth = %v, want 1.6e9", Bandwidth)
	}
	if PageHit != 100*sim.Nanosecond || PageMiss != 122*sim.Nanosecond {
		t.Errorf("latencies = %v/%v, want 100ns/122ns", PageHit, PageMiss)
	}
}

func TestPageHitMissClassification(t *testing.T) {
	m := New(sim.NewEngine())
	// First touch of a page is a miss; a second touch in the same page
	// hits; a touch of a different row in the same bank misses again.
	m.Reserve(0, 128)
	m.Reserve(64, 128)
	sameBankNewRow := int64(PageSize * Banks)
	m.Reserve(sameBankNewRow, 128)
	st := m.Stats()
	if st.PageHits != 1 || st.PageMisses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", st.PageHits, st.PageMisses)
	}
	if st.Bytes != 384 {
		t.Fatalf("bytes = %d, want 384", st.Bytes)
	}
}

func TestAccessLatency(t *testing.T) {
	m := New(sim.NewEngine())
	// 128 bytes at 1.6 GB/s = 80 ns of occupancy.
	xfer := sim.TransferTime(128, 1.6e9)
	// A miss completes after its transfer plus the 122 ns miss latency.
	if miss, want := m.Reserve(0, 128), xfer+122*sim.Nanosecond; miss != want {
		t.Errorf("miss completes at %v, want %v", miss, want)
	}
	// A hit queues behind the first transfer on the bus, then pays the
	// 100 ns hit latency.
	if hit, want := m.Reserve(128, 128), 2*xfer+100*sim.Nanosecond; hit != want {
		t.Errorf("hit completes at %v, want %v", hit, want)
	}
}

func TestBandwidthContention(t *testing.T) {
	m := New(sim.NewEngine())
	var last sim.Time
	const n = 10
	for i := 0; i < n; i++ {
		// 128 KB apart: all misses.
		if end := m.Reserve(int64(i)*131072, 131072); end > last {
			last = end
		}
	}
	// 10 x 128 KB at 1.6 GB/s is 819.2 us of pure occupancy; queueing must
	// push the last completion past that.
	minTotal := sim.TransferTime(n*131072, 1.6e9)
	if last < minTotal {
		t.Fatalf("last completion %v earlier than bus-limited %v", last, minTotal)
	}
	if last > minTotal+10*122*sim.Nanosecond {
		t.Fatalf("last completion %v much later than bus-limited %v", last, minTotal)
	}
}

func TestReserveDoesNotBlock(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng)
	end1 := m.Reserve(0, 1024)
	end2 := m.Reserve(1<<20, 1024)
	if end2 <= end1 {
		t.Fatalf("reservations did not serialize: %v then %v", end1, end2)
	}
}

func TestAddressSpaceAllocation(t *testing.T) {
	s := NewAddressSpace(0x1000, 1<<20)
	a := s.Alloc(100, 64)
	b := s.Alloc(100, 64)
	if a%64 != 0 || b%64 != 0 {
		t.Fatalf("allocations not aligned: %#x %#x", a, b)
	}
	if b <= a || b < a+100 {
		t.Fatalf("allocations overlap: %#x %#x", a, b)
	}
	r := s.AllocRegion(4096, 4096)
	if r.Base%4096 != 0 {
		t.Fatalf("region not page aligned: %#x", r.Base)
	}
	if !r.Contains(r.Base) || r.Contains(r.End()) {
		t.Fatal("region bounds wrong")
	}
}

func TestAddressSpaceExhaustionPanics(t *testing.T) {
	s := NewAddressSpace(0, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("over-allocation did not panic")
		}
	}()
	s.Alloc(256, 64)
}

func TestAddressSpaceDisjointProperty(t *testing.T) {
	// Property: any sequence of allocations yields pairwise-disjoint regions.
	f := func(sizes []uint16) bool {
		s := NewAddressSpace(0, 1<<30)
		var regs []Region
		for _, sz := range sizes {
			if sz == 0 {
				continue
			}
			regs = append(regs, s.AllocRegion(int64(sz), 64))
		}
		for i := range regs {
			for j := i + 1; j < len(regs); j++ {
				if regs[i].Contains(regs[j].Base) || regs[j].Contains(regs[i].Base) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBankRowStriping(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng)
	// Consecutive pages must land in different banks so sequential streams
	// do not thrash one bank.
	b0, _ := m.bankRow(0)
	b1, _ := m.bankRow(PageSize)
	if b0 == b1 {
		t.Fatal("consecutive pages map to the same bank")
	}
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr int64) bool { return addr >= r.Base && addr < r.Base+r.Len }

// End returns the first address past the region.
func (r Region) End() int64 { return r.Base + r.Len }
