package sim

import "testing"

func TestRandDeterminism(t *testing.T) {
	// The reference splitmix64 stream: seeded workloads, fault draws and
	// generated test fabrics all depend on it staying put.
	r := NewRand(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := r.Next(); got != want {
			t.Fatalf("draw %d from seed 0 = %#x, want %#x", i, got, want)
		}
	}
	a, b := NewRand(123), NewRand(123)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	if NewRand(1).Next() == NewRand(2).Next() {
		t.Fatal("different seeds produced the same first draw")
	}
	r = NewRand(99)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64=%v outside [0,1)", f)
		}
		if n := r.Int63n(10); n < 0 || n >= 10 {
			t.Fatalf("Int63n(10)=%d", n)
		}
		if n := r.Intn(7); n < 0 || n >= 7 {
			t.Fatalf("Intn(7)=%d", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}
