package md5app

import (
	cryptomd5 "crypto/md5"
	"fmt"
	"testing"
	"testing/quick"

	"activesan/internal/apps"
)

func TestMD5AgainstStdlib(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("a"),
		[]byte("abc"),
		[]byte("message digest"),
		make([]byte, 63),
		make([]byte, 64),
		make([]byte, 65),
		make([]byte, 10000),
	}
	for i, c := range cases {
		got := SumBytes(c)
		want := cryptomd5.Sum(c)
		if got != want {
			t.Errorf("case %d: digest %x, want %x", i, got, want)
		}
	}
}

func TestMD5StreamingProperty(t *testing.T) {
	// Property: any split of the input across Write calls yields the same
	// digest as one call, and matches the standard library.
	f := func(data []byte, cut uint16) bool {
		d := New()
		c := int(cut)
		if c > len(data) {
			c = len(data)
		}
		d.Write(data[:c])
		d.Write(data[c:])
		return d.Sum() == cryptomd5.Sum(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSumDoesNotDisturbState(t *testing.T) {
	d := New()
	d.Write([]byte("hello "))
	_ = d.Sum()
	d.Write([]byte("world"))
	if d.Sum() != SumBytes([]byte("hello world")) {
		t.Fatal("Sum() perturbed the running state")
	}
}

func TestChainDigest(t *testing.T) {
	data := BuildInput(DefaultParams())
	// K=1 equals plain MD5.
	if ChainDigest(data, 1, 16*1024) != SumBytes(data) {
		t.Fatal("K=1 chain digest differs from plain MD5")
	}
	// K=2 differs from plain but is deterministic.
	a := ChainDigest(data, 2, 16*1024)
	b := ChainDigest(data, 2, 16*1024)
	if a != b {
		t.Fatal("chain digest not deterministic")
	}
	if a == SumBytes(data) {
		t.Fatal("K=2 chain digest should differ from plain MD5")
	}
	// Manual reconstruction for a tiny case.
	tiny := []byte("0123456789abcdef")
	chain0 := SumBytes(tiny[:4]) // blocks 0,2 -> bytes 0:4, 8:12
	_ = chain0
	d0, d1 := New(), New()
	d0.Write(tiny[0:4])
	d0.Write(tiny[8:12])
	d1.Write(tiny[4:8])
	d1.Write(tiny[12:16])
	fin := New()
	s0, s1 := d0.Sum(), d1.Sum()
	fin.Write(s0[:])
	fin.Write(s1[:])
	if ChainDigest(tiny, 2, 4) != fin.Sum() {
		t.Fatal("chain digest construction mismatch")
	}
}

func testParams() Params {
	prm := DefaultParams()
	prm.FileSize = 128 * 1024
	return prm
}

func TestConfigsProduceCorrectDigests(t *testing.T) {
	prm := testParams()
	input := BuildInput(prm)
	plain := fmt.Sprintf("%x", SumBytes(input))
	run := Run(apps.Normal, 1, prm)
	if got := run.Extra["digest"].(string); got != plain {
		t.Errorf("normal digest %s, want %s", got, plain)
	}
	for _, cpus := range []int{1, 2, 4} {
		want := fmt.Sprintf("%x", ChainDigest(input, cpus, prm.BlockSize))
		run := Run(apps.ActivePref, cpus, prm)
		if got := run.Extra["digest"].(string); got != want {
			t.Errorf("active %d-cpu digest %s, want %s", cpus, got, want)
		}
	}
}

func TestShapeMD5(t *testing.T) {
	// Paper Figure 17: one switch CPU makes the active case slower than
	// normal; four switch CPUs recover a speedup (1.50 without prefetch).
	prm := testParams()
	res := RunAll(prm)
	normal := res.Baseline()
	a1, _ := res.Run("active-1cpu")
	a4, _ := res.Run("active-4cpu")
	if !(a1.Time > normal.Time) {
		t.Errorf("active 1-cpu (%v) should be slower than normal (%v)", a1.Time, normal.Time)
	}
	if !(a4.Time < normal.Time) {
		t.Errorf("active 4-cpu (%v) should beat normal (%v)", a4.Time, normal.Time)
	}
	if !(a4.Time < a1.Time) {
		t.Errorf("4-cpu (%v) should beat 1-cpu (%v)", a4.Time, a1.Time)
	}
}

func TestThreeCPUChains(t *testing.T) {
	// An odd CPU count exercises uneven chain lengths.
	prm := testParams()
	input := BuildInput(prm)
	want := fmt.Sprintf("%x", ChainDigest(input, 3, prm.BlockSize))
	run := Run(apps.Active, 3, prm)
	if got := run.Extra["digest"].(string); got != want {
		t.Fatalf("3-cpu digest %s, want %s", got, want)
	}
}

// ChainDigest computes the paper's K-chain variant: block i (of blockSize
// bytes) joins chain i mod K; the K chain digests, concatenated, are
// digested once more. K=1 degenerates to plain MD5.
func ChainDigest(data []byte, k int, blockSize int64) [Size]byte {
	if k <= 1 {
		return SumBytes(data)
	}
	chains := make([]*Digest, k)
	for j := range chains {
		chains[j] = New()
	}
	for i := int64(0); i*blockSize < int64(len(data)); i++ {
		end := (i + 1) * blockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		chains[int(i)%k].Write(data[i*blockSize : end])
	}
	final := New()
	for _, c := range chains {
		sum := c.Sum()
		final.Write(sum[:])
	}
	return final.Sum()
}
