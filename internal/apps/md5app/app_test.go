package md5app

import (
	"crypto/md5"
	"fmt"
	"hash"
	"testing"

	"activesan/internal/apps"
)

func TestChainDigest(t *testing.T) {
	data := BuildInput(DefaultParams())
	// K=1 equals plain MD5.
	if ChainDigest(data, 1, 16*1024) != md5.Sum(data) {
		t.Fatal("K=1 chain digest differs from plain MD5")
	}
	// K=2 differs from plain but is deterministic.
	a := ChainDigest(data, 2, 16*1024)
	b := ChainDigest(data, 2, 16*1024)
	if a != b {
		t.Fatal("chain digest not deterministic")
	}
	if a == md5.Sum(data) {
		t.Fatal("K=2 chain digest should differ from plain MD5")
	}
	// Manual reconstruction for a tiny case: blocks 0 and 2 (bytes 0:4 and
	// 8:12) form chain 0, blocks 1 and 3 chain 1.
	tiny := []byte("0123456789abcdef")
	s0 := md5.Sum([]byte("012389ab"))
	s1 := md5.Sum([]byte("4567cdef"))
	if ChainDigest(tiny, 2, 4) != md5.Sum(append(s0[:], s1[:]...)) {
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
	plain := fmt.Sprintf("%x", md5.Sum(input))
	run := Run(apps.Normal, 1, prm)
	if got := run.Extra["digest"].(string); got != plain {
		t.Errorf("normal digest %s, want %s", got, plain)
	}
	for _, cpus := range []int{1, 2, 4} {
		want := fmt.Sprintf("%x", ChainDigest(input, cpus, chainBlock))
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
	want := fmt.Sprintf("%x", ChainDigest(input, 3, chainBlock))
	run := Run(apps.Active, 3, prm)
	if got := run.Extra["digest"].(string); got != want {
		t.Fatalf("3-cpu digest %s, want %s", got, want)
	}
}

// ChainDigest computes the paper's K-chain variant: block i (of blockSize
// bytes) joins chain i mod K; the K chain digests, concatenated, are
// digested once more. K=1 degenerates to plain MD5.
func ChainDigest(data []byte, k int, blockSize int64) [md5.Size]byte {
	if k <= 1 {
		return md5.Sum(data)
	}
	chains := make([]hash.Hash, k)
	for j := range chains {
		chains[j] = md5.New()
	}
	for i := int64(0); i*blockSize < int64(len(data)); i++ {
		end := min((i+1)*blockSize, int64(len(data)))
		chains[int(i)%k].Write(data[i*blockSize : end])
	}
	var sums []byte
	for _, c := range chains {
		sums = c.Sum(sums)
	}
	return md5.Sum(sums)
}
