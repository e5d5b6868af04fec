package tarapp

import (
	"fmt"
	"hash/fnv"
	"testing"

	"activesan/internal/apps"
)

func testParams() Params {
	prm := DefaultParams()
	prm.Files = 4
	prm.FileSize = 128 * 1024
	return prm
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header("hello.txt", 12345)
	if len(h) != HeaderSize {
		t.Fatalf("header is %d bytes", len(h))
	}
	name, size, ok := VerifyHeader(h)
	if !ok {
		t.Fatal("checksum failed")
	}
	if name != "hello.txt" || size != 12345 {
		t.Fatalf("round trip gave %q/%d", name, size)
	}
}

func TestHeaderCorruptionDetected(t *testing.T) {
	h := Header("x", 1)
	h[0] ^= 0xFF
	if _, _, ok := VerifyHeader(h); ok {
		t.Fatal("corrupted header verified")
	}
}

func TestArchiveChecksumAcrossConfigs(t *testing.T) {
	prm := testParams()
	want := ArchiveChecksum(prm)
	for _, cfg := range apps.AllConfigs {
		run := runFiles(cfg, prm, buildFiles(prm))
		if got := run.Extra["checksum"].(string); got != want {
			t.Errorf("%s: archive checksum %s, want %s", cfg, got, want)
		}
		if files := run.Extra["files"].(int); files != prm.Files {
			t.Errorf("%s: archive holds %d files, want %d", cfg, files, prm.Files)
		}
	}
}

func TestShapeTar(t *testing.T) {
	// Paper Figures 11/12: normal worst; the other three roughly tie;
	// active host utilization near zero; active host traffic is just the
	// headers.
	prm := testParams()
	res := RunAll(prm)
	normal := res.Baseline()
	np, _ := res.Run("normal+pref")
	a, _ := res.Run("active")
	ap, _ := res.Run("active+pref")

	if !(normal.Time > np.Time) {
		t.Errorf("normal (%v) should be worst (normal+pref %v)", normal.Time, np.Time)
	}
	for _, r := range []struct {
		name string
		t    float64
	}{{"active", float64(a.Time)}, {"active+pref", float64(ap.Time)}} {
		ratio := r.t / float64(np.Time)
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s/normal+pref time ratio = %.3f, want ~1", r.name, ratio)
		}
	}
	// Host traffic: headers only (plus request packets).
	headerBytes := int64(prm.Files) * HeaderSize
	if a.Traffic > 3*headerBytes {
		t.Errorf("active host traffic = %d, want close to %d (headers)", a.Traffic, headerBytes)
	}
	if normal.Traffic < 2*int64(prm.Files)*prm.FileSize {
		t.Errorf("normal traffic = %d, want ~2x data (in+out)", normal.Traffic)
	}
	// Host is nearly idle in the active cases.
	if a.HostUtil() > 0.05 {
		t.Errorf("active host util = %.3f, want near 0", a.HostUtil())
	}
	if normal.HostUtil() < 3*a.HostUtil() {
		t.Errorf("normal util %.3f vs active %.3f: gap too small", normal.HostUtil(), a.HostUtil())
	}
}

func TestSingleFileArchive(t *testing.T) {
	prm := DefaultParams()
	prm.Files = 1
	prm.FileSize = 64 * 1024
	want := ArchiveChecksum(prm)
	for _, cfg := range []apps.Config{apps.Normal, apps.ActivePref} {
		run := runFiles(cfg, prm, buildFiles(prm))
		if got := run.Extra["checksum"].(string); got != want {
			t.Errorf("%s: single-file archive checksum mismatch", cfg)
		}
	}
}

// ArchiveChecksum is the oracle: FNV over header+content per file in order.
func ArchiveChecksum(prm Params) string {
	sum := fnv.New64a()
	for i := 0; i < prm.Files; i++ {
		sum.Write(Header(FileName(i), prm.FileSize))
		sum.Write(BuildFile(i, prm.FileSize))
	}
	return fmt.Sprintf("%x", sum.Sum64())
}
