package metrics

import (
	"reflect"
	"testing"
)

func TestHistSmallValuesExact(t *testing.T) {
	// Below 2*histSubBuckets every value gets its own bucket, so quantiles
	// are exact.
	h := NewHist()
	for v := int64(0); v < 16; v++ {
		h.Observe(v)
	}
	if h.N() != 16 || h.Min() != 0 || h.Max() != 15 {
		t.Fatalf("n=%d min=%d max=%d, want 16/0/15", h.N(), h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); got != 7 {
		t.Errorf("p50 = %d, want 7 (rank 8 of 0..15)", got)
	}
	if got := h.Quantile(1.0); got != 15 {
		t.Errorf("p100 = %d, want 15", got)
	}
	if got := h.Quantile(0.0); got != 0 {
		t.Errorf("p0 = %d, want 0 (rank clamps to 1)", got)
	}
}

func TestHistBucketContinuity(t *testing.T) {
	// Bucket indexes must be monotone in the value, bucket lower bounds
	// must invert histBucket, and the relative error (value - low)/value is
	// bounded by 1/histSubBuckets.
	prev := -1
	for _, v := range []int64{0, 1, 15, 16, 17, 30, 31, 32, 33, 63, 64, 100,
		1000, 1 << 20, 1<<40 + 12345} {
		b := histBucket(v)
		if b < prev {
			t.Fatalf("histBucket(%d) = %d < previous %d: not monotone", v, b, prev)
		}
		prev = b
		low := histBucketLow(b)
		if low > v {
			t.Fatalf("histBucketLow(%d) = %d > value %d", b, low, v)
		}
		if histBucket(low) != b {
			t.Fatalf("histBucket(low=%d) = %d, want %d: low is not in its own bucket",
				low, histBucket(low), b)
		}
		if v > 0 && float64(v-low)/float64(v) > 1.0/histSubBuckets {
			t.Fatalf("value %d in bucket [%d,...): relative error > 1/%d",
				v, low, histSubBuckets)
		}
	}
}

func TestHistQuantileDeterministicUnderMergeOrder(t *testing.T) {
	// Exact counts mean a merged histogram equals the histogram of the
	// concatenated observations, in any merge order — the property that
	// keeps goldens byte-identical at any -parallel worker count.
	vals := []int64{3, 99, 12000, 7, 7, 250000, 41, 8, 1 << 30, 999}
	whole := NewHist()
	for _, v := range vals {
		whole.Observe(v)
	}
	a, b := NewHist(), NewHist()
	for i, v := range vals {
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	ab, ba := NewHist(), NewHist()
	ab.Merge(a)
	ab.Merge(b)
	ba.Merge(b)
	ba.Merge(a)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if ab.Quantile(q) != whole.Quantile(q) || ba.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q=%g: merged %d/%d vs whole %d", q,
				ab.Quantile(q), ba.Quantile(q), whole.Quantile(q))
		}
	}
	if ab.Sum() != whole.Sum() || ab.N() != whole.N() || ab.Max() != whole.Max() || ab.Min() != whole.Min() {
		t.Fatal("merged aggregate fields differ from whole")
	}
}

func TestHistMergeEmpty(t *testing.T) {
	h := NewHist()
	h.Observe(5)
	h.Merge(nil)
	h.Merge(NewHist())
	if h.N() != 1 || h.Min() != 5 || h.Max() != 5 {
		t.Fatalf("merging empty changed the histogram: n=%d min=%d max=%d", h.N(), h.Min(), h.Max())
	}
	// Merging INTO an empty histogram adopts the other's min.
	e := NewHist()
	e.Merge(h)
	if e.Min() != 5 {
		t.Fatalf("empty.Merge(h).Min() = %d, want 5 (not the zero min)", e.Min())
	}
}

func TestHistNegativeClampsToZero(t *testing.T) {
	h := NewHist()
	h.Observe(-42)
	if h.N() != 1 || h.Quantile(0.5) != 0 || h.Min() != 0 {
		t.Fatalf("negative observation: n=%d p50=%d min=%d, want 1/0/0", h.N(), h.Quantile(0.5), h.Min())
	}
}

func TestHistInto(t *testing.T) {
	h := NewHist()
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	s := NewSnapshot()
	h.Into(s, "telemetry/e2e")
	for _, suffix := range []string{"/count", "/mean", "/max", "/p50", "/p90", "/p99", "/p999"} {
		if _, ok := s.Values["telemetry/e2e"+suffix]; !ok {
			t.Errorf("missing telemetry/e2e%s", suffix)
		}
	}
	if got := s.Get("telemetry/e2e/count"); got != 100 {
		t.Errorf("count = %g, want 100", got)
	}
	if got := s.Get("telemetry/e2e/max"); got != 100000 {
		t.Errorf("max = %g, want 100000", got)
	}
	// p50 (rank 50 → value 50000) reports the bucket lower bound: within
	// 1/histSubBuckets below the exact value.
	if p50 := s.Get("telemetry/e2e/p50"); p50 > 50000 || p50 < 50000*(1-1.0/histSubBuckets) {
		t.Errorf("p50 = %g, want in (%g, 50000]", p50, 50000*(1-1.0/histSubBuckets))
	}

	// Empty histograms write nothing.
	s2 := NewSnapshot()
	NewHist().Into(s2, "x")
	if len(s2.Values) != 0 {
		t.Errorf("empty hist wrote %v", s2.Values)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewSnapshot()
	a.Set("x", 1)
	a.SetSeries("s", []float64{1}, []float64{2})
	b := NewSnapshot()
	b.Set("x", 2)
	b.Set("y", 3)
	b.SetSeries("t", []float64{4}, []float64{5})
	a.Merge(b)
	if a.Get("x") != 3 || a.Get("y") != 3 {
		t.Fatalf("merged values = %v", a.Values)
	}
	if len(a.Series) != 2 {
		t.Fatalf("merged series = %v", a.Series)
	}

	// Merging nil and empty snapshots — component trees that recorded
	// nothing — is a no-op.
	before := NewSnapshot()
	before.Set("k", 7)
	wantVals := map[string]float64{"k": 7}
	before.Merge(nil)
	before.Merge(NewSnapshot())
	if !reflect.DeepEqual(before.Values, wantVals) || before.Series != nil {
		t.Fatalf("merge of empty tree mutated snapshot: %v / %v", before.Values, before.Series)
	}
}

// N returns the number of observations.
func (h *Hist) N() int64 { return h.n }

// Sum returns the sum of all observed values.
func (h *Hist) Sum() int64 { return h.sum }

// Max returns the largest observed value (0 when empty).
func (h *Hist) Max() int64 { return h.max }

// Min returns the smallest observed value (0 when empty).
func (h *Hist) Min() int64 { return h.min }

// Merge folds o's observations into h.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.n == 0 {
		return
	}
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
	if !h.observed || o.min < h.min {
		h.min = o.min
	}
	h.observed = true
}
