package metrics

import (
	"math/bits"
	"sort"
)

// Hist is a deterministic log-bucketed latency histogram: exact integer
// counts (no sampling, no reservoirs), so identical runs — at any worker
// count — produce byte-identical quantiles and goldens stay stable.
//
// Bucketing follows the HDR scheme: values below 2*histSubBuckets get an
// exact bucket each; above that, every power-of-two octave is split into
// histSubBuckets linear sub-buckets, so the relative quantile error is
// bounded by 1/histSubBuckets (12.5%) at any magnitude. Values are
// unit-agnostic int64s; telemetry feeds picoseconds.
type Hist struct {
	counts   map[int]int64
	n        int64
	sum      int64
	max      int64
	min      int64
	observed bool
}

const (
	histSubBits    = 3
	histSubBuckets = 1 << histSubBits
)

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{counts: make(map[int]int64)}
}

// histBucket maps a value to its bucket index.
func histBucket(v int64) int {
	if v < 2*histSubBuckets {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	shift := exp - histSubBits
	return int(int64(shift+1)<<histSubBits + (v>>shift - histSubBuckets))
}

// histBucketLow returns the smallest value mapping to bucket b — the
// deterministic representative Quantile reports.
func histBucketLow(b int) int64 {
	if b < 2*histSubBuckets {
		return int64(b)
	}
	u := b >> histSubBits // octave + 1
	rem := int64(b & (histSubBuckets - 1))
	return (histSubBuckets + rem) << (u - 1)
}

// Observe records one value. Negative values clamp to zero (they cannot
// occur on a causally-stamped path; the clamp keeps the type total).
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if !h.observed || v < h.min {
		h.min = v
	}
	h.observed = true
}

// Mean returns the exact arithmetic mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the lower bound of the bucket holding the q-quantile
// observation (0 <= q <= 1; rank = ceil(q*n)). Exact counts plus the fixed
// bucket rule make this fully deterministic.
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	keys := make([]int, 0, len(h.counts))
	for b := range h.counts {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	var cum int64
	for _, b := range keys {
		cum += h.counts[b]
		if cum >= rank {
			return histBucketLow(b)
		}
	}
	return histBucketLow(keys[len(keys)-1])
}

// Into writes the histogram's summary under prefix: count, mean, max, and
// the p50/p90/p99/p999 quantiles (sandiff labels the quantile fields
// separately in drift checks). Empty histograms write nothing, so unused
// paths leave no metric names behind.
func (h *Hist) Into(s *Snapshot, prefix string) {
	if h.n == 0 {
		return
	}
	s.SetInt(prefix+"/count", h.n)
	s.Set(prefix+"/mean", h.Mean())
	s.SetInt(prefix+"/max", h.max)
	s.SetInt(prefix+"/p50", h.Quantile(0.50))
	s.SetInt(prefix+"/p90", h.Quantile(0.90))
	s.SetInt(prefix+"/p99", h.Quantile(0.99))
	s.SetInt(prefix+"/p999", h.Quantile(0.999))
}
