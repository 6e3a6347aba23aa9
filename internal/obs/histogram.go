package obs

import (
	"sync/atomic"
	"time"
)

// numBuckets latency buckets double from 1µs; the last bound is
// ~16.8s, wide enough for a stalled RPC and fine enough (×2) for
// usable percentile interpolation. One extra overflow bucket catches
// everything beyond.
const numBuckets = 25

// bucketBounds holds the inclusive upper bound of each bucket
// (bucket i counts observations d <= bucketBounds[i], the `le`
// convention of the Prometheus text format).
var bucketBounds = func() [numBuckets]time.Duration {
	var b [numBuckets]time.Duration
	for i := range b {
		b[i] = time.Microsecond << i
	}
	return b
}()

// Histogram is a fixed-bucket latency histogram. Observations and
// snapshots are lock-free; a snapshot taken during concurrent
// observation is approximate (counts may lag the sum by in-flight
// observations), which is the usual and acceptable histogram
// trade-off.
type Histogram struct {
	name    string
	base    string
	labels  []string
	buckets [numBuckets + 1]atomic.Int64 // +1 = overflow
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

func newHistogram(name, base string, labels []string) *Histogram {
	return &Histogram{name: name, base: base, labels: labels}
}

// Base reports the metric name without labels.
func (h *Histogram) Base() string { return h.base }

// Labels reports the alternating key/value label pairs.
func (h *Histogram) Labels() []string { return h.labels }

// bucketFor returns the index of the bucket owning duration d.
func bucketFor(d time.Duration) int {
	// Binary search beats a linear scan above ~1ms observations; with
	// 25 bounds the difference is marginal, but the search is branch-
	// predictable and allocation-free either way.
	lo, hi := 0, numBuckets
	for lo < hi {
		mid := (lo + hi) / 2
		if d <= bucketBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo // == numBuckets when d exceeds every bound (overflow)
}

// Observe records one latency sample. Negative durations (clock skew)
// count into the first bucket rather than corrupting the histogram.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count reports total observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Snapshot is a consistent-enough view of a histogram for reporting.
type Snapshot struct {
	Name  string
	Count int64
	Sum   time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// Snapshot captures count, sum and the three standard percentiles.
func (h *Histogram) Snapshot() Snapshot {
	var counts [numBuckets + 1]int64
	total := int64(0)
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return Snapshot{
		Name:  h.name,
		Count: total,
		Sum:   time.Duration(h.sum.Load()),
		P50:   quantile(counts[:], total, 0.50),
		P95:   quantile(counts[:], total, 0.95),
		P99:   quantile(counts[:], total, 0.99),
	}
}

func quantile(counts []int64, total int64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= numBuckets {
			// Overflow bucket: the best available answer is the last
			// finite bound.
			return bucketBounds[numBuckets-1]
		}
		lower := time.Duration(0)
		if i > 0 {
			lower = bucketBounds[i-1]
		}
		upper := bucketBounds[i]
		frac := (rank - float64(prev)) / float64(c)
		return lower + time.Duration(frac*float64(upper-lower))
	}
	return bucketBounds[numBuckets-1]
}

// BucketBound exposes the inclusive upper bound of bucket i, for the
// boundary tests and the exposition writer. i == numBuckets names the
// overflow bucket and reports a negative sentinel.
func BucketBound(i int) time.Duration {
	if i < 0 || i >= numBuckets {
		return -1
	}
	return bucketBounds[i]
}

// NumBuckets reports the number of finite buckets.
func NumBuckets() int { return numBuckets }

// BucketCount reads the count of bucket i (i == NumBuckets() reads the
// overflow bucket).
func (h *Histogram) BucketCount(i int) int64 {
	if i < 0 || i > numBuckets {
		return 0
	}
	return h.buckets[i].Load()
}
