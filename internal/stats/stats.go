// Package stats provides the measurement instruments shared by the
// simulators: byte/packet counters, rate meters, streaming histograms
// with percentile queries, load-imbalance metrics, and a packet
// reordering tracker used to size resequencing buffers.
package stats

import (
	"fmt"
	"math"
	"sort"

	"pbrouter/internal/sim"
)

// Counter accumulates packets and bytes.
type Counter struct {
	Packets int64
	Bytes   int64
}

// Add records one packet of the given size in bytes (int32, the type
// of packet.Packet.Size).
func (c *Counter) Add(bytes int32) {
	c.Packets++
	c.Bytes += int64(bytes)
}

// AddBytes records raw bytes without a packet count (used for padding
// and overhead accounting).
func (c *Counter) AddBytes(bytes int64) { c.Bytes += bytes }

// Bits returns the accumulated size in bits.
func (c *Counter) Bits() int64 { return c.Bytes * 8 }

// Rate returns the average rate of the counter over the interval
// [start, end].
func (c *Counter) Rate(start, end sim.Time) sim.Rate {
	return sim.RateOf(c.Bits(), end-start)
}

// MeanSize returns the mean packet size in bytes, or 0 with no packets.
func (c *Counter) MeanSize() float64 {
	if c.Packets == 0 {
		return 0
	}
	return float64(c.Bytes) / float64(c.Packets)
}

// Welford tracks a running mean and variance without storing samples.
type Welford struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one sample.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the sample count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 with no samples.
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest sample, or 0 with no samples.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample, or 0 with no samples.
func (w *Welford) Max() float64 { return w.max }

// Variance returns the sample variance, or 0 with fewer than 2 samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Mean is a sample count and sum, for durations whose mean is the
// only figure read. On the same samples its MeanTime is bit-identical
// to Histogram.MeanTime, without the bucketing.
type Mean struct {
	n   int64
	sum float64
}

// AddTime records a simulated duration sample.
func (m *Mean) AddTime(d sim.Time) {
	m.n++
	m.sum += float64(d)
}

// MeanTime returns the sample mean as a sim.Time, or 0 with no samples.
func (m *Mean) MeanTime() sim.Time {
	if m.n == 0 {
		return 0
	}
	return sim.Time(m.sum / float64(m.n))
}

// Histogram is a streaming histogram over non-negative values with
// geometric buckets, supporting approximate percentile queries with a
// fixed relative error set by the growth factor.
type Histogram struct {
	min       float64 // lower bound of bucket 0
	growth    float64 // bucket width growth factor (> 1)
	logGrowth float64 // math.Log(growth), hoisted off the Add hot path
	counts    []int64
	under     int64 // samples below min
	total     int64
	sum       float64
	maxv      float64
	// bounds[b] is the smallest float64 whose rawBucket is >= b, so a
	// sample buckets by comparison instead of a math.Log call — the
	// table is built lazily by inverting rawBucket ulp-exactly, which
	// keeps the bucketing (and thus every percentile) bit-identical to
	// the log formula. hint caches the last bucket hit; latency
	// distributions are concentrated enough that most samples resolve
	// with two compares. full stops table growth once the next
	// boundary is unrepresentable (near MaxFloat64) or its bucket
	// holds no floats; lookups below the last boundary stay exact.
	bounds []float64
	full   bool
	// log2min and perOctave turn a sample's IEEE-754 exponent and top
	// mantissa bits into a bucket estimate (est ≈ log2(x/min)·buckets
	// per octave) that a short monotone scan over bounds corrects;
	// the scan, not the estimate, decides the bucket, so the estimate
	// only has to be close, never exact.
	log2min   float64
	perOctave float64
}

// maxBounds caps the boundary table; samples past the last boundary
// fall back to the log formula (for the latency histograms that is
// beyond 10^17 ps, i.e. more than a day of simulated queueing).
const maxBounds = 4096

// NewHistogram returns a histogram whose buckets start at min and grow
// geometrically by the given factor (e.g. 1.1 for ~5% percentile
// error). min must be positive and growth > 1.
func NewHistogram(min, growth float64) *Histogram {
	if min <= 0 || growth <= 1 {
		panic("stats: NewHistogram needs min > 0 and growth > 1")
	}
	return &Histogram{
		min: min, growth: growth, logGrowth: math.Log(growth),
		bounds:    []float64{min},
		log2min:   math.Log2(min),
		perOctave: math.Ln2 / math.Log(growth),
	}
}

// NewLatencyHistogram returns a histogram tuned for picosecond
// latencies from 1 ns up, with ~5% bucket resolution.
func NewLatencyHistogram() *Histogram { return NewHistogram(1000, 1.1) }

// rawBucket is the defining bucket formula. bucket must agree with it
// exactly for every x >= min; it stays the reference for the boundary
// construction and the out-of-table fallback.
func (h *Histogram) rawBucket(x float64) int {
	return int(math.Log(x/h.min) / h.logGrowth)
}

// boundary returns the smallest float64 x in (bounds[b-1], hi] with
// rawBucket(x) >= b, bisecting on the float bit pattern (monotone for
// positive floats). The analytic inverse (exp) seeds hi; if even
// MaxFloat64 does not reach bucket b, MaxFloat64 is returned and the
// caller's rawBucket check stops table growth.
func (h *Histogram) boundary(b int) float64 {
	lo := h.bounds[b-1] // rawBucket(lo) == b-1 by construction
	hi := h.min * math.Exp(float64(b)*h.logGrowth)
	if !(hi < math.MaxFloat64) {
		hi = math.MaxFloat64
	}
	for h.rawBucket(hi) < b {
		if hi == math.MaxFloat64 {
			return hi
		}
		hi *= 1 + 1.0/(1<<20) // the exp seed is only a few ulps low
		if !(hi < math.MaxFloat64) {
			hi = math.MaxFloat64
		}
	}
	lob, hib := math.Float64bits(lo), math.Float64bits(hi)
	for lob+1 < hib {
		mid := lob + (hib-lob)/2
		if h.rawBucket(math.Float64frombits(mid)) < b {
			lob = mid
		} else {
			hib = mid
		}
	}
	return math.Float64frombits(hib)
}

// bucket returns rawBucket(x) for x >= min without the per-sample log.
func (h *Histogram) bucket(x float64) int {
	for x >= h.bounds[len(h.bounds)-1] {
		if h.full || len(h.bounds) == maxBounds {
			return h.rawBucket(x)
		}
		t := h.boundary(len(h.bounds))
		if h.rawBucket(t) != len(h.bounds) {
			// Unreachable boundary (beyond MaxFloat64) or a bucket
			// with no representable floats: freeze the table; entries
			// already built stay exact.
			h.full = true
			return h.rawBucket(x)
		}
		h.bounds = append(h.bounds, t)
	}
	// Largest b with bounds[b] <= x. log2(x) from the exponent field
	// plus a 3-bit linear mantissa correction lands est within ~0.2
	// octave of the truth; bounds[0] = min <= x < bounds[len-1] keeps
	// both scans in range.
	bits := math.Float64bits(x)
	l2 := float64(int(bits>>52)-1023) + float64((bits>>49)&7)*0.125
	est := int((l2 - h.log2min) * h.perOctave)
	if est > len(h.bounds)-2 {
		est = len(h.bounds) - 2
	}
	if est < 0 {
		est = 0
	}
	for h.bounds[est] > x {
		est--
	}
	for est+1 < len(h.bounds) && h.bounds[est+1] <= x {
		est++
	}
	return est
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.total++
	h.sum += x
	if x > h.maxv {
		h.maxv = x
	}
	if x < h.min {
		h.under++
		return
	}
	b := h.bucket(x)
	for b >= len(h.counts) {
		h.counts = append(h.counts, 0)
	}
	h.counts[b]++
}

// AddTime records a simulated duration sample.
func (h *Histogram) AddTime(d sim.Time) { h.Add(float64(d)) }

// N returns the number of samples.
func (h *Histogram) N() int64 { return h.total }

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() float64 { return h.maxv }

// Percentile returns an approximation of the p-quantile (p in [0,1]).
// The result carries the relative error of the bucket width. An empty
// histogram reports 0 for every quantile; results never exceed Max, so
// under-min samples and wide final buckets cannot report a quantile
// above the largest recorded value.
func (h *Histogram) Percentile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(math.Ceil(p * float64(h.total)))
	if target < 1 {
		target = 1 // p = 0 means the smallest sample, not "before" it
	}
	if target <= h.under {
		return math.Min(h.min/2, h.maxv)
	}
	cum := h.under
	for b, c := range h.counts {
		cum += c
		if cum >= target {
			lo := h.min * math.Pow(h.growth, float64(b))
			hi := lo * h.growth
			return math.Min((lo+hi)/2, h.maxv)
		}
	}
	return h.maxv
}

// PercentileTime returns Percentile as a sim.Time.
func (h *Histogram) PercentileTime(p float64) sim.Time {
	return sim.Time(h.Percentile(p))
}

// MeanTime returns the mean as a sim.Time.
func (h *Histogram) MeanTime() sim.Time { return sim.Time(h.Mean()) }

// MaxTime returns the max as a sim.Time.
func (h *Histogram) MaxTime() sim.Time { return sim.Time(h.maxv) }

// String summarizes the histogram.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "n=0 (empty)"
	}
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p99=%.1f max=%.1f",
		h.total, h.Mean(), h.Percentile(0.5), h.Percentile(0.99), h.maxv)
}

// JainIndex returns Jain's fairness index of the loads: 1.0 means
// perfectly balanced, 1/n means maximally skewed. Returns 1 for empty
// or all-zero input.
func JainIndex(loads []float64) float64 {
	var sum, sumsq float64
	for _, x := range loads {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 || len(loads) == 0 {
		return 1
	}
	return sum * sum / (float64(len(loads)) * sumsq)
}

// MaxOverMean returns the peak-to-mean ratio of the loads, the
// imbalance metric used for the SPS splitter experiments. Returns 1
// for empty or all-zero input.
func MaxOverMean(loads []float64) float64 {
	if len(loads) == 0 {
		return 1
	}
	var sum, max float64
	for _, x := range loads {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(loads)))
}

// Quantiles returns the given quantiles of a sample slice (which it
// sorts in place).
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sort.Float64s(xs)
	for i, q := range qs {
		idx := int(q * float64(len(xs)-1))
		out[i] = xs[idx]
	}
	return out
}
