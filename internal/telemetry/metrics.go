// Package telemetry is the engine's dependency-free metrics core: sharded
// atomic counters, callback gauges and log-bucketed latency histograms,
// collected in a named registry and exposed programmatically
// (Registry.Snapshot) or as Prometheus text format
// (Registry.WritePrometheus).
//
// Every metric type is safe for concurrent use and nil-safe: methods on
// a nil *Counter/*Histogram are no-ops, so instrumentation sites
// can hold possibly-unregistered handles and pay (near) nothing when a
// metric is not exported. Recording on a live metric is one or two
// uncontended atomic adds — cheap enough for per-statement hot paths.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"
)

// counterShards must be a power of two. Shards are cache-line padded so
// concurrent writers on different Ps do not false-share.
const counterShards = 16

type counterShard struct {
	v atomic.Int64
	_ [120]byte
}

// Counter is a monotonically increasing sharded counter. The shard is
// picked from the caller's stack address — goroutines live on distinct
// stacks, so concurrent writers spread across shards without any
// runtime-internal hooks.
type Counter struct {
	shards [counterShards]counterShard
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	var probe byte
	i := (uintptr(unsafe.Pointer(&probe)) >> 10) & (counterShards - 1)
	c.shards[i].v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter's current total. The sum is not an atomic
// snapshot across shards; concurrent adds may or may not be included,
// which is the standard monitoring contract.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// histBuckets covers every non-negative int64: bucket i holds values v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).  Bucket 0 holds
// exactly the value 0.
const histBuckets = 64

// Histogram is a log-bucketed (base-2) histogram of non-negative int64
// observations — typically latencies in nanoseconds, or sizes/counts.
// Recording is a few atomic adds; quantiles are estimated from the
// bucket counts with linear interpolation inside the winning bucket, so
// an estimate is always within the true value's power-of-two bucket.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
}

// Observe records one value. Negative values clamp to zero. No-op on a
// nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed time since start, in nanoseconds.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Nanoseconds())
}

// HistogramSnapshot is a point-in-time summary of a histogram.
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum"`
	P50   int64  `json:"p50"`
	P95   int64  `json:"p95"`
	P99   int64  `json:"p99"`
}

// Mean returns the arithmetic mean of all observations (0 when empty).
func (s HistogramSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / int64(s.Count)
}

// Snapshot captures the histogram's bucket state and estimates the
// standard percentiles. Safe concurrently with Observe; a concurrent
// observation is either fully included or fully excluded per bucket.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var snap HistogramSnapshot
	if h == nil {
		return snap
	}
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	snap.Count = total
	snap.Sum = h.sum.Load()
	if total == 0 {
		return snap
	}
	snap.P50 = quantile(&counts, total, 0.50)
	snap.P95 = quantile(&counts, total, 0.95)
	snap.P99 = quantile(&counts, total, 0.99)
	return snap
}

// bucketBounds returns the value range [lo, hi] covered by bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, int64(^uint64(0) >> 1)
	}
	hi = int64(1)<<i - 1
	return lo, hi
}

// quantile locates the bucket holding the q-th sample and interpolates
// linearly inside it.
func quantile(counts *[histBuckets]uint64, total uint64, q float64) int64 {
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if rank < seen+c {
			lo, hi := bucketBounds(i)
			frac := float64(rank-seen) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		seen += c
	}
	return 0
}
