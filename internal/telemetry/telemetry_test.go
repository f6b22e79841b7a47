package telemetry

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestNilSafety: every metric op must be a no-op on nil receivers and a
// nil registry, so instrumentation sites never need nil checks.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var h *Histogram
	h.Observe(9)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Histogram("x", "") != nil {
		t.Fatal("nil registry must return nil metrics")
	}
	r.GaugeFunc("x", "", func() int64 { return 1 })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestCounterConcurrent: sharded counters must not lose increments
// under contention (run with -race in CI).
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, perWorker = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter lost increments: got %d want %d", got, workers*perWorker)
	}
}

// TestHistogramConcurrent drives concurrent recorders with a known value
// mix and checks exact count/sum plus bucket-accurate percentiles: an
// estimate must land inside the power-of-two bucket of the true
// percentile (the histogram's documented accuracy contract).
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// 90% of observations are 100, 10% are 10000.
				if i%10 == 0 {
					h.Observe(10000)
				} else {
					h.Observe(100)
				}
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	wantCount := uint64(workers * perWorker)
	if s.Count != wantCount {
		t.Fatalf("count = %d, want %d", s.Count, wantCount)
	}
	wantSum := int64(workers) * (9000*100 + 1000*10000)
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	// True p50 = 100 → bucket [64, 127]; true p95/p99 = 10000 → bucket
	// [8192, 16383].
	if s.P50 < 64 || s.P50 > 127 {
		t.Fatalf("p50 = %d, want within [64, 127]", s.P50)
	}
	for _, p := range []int64{s.P95, s.P99} {
		if p < 8192 || p > 16383 {
			t.Fatalf("p95/p99 = %d, want within [8192, 16383]", p)
		}
	}
}

// TestHistogramBuckets pins the bucket boundary math: 0 is its own
// bucket, powers of two open new buckets.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		lo, hi int64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 2, 3},
		{4, 4, 7},
		{1023, 512, 1023},
		{1024, 1024, 2047},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.v)
		s := h.Snapshot()
		if s.P50 < c.lo || s.P50 > c.hi {
			t.Errorf("Observe(%d): p50 = %d, want within [%d, %d]", c.v, s.P50, c.lo, c.hi)
		}
		if s.Count != 1 || s.Sum != c.v {
			t.Errorf("Observe(%d): count/sum = %d/%d", c.v, s.Count, s.Sum)
		}
	}
}

// TestRegistryIdempotent: re-registering the same name+labels returns
// the same metric; different labels make distinct metrics.
func TestRegistryIdempotent(t *testing.T) {
	r := New()
	a := r.Counter("hits_total", "hits", "table", "T1")
	b := r.Counter("hits_total", "hits", "table", "T1")
	if a != b {
		t.Fatal("same name+labels must share one counter")
	}
	c := r.Counter("hits_total", "hits", "table", "T2")
	if a == c {
		t.Fatal("different labels must be distinct")
	}
	a.Add(2)
	c.Inc()
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot entries = %d, want 2", len(snap))
	}
	if snap[0].Value != 2 || snap[0].Label("table") != "T1" {
		t.Fatalf("snapshot[0] = %+v", snap[0])
	}
	if m, ok := r.Find("hits_total", "table", "T2"); !ok || m.Value != 1 {
		t.Fatalf("Find(T2) = %+v, %v", m, ok)
	}
}

// fixedGauge is a gauge a test sets by hand, registered through
// GaugeFunc like every production gauge.
type fixedGauge struct{ v atomic.Int64 }

func (g *fixedGauge) Set(v int64) { g.v.Store(v) }

// Gauge registers a fixedGauge under name.
func (r *Registry) Gauge(name, help string) *fixedGauge {
	g := &fixedGauge{}
	r.GaugeFunc(name, help, g.v.Load)
	return g
}

// TestPrometheusGolden pins the exposition format byte for byte.
func TestPrometheusGolden(t *testing.T) {
	r := New()
	r.Counter("app_requests_total", "Requests served.", "code", "200").Add(7)
	r.Gauge("app_queue_depth", "Queue depth.").Set(3)
	h := r.Histogram("app_latency_ns", "Request latency.")
	h.Observe(0)
	h.Observe(1)
	h.Observe(100)
	h.Observe(100)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_latency_ns Request latency.
# TYPE app_latency_ns histogram
app_latency_ns_bucket{le="0"} 1
app_latency_ns_bucket{le="1"} 2
app_latency_ns_bucket{le="3"} 2
app_latency_ns_bucket{le="7"} 2
app_latency_ns_bucket{le="15"} 2
app_latency_ns_bucket{le="31"} 2
app_latency_ns_bucket{le="63"} 2
app_latency_ns_bucket{le="127"} 4
app_latency_ns_bucket{le="+Inf"} 4
app_latency_ns_sum 201
app_latency_ns_count 4
# HELP app_queue_depth Queue depth.
# TYPE app_queue_depth gauge
app_queue_depth 3
# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{code="200"} 7
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGaugeFunc: callback gauges compute at snapshot time.
func TestGaugeFunc(t *testing.T) {
	r := New()
	v := int64(10)
	r.GaugeFunc("live_items", "", func() int64 { return v })
	if m, _ := r.Find("live_items"); m.Value != 10 {
		t.Fatalf("gauge func value = %d", m.Value)
	}
	v = 42
	if m, _ := r.Find("live_items"); m.Value != 42 {
		t.Fatalf("gauge func value after change = %d", m.Value)
	}
}
