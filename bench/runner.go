package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// counters is the process and engine state read at both ends of the
// measured phase.
type counters struct {
	at      time.Time
	mem     runtime.MemStats
	hist    map[string][2]int64 // engine histogram name -> (count, sum)
	counter map[string]int64    // engine counter or gauge name -> value
	rpcs    int64
}

func (r *runner) snap() counters {
	c := counters{hist: map[string][2]int64{}, counter: map[string]int64{}}
	for _, m := range r.d.arch.DB.MetricsSnapshot() {
		if len(m.Labels) > 0 {
			continue
		}
		if m.Hist != nil {
			c.hist[m.Name] = [2]int64{int64(m.Hist.Count), m.Hist.Sum}
		} else {
			c.counter[m.Name] = m.Value
		}
	}
	c.rpcs = r.d.rpcCount()
	runtime.ReadMemStats(&c.mem)
	c.at = time.Now()
	return c
}

// runner drives one workload over one deployment.
type runner struct {
	o  options
	d  *deployment
	m  *model
	sc *script
	tr *tracer

	ops, warm int
	reader    *client
	wr        *writer // mixed only

	c0, c1   counters
	measured *phase
	shadows  shadowStats
	wal      *walWatch

	bytes0   int64 // page bytes served before the measured phase
	liveHeap uint64
	stored   int64
	logical  int64
	recovery time.Duration

	attempted, failed int
	problems          []string
}

// newTracer sizes the lanes for a traced run so recording never
// allocates: at most 24 spans per op including shadows.
func newTracer(w workloadSpec, ops int) *tracer {
	base := time.Now()
	t := &tracer{read: newLane(base, 24*(ops+1))}
	t.write = t.read
	if w.name == "mixed" {
		// Switched on when the paced writer starts and off when it stops,
		// never by the reader: the preload and the top-up leave no spans.
		t.write = newLane(base, 8*mixedWriterSteps(w, ops))
	}
	return t
}

func newRunner(o options, d *deployment, m *model, sc *script, tr *tracer) *runner {
	r := &runner{o: o, d: d, m: m, sc: sc, tr: tr, ops: o.ops, warm: o.ops / warmupShare}
	var rl, wl *lane
	if tr != nil {
		rl, wl = tr.read, tr.write
		r.wal = newWALWatch(d)
	}
	r.reader = newClient(d, m, rl)
	if o.workload.name == "mixed" {
		r.wr = &writer{c: newClient(d, m, wl), steps: sc.steps}
	}
	return r
}

func (r *runner) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// opFuncs returns the workload's before/do/after hooks for the loop.
func (r *runner) opFuncs() (before func(int), do func(int) bool, after func(int)) {
	c, sc := r.reader, r.sc
	if r.wal != nil {
		after = func(int) { r.wal.sample() }
	}
	switch r.o.workload.name {
	case "browse":
		do = func(i int) bool { return c.visit(&sc.visits[i]) }
	case "report":
		do = func(i int) bool { return c.report(&sc.reports[i]) }
	case "ingest":
		before = func(i int) { c.stage(&sc.steps[i]) }
		do = func(i int) bool { return c.apply(sc.steps, i) }
	case "mixed":
		do = func(i int) bool {
			v := &sc.visits[i]
			ok := c.visit(v)
			return c.download(v.file[0], v.file[1]) && ok
		}
	}
	return before, do, after
}

// shadowPhase decomposes every traced visit of the measured phase.
func (r *runner) shadowPhase() {
	ln := r.reader.ln
	if ln == nil || len(r.sc.visits) == 0 {
		return
	}
	ln.on = true
	for k, sp := range r.measured.opSpan {
		if sp < 0 {
			continue
		}
		ln.op = sp
		v := &r.sc.visits[r.warm+k]
		r.reader.shadow(v, &r.shadows)
		if r.wr != nil {
			r.reader.shadowTokens(v.file[0], v.file[1], &r.shadows)
		}
	}
	if r.shadows.failed > 0 {
		r.problem("%d shadow calls failed", r.shadows.failed)
	}
}

func (r *runner) run() error {
	before, do, after := r.opFuncs()
	c := r.reader

	// Warm-up is never traced and never counted.
	ln := c.ln
	c.ln = nil
	warmup := c.loop(0, r.warm, before, do, nil)
	c.ln = ln
	if warmup.failed > 0 {
		return fmt.Errorf("%d of %d warm-up ops failed", warmup.failed, warmup.attempted)
	}
	if r.wal != nil {
		r.wal.sample()
		r.wal.grown, r.wal.checkpoints = 0, 0
	}
	r.bytes0 = c.bytesOut
	runtime.GC()

	r.c0 = r.snap()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	if r.wr != nil {
		if ln := r.wr.c.ln; ln != nil {
			ln.on = true
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.wr.run(r.c0.at, stop)
		}()
	}
	r.measured = c.loop(r.warm, r.warm+r.ops, before, do, after)
	r.c1 = r.snap()
	close(stop)
	wg.Wait()
	if w := r.wr; w != nil && w.c.ln != nil {
		w.c.ln.on = false // the top-up below is not part of the trace
	}

	r.attempted, r.failed = r.measured.attempted, r.measured.failed
	for _, i := range r.measured.wrong {
		r.problem("op %d failed its oracle", i)
	}
	if w := r.wr; w != nil {
		r.attempted += w.attempted
		r.failed += w.failed
		for _, i := range w.wrong {
			r.problem("writer step %d failed", i)
		}
		// Apply the rest of the fixed step count unpaced, so every run of
		// this workload ends in the same state.
		for ; w.next < len(w.steps); w.next++ {
			w.c.stage(&w.steps[w.next])
			if !w.c.apply(w.steps, w.next) {
				r.problem("top-up step %d failed", w.next)
			}
		}
	}
	r.shadowPhase()
	if r.tr != nil {
		for _, l := range r.tr.lanes() {
			l.on = false
		}
	}

	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.liveHeap = ms.HeapAlloc
	var err error
	if r.stored, err = r.d.storedBytes(); err != nil {
		return err
	}
	r.logical = r.m.preloadBytes()
	for _, i := range r.ackedSteps() {
		s := &r.sc.steps[i]
		r.logical += rowBytes(s.run, s.ts, true)
	}

	r.verify()
	return r.checkRecovery()
}

// ackedSteps lists every acknowledged archive step of the run, warm-up
// and top-up included: the writer's in mixed, the only client's in ingest.
func (r *runner) ackedSteps() []int {
	if r.wr != nil {
		return r.wr.c.acked
	}
	return r.reader.acked
}

// hostLoadNs is the median host probe sample of the measured phase.
func (r *runner) hostLoadNs() float64 {
	var v []float64
	for _, m := range r.measured.marks {
		v = append(v, m.load)
	}
	return median(v)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-quantile of v, interpolating linearly between the
// two nearest ranks; it sorts a copy.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func toFloat(ns []int64, scale float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / scale
	}
	return out
}

const (
	usec = 1e3 // ns per µs
	msec = 1e6 // ns per ms
	kib  = 1024.0
	mib  = 1024.0 * 1024.0
)

// endToEndMetrics fills the end-to-end metrics of an untraced run. The
// four time metrics are medians over the phase's blocks, each block
// scaled to the reference host's speed by the probe samples at its ends
// (probe.go).
func (r *runner) endToEndMetrics(out map[string]metricValue, setupS float64) {
	p := r.measured
	var p25, p75, rate, cpu []float64
	for k := 1; k < len(p.marks); k++ {
		a, b := p.marks[k-1], p.marks[k]
		n := float64(b.nlat - a.nlat)
		if n == 0 {
			continue // every op of the block failed; the run is rejected on `failed` anyway
		}
		lat := toFloat(p.lat[a.nlat:b.nlat], msec)
		f := scale(a.load, b.load)
		p25 = append(p25, quantile(lat, 0.25)*f)
		p75 = append(p75, quantile(lat, 0.75)*f)
		rate = append(rate, n/b.at.Sub(a.at).Seconds()/f)
		cpu = append(cpu, float64(b.cpu-a.cpu)/msec/n*f)
	}
	n := float64(max(len(p.lat), 1))
	out["setup_s"] = metricValue{setupS, "s"}
	out["p25_ms"] = metricValue{median(p25), "ms"}
	out["p75_ms"] = metricValue{median(p75), "ms"}
	out["ops_s"] = metricValue{median(rate), "1/s"}
	out["cpu_ms_per_op"] = metricValue{median(cpu), "ms"}
	out["alloc_kb_per_op"] = metricValue{float64(r.c1.mem.TotalAlloc-r.c0.mem.TotalAlloc) / kib / n, "KiB"}
	out["live_heap_mb"] = metricValue{float64(r.liveHeap) / mib, "MiB"}
	out["space_amp"] = metricValue{float64(r.stored) / float64(r.logical), "ratio"}
}

// checkRecovery copies the archive's directories as they are — no
// Close, so nothing the process still buffers is in the copy — reopens
// the copy and, for the write workloads, holds it to the acknowledged
// writes.
func (r *runner) checkRecovery() error {
	writes := len(r.ackedSteps()) > 0
	if !writes && r.tr == nil {
		return nil // read-only and untraced: nothing to check, nothing to time
	}
	dst := filepath.Join(filepath.Dir(r.d.dir), "recovered")
	if err := copyTree(r.d.dbDir(), filepath.Join(dst, "db")); err != nil {
		return err
	}
	if writes {
		for i := range r.d.stores {
			if err := copyTree(storeDir(r.d.dir, i), storeDir(dst, i)); err != nil {
				return err
			}
		}
	}
	t0 := time.Now()
	rec, err := openArchive(dst, plainHost)
	r.recovery = time.Since(t0)
	if err != nil {
		r.problem("reopening the copied archive: %v", err)
		return nil
	}
	defer rec.close()
	if writes {
		r.checkDurable(rec)
	}
	return nil
}

// copyTree copies the regular files under src to the same places
// under dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		if !fi.Mode().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}
