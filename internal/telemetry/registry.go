package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// metricKind tags what a registered metric is.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// registered is one named metric in a registry.
type registered struct {
	name   string
	help   string
	kind   metricKind
	labels []Label

	counter *Counter
	gauge   func() int64 // a gauge's value, computed at snapshot/scrape time
	hist    *Histogram
}

// Label is one name=value metric dimension.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Registry is a named collection of metrics. Registration is idempotent:
// asking for an already-registered name+labels combination returns the
// existing metric, so instrumentation sites can re-register freely.
// A nil *Registry is valid and returns nil metrics everywhere — the
// disabled-telemetry fast path.
type Registry struct {
	mu      sync.Mutex
	metrics []*registered // registration order, for stable exposition
	byKey   map[string]*registered
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{byKey: make(map[string]*registered)}
}

// pairLabels converts variadic "k, v, k, v" arguments into Labels,
// panicking on an odd count (a programming error at an instrumentation
// site, not a runtime condition).
func pairLabels(kv []string) []Label {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %v", kv))
	}
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, Label{Name: kv[i], Value: kv[i+1]})
	}
	return out
}

func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('|')
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// lookup returns the existing registration for key, or installs reg.
func (r *Registry) lookup(key string, mk func() *registered) *registered {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		return m
	}
	m := mk()
	r.byKey[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers (or finds) a counter. Labels are k,v pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	ls := pairLabels(labels)
	m := r.lookup(metricKey(name, ls), func() *registered {
		return &registered{name: name, help: help, kind: kindCounter, labels: ls, counter: &Counter{}}
	})
	return m.counter
}

// GaugeFunc registers a gauge whose value fn computes at snapshot/scrape
// time; it is the only kind of gauge. fn must be safe to call from any goroutine and
// must not call back into this registry.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...string) {
	if r == nil {
		return
	}
	ls := pairLabels(labels)
	r.lookup(metricKey(name, ls), func() *registered {
		return &registered{name: name, help: help, kind: kindGauge, labels: ls, gauge: fn}
	})
}

// Histogram registers (or finds) a log-bucketed histogram. Labels are
// k,v pairs.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	ls := pairLabels(labels)
	m := r.lookup(metricKey(name, ls), func() *registered {
		return &registered{name: name, help: help, kind: kindHistogram, labels: ls, hist: &Histogram{}}
	})
	return m.hist
}

// Metric is one entry of a registry snapshot.
type Metric struct {
	Name   string             `json:"name"`
	Kind   string             `json:"kind"` // "counter" | "gauge" | "histogram"
	Labels []Label            `json:"labels,omitempty"`
	Value  int64              `json:"value"` // counter total / gauge value; histogram count
	Hist   *HistogramSnapshot `json:"hist,omitempty"`
}

// Label returns the value of the named label ("" when absent).
func (m Metric) Label(name string) string {
	for _, l := range m.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Snapshot captures every registered metric, sorted by name then label
// key for deterministic output. A nil registry snapshots to nil.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]*registered, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	out := make([]Metric, 0, len(ms))
	for _, m := range ms {
		e := Metric{Name: m.name, Kind: m.kind.String(), Labels: m.labels}
		switch m.kind {
		case kindCounter:
			e.Value = m.counter.Value()
		case kindGauge:
			e.Value = m.gauge()
		case kindHistogram:
			s := m.hist.Snapshot()
			e.Value = int64(s.Count)
			e.Hist = &s
		}
		out = append(out, e)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return metricKey("", out[i].Labels) < metricKey("", out[j].Labels)
	})
	return out
}

// Find returns the snapshot entry for name with the given label pairs,
// and whether it exists. Convenience for tests and status pages.
func (r *Registry) Find(name string, labels ...string) (Metric, bool) {
	ls := pairLabels(labels)
	key := metricKey(name, ls)
	for _, m := range r.Snapshot() {
		if metricKey(m.Name, m.Labels) == key {
			return m, true
		}
	}
	return Metric{}, false
}
