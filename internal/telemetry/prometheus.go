package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// ContentType is the Prometheus text exposition format content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format, sorted by name (then labels) with one
// HELP/TYPE header per metric family. Histograms emit cumulative
// le-bounded buckets (the base-2 bucket upper bounds), _sum and _count.
// A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]*registered, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return metricKey("", ms[i].labels) < metricKey("", ms[j].labels)
	})
	var b strings.Builder
	lastFamily := ""
	for _, m := range ms {
		if m.name != lastFamily {
			lastFamily = m.name
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", m.name, labelString(m.labels, "", ""), m.counter.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %d\n", m.name, labelString(m.labels, "", ""), m.gauge())
		case kindHistogram:
			writeHistogram(&b, m)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram emits cumulative buckets up to the highest non-empty
// one, then +Inf, _sum and _count.
func writeHistogram(b *strings.Builder, m *registered) {
	h := m.hist
	var counts [histBuckets]uint64
	var total uint64
	top := -1
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
		if counts[i] > 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += counts[i]
		_, hi := bucketBounds(i)
		fmt.Fprintf(b, "%s_bucket%s %d\n", m.name, labelString(m.labels, "le", fmt.Sprintf("%d", hi)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", m.name, labelString(m.labels, "le", "+Inf"), total)
	fmt.Fprintf(b, "%s_sum%s %d\n", m.name, labelString(m.labels, "", ""), h.sum.Load())
	fmt.Fprintf(b, "%s_count%s %d\n", m.name, labelString(m.labels, "", ""), total)
}

// labelString renders {k="v",...}, optionally appending one extra label
// (the histogram le bound). Empty label sets render as "".
func labelString(labels []Label, extraName, extraValue string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	return strings.ReplaceAll(s, "\n", "\\n")
}
