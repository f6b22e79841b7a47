// Command easiabench regenerates every table and figure of the paper's
// evaluation (experiments E1–E12, implemented in internal/exp) and
// prints them in the paper's format.
//
// Usage:
//
//	easiabench              # run everything
//	easiabench -exp e1,e3   # run selected experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
)

// osTempDirer supplies throw-away directories outside of `go test`.
type osTempDirer struct{ dirs []string }

func (o *osTempDirer) TempDir() string {
	d, err := os.MkdirTemp("", "easiabench-*")
	if err != nil {
		panic(err)
	}
	o.dirs = append(o.dirs, d)
	return d
}

func (o *osTempDirer) cleanup() {
	for _, d := range o.dirs {
		os.RemoveAll(d)
	}
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (e1..e12) or 'all'")
	latency := flag.Bool("latency", false, "run the per-query latency workload instead of the experiments and print p50/p95/p99 JSON")
	latencyN := flag.Int("latency-n", 2000, "executions per query in -latency mode")
	flag.Parse()

	if *latency {
		if err := runLatency(*latencyN); err != nil {
			fmt.Fprintf(os.Stderr, "latency: %v\n", err)
			os.Exit(1)
		}
		return
	}

	dirs := &osTempDirer{}
	defer dirs.cleanup()

	want := map[string]bool{}
	runAll := *expFlag == "all" || *expFlag == ""
	for _, id := range strings.Split(strings.ToLower(*expFlag), ",") {
		want[strings.TrimSpace(id)] = true
	}
	selected := func(id string) bool { return runAll || want[strings.ToLower(id)] }

	type runner struct {
		id string
		fn func() (exp.Report, error)
	}
	runners := []runner{
		{"E1", func() (exp.Report, error) { return exp.E1BandwidthTable(), nil }},
		{"E2", func() (exp.Report, error) { return exp.E2Report(), nil }},
		{"E3", func() (exp.Report, error) { return exp.E3Report(dirs) }},
		{"E4", func() (exp.Report, error) { return exp.E4Report(), nil }},
		{"E5", func() (exp.Report, error) { return exp.E5Report(), nil }},
		{"E6", func() (exp.Report, error) { return exp.E6EndToEnd(dirs) }},
		{"E7", func() (exp.Report, error) { return exp.E7Report(dirs) }},
		{"E8", func() (exp.Report, error) { return exp.E8Report(dirs) }},
		{"E9", exp.E9Report},
		{"E10", exp.E10Report},
		{"E11", func() (exp.Report, error) { return exp.E11Report(dirs) }},
		{"E12", func() (exp.Report, error) { return exp.E12Report(dirs) }},
	}
	failed := false
	for _, r := range runners {
		if !selected(r.id) {
			continue
		}
		report, err := r.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.id, err)
			failed = true
			continue
		}
		fmt.Printf("=== %s: %s ===\n%s\n", report.ID, report.Title, report.Text)
	}
	if failed {
		os.Exit(1)
	}
}
