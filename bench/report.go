package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// selfcheckReport compares two sets of result lines of the same code
// (selfcheck.sh's A and B). Each input line is "<workload> <result
// JSON>". It prints both sets' medians and quartiles per metric and
// returns 1 when an end-to-end metric's medians differ by more than
// its bound, or a run was not correct.
func selfcheckReport(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench selfcheck-report A.txt B.txt")
		return 2
	}
	var sets [2]map[string]map[string][]float64 // workload -> metric -> values
	bad := 0
	for k, path := range paths {
		sets[k] = map[string]map[string][]float64{}
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			workload, line, _ := strings.Cut(sc.Text(), " ")
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
				return 2
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Printf("FAIL %s: correct=%v failed=%d of %d\n", workload, res.Correct, res.Failed, res.Attempted)
				bad++
			}
			if sets[k][workload] == nil {
				sets[k][workload] = map[string][]float64{}
			}
			for name, mv := range res.Metrics {
				sets[k][workload][name] = append(sets[k][workload][name], mv.Value)
			}
		}
		f.Close()
	}
	bounds := map[string]metricDef{}
	for _, d := range endToEndDefs {
		bounds[d.Name] = d
	}
	fmt.Printf("%-8s %-22s %12s %12s %12s | %12s %12s %12s | %8s %6s\n",
		"workload", "metric", "A.q1", "A.median", "A.q3", "B.q1", "B.median", "B.q3", "diff", "bound")
	for _, w := range workloads {
		names := make([]string, 0, len(sets[0][w.name]))
		for name := range sets[0][w.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a, b := sets[0][w.name][name], sets[1][w.name][name]
			ma, mb := median(a), median(b)
			// diff > 0 means B is worse than A.
			diff := ratio(mb-ma, ma)
			def, gated := bounds[name]
			if gated && def.Better == "higher" {
				diff = -diff
			}
			verdict := ""
			if gated {
				verdict = fmt.Sprintf("%6.3f", *def.Bound)
				if diff > *def.Bound || -diff > *def.Bound {
					verdict += " FAIL"
					bad++
				}
			}
			fmt.Printf("%-8s %-22s %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f | %+7.2f%% %s\n",
				w.name, name, quantile(a, 0.25), ma, quantile(a, 0.75), quantile(b, 0.25), mb, quantile(b, 0.75), 100*diff, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d failure(s)\n", bad)
		return 1
	}
	fmt.Println("selfcheck: both sets agree within every bound")
	return 0
}

// contract is BENCHMARK.json as this package defines it.
type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []metricDef        `json:"end_to_end"`
	PerLayer   []metricDef        `json:"per_layer"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 20

func theContract() contract {
	c := contract{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndDefs,
		PerLayer:   layerDefs,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWorkload{w.name, w.why})
	}
	return c
}
