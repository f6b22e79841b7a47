package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The generator is a pure function of (workload, seed): the same seed
// gives the same preload and op script, another seed gives another.
func TestGeneratorIsPure(t *testing.T) {
	const ops = 300
	if !reflect.DeepEqual(newModel(1), newModel(1)) {
		t.Fatal("two models of seed 1 differ")
	}
	if reflect.DeepEqual(newModel(1), newModel(2)) {
		t.Fatal("models of seeds 1 and 2 are identical")
	}
	if a, b := newModel(1).preloadBytes(), newModel(2).preloadBytes(); a != b {
		t.Fatalf("logical size depends on the seed: %d and %d", a, b)
	}
	for _, w := range workloads {
		a, b := newScript(w, newModel(1), ops), newScript(w, newModel(1), ops)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two scripts of seed 1 differ", w.name)
		}
		if c := newScript(w, newModel(2), ops); reflect.DeepEqual(a, c) {
			t.Errorf("%s: scripts of seeds 1 and 2 are identical", w.name)
		}
		if n := len(a.visits) + len(a.reports); n != 0 && n != ops+ops/warmupShare {
			t.Errorf("%s: %d reader ops, want %d", w.name, n, ops+ops/warmupShare)
		}
	}
	var a, b [fileBytes]byte
	newModel(1).fillBody(a[:], 370, 3)
	newModel(1).fillBody(b[:], 370, 4)
	if a == b {
		t.Error("two files have the same content")
	}
}

// browse stays on the runs nothing writes to and that hold no link;
// mixed reads the runs its writer writes to, and every search window
// there holds exactly one linked row, so all ops have one shape.
func TestVisitsKeepTheirShape(t *testing.T) {
	m := newModel(1)
	for _, name := range []string{"browse", "mixed"} {
		w, _ := findWorkload(name)
		for _, v := range newScript(w, m, 500).visits {
			if archived := v.run >= firstArchived; archived != (name == "mixed") {
				t.Fatalf("%s visits run %d", name, v.run)
			}
			linked := 0
			for ts := v.tsFrom; ts < v.tsFrom+searchRows; ts++ {
				if preloadLinked(v.run, ts) {
					linked++
				}
			}
			if want := map[string]int{"browse": 0, "mixed": 1}[name]; linked != want || v.tsFrom+searchRows > nSteps {
				t.Fatalf("%s: window from %d of run %d holds %d linked rows, want %d", name, v.tsFrom, v.run, linked, want)
			}
			if name == "mixed" && !preloadLinked(v.file[0], v.file[1]) {
				t.Fatalf("mixed downloads (%d, %d), which is not preloaded", v.file[0], v.file[1])
			}
		}
	}
}

// A 120-op run of every workload (30 for report, whose op is four
// large statements) passes its oracle, its full checks and (for the
// write workloads) the durability check, and reports every metric
// BENCHMARK.json names. The workloads run two at a time and the traced
// runs are left out of `go test -short`, which then takes under 5 s.
func TestSmokeRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // one run is mostly set-up; two at a time fit the two cores
			for _, trace := range []bool{false, true} {
				if trace && testing.Short() {
					continue
				}
				dir := t.TempDir()
				o := options{workload: w, seed: 3, ops: 120, trace: trace, setups: 1, dir: dir,
					traceOut: filepath.Join(dir, "trace.jsonl")}
				if w.name == "report" {
					o.ops = 30
				}
				res, err := runBenchmark(o)
				if err != nil {
					t.Fatalf("%s trace=%v: %v", w.name, trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < o.ops {
					t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEndDefs
				if trace {
					defs = layerDefs
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					mv, ok := res.Metrics[d.Name]
					if !ok || mv.Unit != d.Unit {
						t.Errorf("%s trace=%v: metric %s is %+v", w.name, trace, d.Name, mv)
					}
					if !trace && mv.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, d.Name, mv.Value)
					}
				}
				if !trace {
					continue
				}
				m := res.Metrics
				if fi, err := os.Stat(o.traceOut); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
				// Each workload isolates what it was built for.
				switch w.name {
				case "browse", "report":
					if m["sqldb.wal_fsyncs_per_op"].Value != 0 || m["dlfs.rpcs_per_op"].Value != 0 {
						t.Errorf("%s touched the write path: %v fsyncs, %v RPCs per op", w.name,
							m["sqldb.wal_fsyncs_per_op"].Value, m["dlfs.rpcs_per_op"].Value)
					}
				case "ingest":
					if m["sqldb.wal_fsyncs_per_op"].Value != 2 || m["dlfs.rpcs_per_op"].Value != 3 {
						t.Errorf("ingest: %v fsyncs and %v RPCs per step, want 2 and 3",
							m["sqldb.wal_fsyncs_per_op"].Value, m["dlfs.rpcs_per_op"].Value)
					}
				case "mixed":
					if m["mixed.writes_done"].Value == 0 || m["dlfs.open_us"].Value == 0 || m["dlfs.stat_us"].Value == 0 {
						t.Errorf("mixed: %v writes, open %v us, stat %v us (no linked cell rendered)",
							m["mixed.writes_done"].Value, m["dlfs.open_us"].Value, m["dlfs.stat_us"].Value)
					}
				}
				if m["trace.coverage_pct"].Value < 90 {
					t.Errorf("%s: coverage %v%%", w.name, m["trace.coverage_pct"].Value)
				}
			}
		})
	}
}

// BENCHMARK.json is what `bench contract` prints.
func TestContractFile(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file, want any
	if err := json.Unmarshal(got, &file); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(theContract())
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, want) {
		t.Error("BENCHMARK.json differs from the tables in layers.go and gen.go; regenerate it with `bench contract`")
	}
}
