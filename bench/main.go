// Command bench is the archive's load generator: four fixed-work
// workloads over one deployment, eight end-to-end metrics from an
// untraced run and a per-layer breakdown from a traced one. See
// README.md in this directory; BENCHMARK.json at the repository root is
// the contract it is run under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
)

// options is one run. The driver sets workload, seed, seconds and
// trace; ops and setups follow from them (parseFlags) and are fields
// only so that the smoke tests can ask for less.
type options struct {
	workload workloadSpec
	seed     int64
	ops      int // measured ops
	trace    bool
	setups   int    // builds of the deployment; setup_s is their median
	dir      string // parent of the run directory
	traceOut string
}

// setupRepeats is how many times an untraced run builds the deployment:
// one build is a single sample of about a second of work.
const setupRepeats = 5

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "selfcheck-report":
			os.Exit(selfcheckReport(os.Args[2:]))
		case "contract": // prints BENCHMARK.json as this package defines it
			b, _ := json.MarshalIndent(theContract(), "", "  ")
			fmt.Println(string(b))
			return
		}
	}
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	res, err := runBenchmark(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "browse, report, ingest or mixed")
	seed := fs.Int64("seed", 1, "seed of the preload and the op script")
	seconds := fs.Int("seconds", runSeconds, "nominal length of the measured phase; the op count is seconds x the workload's frozen ops per second")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	dir := fs.String("dir", filepath.Join(".bench_build", "runs"), "directory the run's data is created under")
	traceOut := fs.String("trace-out", "", "where a traced run writes its spans (default <dir>/trace-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return options{}, fmt.Errorf("unknown -workload %q", *name)
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("-seconds must be at least 1")
	}
	o := options{workload: w, seed: *seed, ops: *seconds * w.opsPerSec, trace: *trace != 0, setups: setupRepeats, dir: *dir, traceOut: *traceOut}
	if o.trace {
		// Half the ops, every other block of them with spans recorded:
		// a quarter traced, a quarter as the run's own untraced baseline.
		o.ops = (o.ops + 1) / 2
		o.setups = 1
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(o.dir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, o.seed))
	}
	return o, nil
}

// hostInfo is printed before the result so records from different
// hosts are never compared by accident.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	FSType     string `json:"fs_type"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Ops        int    `json:"ops"`
	Clients    int    `json:"clients"`
}

var fsNames = map[int64]string{
	0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
}

func describeHost(o options) (hostInfo, error) {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOGC: os.Getenv("GOGC"), Commit: os.Getenv("BENCH_COMMIT"), FSType: "unknown",
		Workload: o.workload.name, Seed: o.seed, Ops: o.ops, Clients: 1,
	}
	if h.GOGC == "" {
		h.GOGC = "100"
	}
	// The load is sized for the cores present: one closed-loop client
	// (plus the paced writer in mixed). More Ps than cores only adds
	// scheduler noise.
	if h.GOMAXPROCS > h.NProc {
		return h, fmt.Errorf("GOMAXPROCS %d exceeds the %d cores present", h.GOMAXPROCS, h.NProc)
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(o.dir, &st); err == nil {
		if name, ok := fsNames[int64(st.Type)]; ok {
			h.FSType = name
		} else {
			h.FSType = fmt.Sprintf("0x%x", st.Type)
		}
	}
	if h.Commit == "" {
		h.Commit = "unknown" // run.sh sets BENCH_COMMIT when the checkout is a git repository
	}
	return h, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runBenchmark is one run: set-up, warm-up, measured phase, checks.
func runBenchmark(o options) (*result, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	host, err := describeHost(o)
	if err != nil {
		return nil, err
	}
	if line, err := json.Marshal(map[string]hostInfo{"host": host}); err == nil {
		fmt.Println(string(line))
	}
	runDir, err := os.MkdirTemp(o.dir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	m := newModel(o.seed)
	sc := newScript(o.workload, m, o.ops)

	var tr *tracer
	wrap := plainHost
	if o.trace {
		tr = newTracer(o.workload, o.ops)
		wrap = func(h core.FileHost) core.FileHost { return tracedHost{h, tr} }
	}

	// The runs' output files are placed once; set-up is then repeated
	// and its median reported, each build scaled to the reference host's
	// speed like every other time (probe.go): one build is a single
	// sample of a third of a second of work.
	dir := filepath.Join(runDir, "d")
	if err := placeFiles(dir, m); err != nil {
		return nil, err
	}
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	var d *deployment
	setup := make([]float64, o.setups)
	for k := range setup {
		before := probe.loadNs()
		t0 := time.Now()
		if d, err = build(dir, m, wrap); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup[k] = time.Since(t0).Seconds() * scale(before, probe.loadNs())
		if k < len(setup)-1 {
			if err := d.unbuild(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
	}
	d.probe = probe
	defer d.close()
	if o.trace {
		d.arch.DB.SetLinkController(tracedLinks{d.arch.Coord, tr})
	}

	r := newRunner(o, d, m, sc, tr)
	if err := r.run(); err != nil {
		return nil, err
	}
	// How fast the host was, next to the result scaled by it.
	fmt.Printf(`{"host_probe":{"load_ns":%.2f,"ref_load_ns":%.0f}}`+"\n", r.hostLoadNs(), refLoadNs)
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if o.trace {
		r.layerMetrics(res.Metrics)
		if err := tr.writeTrace(o.traceOut); err != nil {
			return nil, err
		}
	} else {
		r.endToEndMetrics(res.Metrics, median(setup))
	}
	for _, msg := range r.problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", msg)
	}
	res.Correct = len(r.problems) == 0
	return res, nil
}
