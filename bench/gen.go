package main

import (
	"fmt"
	"math/rand"
	"net/url"

	"repro/internal/sqltypes"
)

// Dataset turb-20k. The sizes are part of the benchmark's definition:
// changing one makes every earlier record incomparable.
const (
	nAuthors  = 50
	nRuns     = 400
	nSteps    = 50   // preloaded timesteps per run
	nArchived = 200  // the last nArchived runs carry linked files and take every write
	linkEvery = 20   // an archived run's preloaded timesteps 0, 20 and 40 carry a linked file; = searchRows
	fileBytes = 2048 // size of every linked file

	firstArchived = nRuns - nArchived
	nLinked       = (nSteps + linkEvery - 1) / linkEvery // preloaded linked files per archived run

	// fullCheckEvery: one op in this many is re-checked value by value
	// against the model after the measured phase.
	fullCheckEvery = 64
)

// hosts are the two file-server hosts of the distributed layout; an
// archived run's files live on hosts[run%2].
var hosts = [2]string{"fs1.sim:80", "fs2.sim:80"}

// measurements all have the same length, so the logical size of a row
// does not depend on the seed.
var measurements = [8]string{"vel-u", "vel-v", "vel-w", "press", "vortx", "vorty", "vortz", "tempr"}

var resultFileCols = [7]string{"FILE_NAME", "SIMULATION_KEY", "TIMESTEP", "MEASUREMENT", "FILE_FORMAT", "FILE_SIZE", "DOWNLOAD_RESULT"}

type author struct{ key, name, org, email string }

type run struct {
	key, title, desc, created string
	author                    int
	grid                      int64
	reynolds                  float64
}

// model is the generator's own copy of what the archive must hold: the
// preload as generated from the seed, plus every acknowledged write.
// Correctness checks compare the archive's answers with it.
type model struct {
	seed    int64
	authors [nAuthors]author
	runs    [nRuns]run
	meas    [nRuns * nSteps]uint8
	size    [nRuns * nSteps]int64
}

func authorKey(i int) string { return fmt.Sprintf("A1999%010d", i) }
func runKey(i int) string    { return fmt.Sprintf("S2000%010d", i) }
func fileName(ts int) string { return fmt.Sprintf("ts%05d.tsf", ts) }
func filePath(run, ts int) string {
	return fmt.Sprintf("/vol%d/run%03d/%s", run%2, run, fileName(ts))
}
func fileURL(run, ts int) string { return "http://" + hosts[run%2] + filePath(run, ts) }

func letters(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func fileSize(rng *rand.Rand) int64 { return 1_000_000_000 + rng.Int63n(8_000_000_000) }

// newModel generates the preload. It is a pure function of the seed.
func newModel(seed int64) *model {
	rng := rand.New(rand.NewSource(seed))
	m := &model{seed: seed}
	for i := range m.authors {
		m.authors[i] = author{
			key:   authorKey(i),
			name:  "Dr " + letters(rng, 8),
			org:   "University of " + letters(rng, 10),
			email: letters(rng, 6) + "@" + letters(rng, 6) + ".ac.uk",
		}
	}
	for i := range m.runs {
		m.runs[i] = run{
			key:      runKey(i),
			author:   rng.Intn(nAuthors),
			title:    "Channel flow " + letters(rng, 12),
			desc:     "Direct numerical simulation, case " + letters(rng, 40) + ".",
			grid:     int64(64 << rng.Intn(4)),
			reynolds: float64(1000 + rng.Intn(9000)),
			created:  fmt.Sprintf("2000-%02d-%02d 09:%02d:00", 1+rng.Intn(12), 1+rng.Intn(28), rng.Intn(60)),
		}
	}
	for i := range m.meas {
		m.meas[i] = uint8(rng.Intn(len(measurements)))
		m.size[i] = fileSize(rng)
	}
	return m
}

// fillBody writes the content of file (run, ts) into buf. Content is a
// function of (seed, run, ts) so a download can be checked without
// keeping the bytes.
func (m *model) fillBody(buf []byte, run, ts int) {
	x := uint64(m.seed)*0x9E3779B97F4A7C15 ^ uint64(run)<<32 ^ uint64(ts) | 1
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
}

// preloadLinked reports whether the preloaded row (run, ts) links a
// file. Every linkEvery-th timestep of an archived run does, so any
// window of linkEvery consecutive timesteps holds exactly one linked
// row and every search page of mixed has the same shape.
func preloadLinked(run, ts int) bool { return run >= firstArchived && ts%linkEvery == 0 }

// rowBytes is the logical size of one RESULT_FILE row: text lengths
// plus 8 bytes per number. File contents are not metadata and count on
// neither side of space_amp.
func rowBytes(run, ts int, linked bool) int64 {
	n := int64(len(fileName(ts)) + len(runKey(run)) + 8 + len(measurements[0]) + len("TSF") + 8)
	if linked {
		n += int64(len(fileURL(run, ts)))
	}
	return n
}

// preloadBytes is the logical size of the preload.
func (m *model) preloadBytes() int64 {
	var n int64
	for _, a := range m.authors {
		n += int64(len(a.key) + len(a.name) + len(a.org) + len(a.email))
	}
	for i, r := range m.runs {
		n += int64(len(r.key)+len(m.authors[r.author].key)+len(r.title)+len(r.desc)) + 8 + 8 + 8 + 8
		for ts := 0; ts < nSteps; ts++ {
			n += rowBytes(i, ts, preloadLinked(i, ts))
		}
	}
	return n
}

// workloadSpec freezes one workload: how many ops one second of
// --seconds buys. Run length is fixed work, not fixed time, so both
// sides of a comparison do identical work.
type workloadSpec struct {
	name      string
	opsPerSec int // calibrated on the 2-core reference host
	why       string
}

var workloads = []workloadSpec{
	{"browse", 400, "8,000 visits, 1 client: 5 page requests of tiny indexed SELECTs plus render; webui, core, xuis and the small-result sqldb path work, WAL, med and dlfs idle"},
	{"report", 80, "1,600 reports, 1 client: rollup, 3-table join, top-k scan and 4,000-row projection straight into sqldb; the same read layer used the opposite way"},
	{"ingest", 150, "3,000 archive steps, 1 client: file Put + DATALINK INSERT (2PC) + UPDATE; WAL fsync, med, dlfs RPC and store work, the read executor is almost idle"},
	{"mixed", 320, "6,400 visits of the runs being written (linked DATALINK cells rendered) + tokenized downloads, beside a writer paced at 25 archive steps/s: MVCC, barrier, latch and checkpoint interference"},
}

const (
	writerRate   = 25 // archive steps per second in mixed, open loop
	warmupShare  = 20 // warm-up = 1/20 of the op count
	lateLimitSec = 1  // an op slower than this counts as failed
)

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// visit is one browse op: five page requests on one run. All visits of
// a workload have the same shape (20-row search page, two 1-row FK
// pages, PK page of the whole run); only the parameters vary. browse
// visits the browsed runs, whose pages never change and hold no link.
// mixed visits the archived runs, the ones its writer writes to: the
// search page renders one linked DATALINK cell (a Stat RPC and a minted
// download URL), the SIMULATION page reads the row the writer updates,
// and the PK page holds the run's three preloaded links plus every row
// archived so far.
type visit struct {
	run, tsFrom int
	queries     [5]string // raw query per request
	file        [2]int    // mixed only: (run, ts) of the preloaded file to download
}

// report is one report op's parameters.
type report struct {
	meas   int // top-k filter
	joinTS int // join timestep
	fromTS int // projection window [fromTS, fromTS+10)
	args   [4][]sqltypes.Value
}

func newReport(rng *rand.Rand) report {
	r := report{meas: rng.Intn(len(measurements)), joinTS: rng.Intn(nSteps), fromTS: rng.Intn(nSteps - 10 + 1)}
	r.args = [4][]sqltypes.Value{
		nil,
		{sqltypes.NewInt(int64(r.joinTS))},
		{sqltypes.NewString(measurements[r.meas])},
		{sqltypes.NewInt(int64(r.fromTS)), sqltypes.NewInt(int64(r.fromTS + 10))},
	}
	return r
}

// step is one archive step: Put the file, INSERT the row, bump the run.
type step struct {
	run, ts int
	path    string // on hosts[run%2]
	insert  []sqltypes.Value
	update  []sqltypes.Value
	size    int64
	meas    int
}

// script is everything one run will ask of the archive, generated up
// front so the measured phase allocates nothing for its inputs.
type script struct {
	visits  []visit
	reports []report
	steps   []step
}

func newVisit(rng *rand.Rand, m *model, archived bool) visit {
	v := visit{run: rng.Intn(firstArchived), tsFrom: rng.Intn(nSteps - searchRows + 1)}
	if archived {
		v.run = firstArchived + rng.Intn(nArchived)
		v.file = [2]int{firstArchived + rng.Intn(nArchived), linkEvery * rng.Intn(nLinked)}
	}
	r := m.runs[v.run]
	v.queries[0] = url.Values{"name": {"RESULT_FILE"}}.Encode()
	// What a browser submits from the query form: every field ticked,
	// an operator and a (mostly empty) restriction per field.
	search := url.Values{"table": {"RESULT_FILE"}, "orderby": {""}, "limit": {fmt.Sprint(searchRows)}}
	for _, col := range resultFileCols {
		search.Add("sel", col)
		search.Set("op_"+col, "=")
		search.Set("val_"+col, "")
	}
	search.Set("val_SIMULATION_KEY", r.key)
	search.Set("op_TIMESTEP", ">=")
	search.Set("val_TIMESTEP", fmt.Sprint(v.tsFrom))
	v.queries[1] = search.Encode()
	v.queries[2] = url.Values{"mode": {"fk"}, "table": {"SIMULATION"}, "col": {"SIMULATION_KEY"}, "value": {r.key}}.Encode()
	v.queries[3] = url.Values{"mode": {"fk"}, "table": {"AUTHOR"}, "col": {"AUTHOR_KEY"}, "value": {m.authors[r.author].key}}.Encode()
	v.queries[4] = url.Values{"mode": {"pk"}, "table": {"RESULT_FILE"}, "col": {"SIMULATION_KEY"}, "value": {r.key}}.Encode()
	return v
}

func newSteps(rng *rand.Rand, n int) []step {
	steps := make([]step, n)
	for i := range steps {
		// Round-robin over the archived runs, so (run, ts) is unique and
		// every run grows at the same rate.
		run, ts := firstArchived+i%nArchived, nSteps+i/nArchived
		s := step{run: run, ts: ts, path: filePath(run, ts), size: fileSize(rng), meas: rng.Intn(len(measurements))}
		s.insert = []sqltypes.Value{
			sqltypes.NewString(fileName(ts)), sqltypes.NewString(runKey(run)), sqltypes.NewInt(int64(ts)),
			sqltypes.NewString(measurements[s.meas]), sqltypes.NewString("TSF"), sqltypes.NewInt(s.size),
			sqltypes.NewString(fileURL(run, ts)),
		}
		s.update = []sqltypes.Value{sqltypes.NewString(runKey(run))}
		steps[i] = s
	}
	return steps
}

// newScript generates the op script: a pure function of (workload,
// seed, ops). ops counts measured ops; the warm-up share is added in
// front. mixed gets writer steps for 1.5x the reader's nominal run
// time, so the paced writer does not run dry.
func newScript(w workloadSpec, m *model, ops int) *script {
	// A different stream from the preload's, so scripts of different
	// workloads on one seed are unrelated.
	rng := rand.New(rand.NewSource(m.seed*7919 + int64(len(w.name))*104729 + int64(w.opsPerSec)))
	total := ops + ops/warmupShare
	s := &script{}
	switch w.name {
	case "browse", "mixed":
		s.visits = make([]visit, total)
		for i := range s.visits {
			s.visits[i] = newVisit(rng, m, w.name == "mixed")
		}
		if w.name == "mixed" {
			s.steps = newSteps(rng, mixedWriterSteps(w, ops))
		}
	case "report":
		s.reports = make([]report, total)
		for i := range s.reports {
			s.reports[i] = newReport(rng)
		}
	case "ingest":
		s.steps = newSteps(rng, total)
	}
	return s
}

// mixedWriterSteps is the fixed number of archive steps a mixed run
// ends with: the writer is paced while the reader runs and the
// remainder is applied unpaced afterwards, so the state that space_amp
// and live_heap_mb describe is the same on every run.
func mixedWriterSteps(w workloadSpec, ops int) int {
	nominalSec := (ops + ops/warmupShare + w.opsPerSec - 1) / w.opsPerSec
	return writerRate * nominalSec * 3 / 2
}
