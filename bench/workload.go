package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

const (
	updateRunSQL = `UPDATE SIMULATION SET NUM_TIMESTEPS = NUM_TIMESTEPS + 1 WHERE SIMULATION_KEY = ?`

	searchRows = 20    // rows on a visit's search page
	joinRows   = nRuns // one RESULT_FILE row per run at one timestep
	windowRows = nRuns * 10
)

// A visit's five requests, in order.
var (
	visitPaths = [5]string{"/table", "/query", "/browse", "/browse", "/browse"}
	visitSpans = [5]spanName{spForm, spSearch, spFK, spFK, spPK}
	// visitFloor is the least body a page of each step may have: 60% of
	// what the pages measure today (5988, 7150, 1873, 1200, 16360 bytes),
	// so an error page fails and a leaner template does not. Row counts
	// are held exactly by the full check.
	visitFloor = [5]int{3500, 4300, 1100, 700, 9800}
)

// A report's four statements, in order, with the rows each must return.
var (
	reportSQL = [4]string{
		`SELECT SIMULATION_KEY, COUNT(*), SUM(FILE_SIZE), MAX(TIMESTEP) FROM RESULT_FILE GROUP BY SIMULATION_KEY`,
		`SELECT R.FILE_NAME, S.TITLE, A.NAME FROM RESULT_FILE R JOIN SIMULATION S ON R.SIMULATION_KEY = S.SIMULATION_KEY JOIN AUTHOR A ON S.AUTHOR_KEY = A.AUTHOR_KEY WHERE R.TIMESTEP = ?`,
		`SELECT FILE_NAME, SIMULATION_KEY, FILE_SIZE FROM RESULT_FILE WHERE MEASUREMENT = ? ORDER BY FILE_SIZE DESC LIMIT 20`,
		`SELECT * FROM RESULT_FILE WHERE TIMESTEP >= ? AND TIMESTEP < ?`,
	}
	reportSpans = [4]spanName{spRollup, spJoin, spTopK, spProject}
	reportRows  = [4]int{nRuns, joinRows, 20, windowRows}
)

// client is one closed-loop client goroutine's reused state.
type client struct {
	d  *deployment
	m  *model
	ln *lane // nil when untraced

	req      *http.Request
	pg       *page
	bytesOut int64

	body  [fileBytes]byte
	rd    bytes.Reader
	acked []int // archive steps this client got acknowledged
}

func newClient(d *deployment, m *model, ln *lane) *client {
	req, err := http.NewRequest(http.MethodGet, "/", nil)
	if err != nil {
		panic(err) // constant arguments
	}
	req.Header.Set("Cookie", d.cookie)
	return &client{d: d, m: m, ln: ln, req: req, pg: newPage()}
}

// get serves one page into the reused writer and applies the cheap
// oracle: status 200 and at least floor bytes.
func (c *client) get(path, query string, floor int) bool {
	c.req.URL.Path, c.req.URL.RawQuery = path, query
	c.req.Form, c.req.PostForm = nil, nil
	c.pg.reset()
	c.d.web.ServeHTTP(c.pg, c.req)
	c.bytesOut += int64(c.pg.n)
	return c.pg.status == http.StatusOK && c.pg.n >= floor
}

func (c *client) visit(v *visit) bool {
	ok := true
	for i, q := range v.queries {
		sp := c.ln.begin(visitSpans[i])
		ok = c.get(visitPaths[i], q, visitFloor[i]) && ok
		c.ln.end(sp)
	}
	return ok
}

// download fetches one preloaded file the way a browser does: the
// archive mints the tokenized URL, the web layer streams the file and
// the file server validates the token.
func (c *client) download(run, ts int) bool {
	sp := c.ln.begin(spDownloadURL)
	tok, err := c.d.arch.DownloadURL(fileURL(run, ts), c.d.user)
	c.ln.end(sp)
	if err != nil {
		return false
	}
	sp = c.ln.begin(spDownload)
	ok := c.get("/download", "url="+url.QueryEscape(tok), fileBytes)
	c.ln.end(sp)
	return ok && c.pg.n == fileBytes
}

func (c *client) report(r *report) bool {
	ok := true
	for i, sql := range reportSQL {
		sp := c.ln.begin(reportSpans[i])
		stmt, err := c.d.arch.DB.Prepare(sql)
		if err == nil {
			rows, qerr := stmt.Query(r.args[i]...)
			if err = qerr; err == nil {
				ok = ok && len(rows.Data) == reportRows[i]
				rows.Close()
			}
		}
		c.ln.end(sp)
		ok = ok && err == nil
	}
	return ok
}

// stage fills the reused body buffer with the step's file content; it
// runs before the step's clock starts.
func (c *client) stage(s *step) {
	c.m.fillBody(c.body[:], s.run, s.ts)
	c.rd.Reset(c.body[:])
}

// apply archives step i of steps and remembers it once acknowledged.
func (c *client) apply(steps []step, i int) bool {
	ok := c.archive(&steps[i])
	if ok {
		c.acked = append(c.acked, i)
	}
	return ok
}

func (c *client) archive(s *step) bool {
	a := c.d.arch
	sp := c.ln.begin(spArchiveFile)
	got, err := a.ArchiveFile(hosts[s.run%2], s.path, &c.rd)
	c.ln.end(sp)
	if err != nil || got != s.insert[6].Str() {
		return false
	}
	sp = c.ln.begin(spInsert)
	res, err := a.DB.Exec(insertResultSQL, s.insert...)
	c.ln.end(sp)
	if err != nil || res.RowsAffected != 1 {
		return false
	}
	sp = c.ln.begin(spUpdate)
	res, err = a.DB.Exec(updateRunSQL, s.update...)
	c.ln.end(sp)
	return err == nil && res.RowsAffected == 1
}

// shadow decomposes a visit served in the measured phase: the same QBEs
// go through core and sqldb directly, so a page's time splits into
// render, QBE compile, prepare and execute. Shadows run after the
// measured phase; next to the ops, their garbage (a 256 KiB slab per
// statement) would slow the traced blocks and read as tracing overhead.
func (c *client) shadow(v *visit, st *shadowStats) {
	a := c.d.arch
	qbe := qbeFor(c.m, v)
	sp := c.ln.begin(spShadowSearch)
	_, err := a.Search(qbe[0])
	c.ln.end(sp)
	if err != nil {
		st.failed++
	}
	for _, q := range qbe {
		sp := c.ln.begin(spShadowCompile)
		sql, args, err := a.BuildSQL(q)
		c.ln.end(sp)
		if err != nil {
			st.failed++
			continue
		}
		sp = c.ln.begin(spShadowPrepare)
		stmt, err := a.DB.Prepare(sql)
		c.ln.end(sp)
		if err != nil {
			st.failed++
			continue
		}
		before := a.DB.HeapRowReads(q.Table)
		sp = c.ln.begin(spShadowQuery)
		rows, err := stmt.Query(args...) // left unclosed, as every caller in core does
		c.ln.end(sp)
		if err != nil {
			st.failed++
			continue
		}
		st.heapReads += a.DB.HeapRowReads(q.Table) - before
		st.rows += int64(len(rows.Data))
	}
}

// shadowTokens times the token authority directly for the file a
// mixed op downloaded.
func (c *client) shadowTokens(run, ts int, st *shadowStats) {
	path := filePath(run, ts)
	sp := c.ln.begin(spShadowMint)
	tok, err := c.d.arch.Tokens.Mint(path, benchUser, 0)
	c.ln.end(sp)
	if err != nil {
		st.failed++
		return
	}
	sp = c.ln.begin(spShadowValidate)
	_, err = c.d.arch.Tokens.Validate(tok, path)
	c.ln.end(sp)
	if err != nil {
		st.failed++
	}
}

type shadowStats struct {
	heapReads, rows int64
	failed          int
}

// walWatch samples the WAL's size after each op of a traced run.
type walWatch struct {
	path        string
	last        int64
	grown       int64
	checkpoints int
}

func newWALWatch(d *deployment) *walWatch {
	w := &walWatch{path: filepath.Join(d.dbDir(), "wal.log")}
	w.last = w.size()
	return w
}

func (w *walWatch) size() int64 {
	fi, err := os.Stat(w.path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// sample accounts growth since the last sample; a shrink is a
// checkpoint's log rotation.
func (w *walWatch) sample() {
	n := w.size()
	if n < w.last {
		w.checkpoints++
		w.grown += n
	} else {
		w.grown += n - w.last
	}
	w.last = n
}

// phase is what one measured (or warm-up) pass over a slice of ops saw.
type phase struct {
	lat       []int64 // ns, ok ops only
	traced    []bool  // per lat sample: recorded with the lane on (traced runs)
	opSpan    []int32 // per attempted op: its op span, -1 when not recorded
	attempted int
	failed    int   // wrong, refused or later than lateLimitSec
	wrong     []int // ops that failed their oracle (a late op is failed, not wrong)
	marks     []mark
}

// mark is the clock at a block boundary. The measured phase is cut
// into timeBlocks blocks of equal op count and every time metric is the
// median of its per-block values, so a disturbance shorter than half
// the run does not move it.
type mark struct {
	at   time.Time
	cpu  time.Duration
	nlat int     // latency samples taken so far
	load float64 // host probe sample, ns per load
}

const timeBlocks = 20

// mark samples the host probe, then reads the clocks: the probe's own
// time stays outside the blocks on both sides.
func (p *phase) mark(probe *hostProbe) {
	load := probe.loadNs()
	p.marks = append(p.marks, mark{at: time.Now(), cpu: cpuTime(), nlat: len(p.lat), load: load})
}

func (p *phase) add(i int, ns int64, ok, traced bool) {
	p.attempted++
	if !ok {
		p.wrong = append(p.wrong, i)
	}
	if !ok || ns > lateLimitSec*int64(time.Second) {
		p.failed++
		return
	}
	p.lat = append(p.lat, ns)
	p.traced = append(p.traced, traced)
}

// traceBlock ops run with the lane on, then traceBlock with it off, so
// drift (ingest slows as the link registry grows) cancels in the
// traced-vs-untraced comparison.
const traceBlock = 25

// loop runs ops [from, to) through do, one at a time. before(i) and
// after(i) run outside op i's clock.
func (c *client) loop(from, to int, before func(i int), do func(i int) bool, after func(i int)) *phase {
	n := to - from
	p := &phase{lat: make([]int64, 0, n), traced: make([]bool, 0, n), opSpan: make([]int32, 0, n),
		marks: make([]mark, 0, timeBlocks+1)}
	block := (n + timeBlocks - 1) / timeBlocks
	p.mark(c.d.probe)
	for i := from; i < to; i++ {
		traced := c.ln != nil && (i/traceBlock)%2 == 0
		if c.ln != nil {
			c.ln.on = traced
		}
		if before != nil {
			before(i)
		}
		t0 := time.Now()
		sp := c.ln.begin(spOp)
		ok := do(i)
		c.ln.end(sp)
		p.add(i, int64(time.Since(t0)), ok, traced)
		p.opSpan = append(p.opSpan, sp)
		if after != nil {
			after(i)
		}
		if done := i + 1 - from; done%block == 0 || done == n {
			p.mark(c.d.probe)
		}
	}
	return p
}

// writer is the paced writer of mixed: an open loop at writerRate
// steps per second, each step timed from when it was due.
type writer struct {
	c     *client
	steps []step
	next  int     // first step not yet attempted
	late  []int64 // ns the generator started a step after it was due
	phase         // the paced steps; lat is measured from the due time
}

// run paces steps from start until stop closes or the steps run out.
func (w *writer) run(start time.Time, stop <-chan struct{}) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for first := w.next; w.next < len(w.steps); w.next++ {
		due := start.Add(time.Duration(w.next-first) * time.Second / writerRate)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		w.c.stage(&w.steps[w.next])
		w.late = append(w.late, int64(time.Since(due)))
		sp := w.c.ln.begin(spWriteOp)
		ok := w.c.apply(w.steps, w.next)
		w.c.ln.end(sp)
		w.add(w.next, int64(time.Since(due)), ok, true)
	}
}

// qbeFor builds the four result-page QBEs of a visit for the shadow
// calls (the search page first).
func qbeFor(m *model, v *visit) [4]core.QBE {
	r := m.runs[v.run]
	eq := func(table, col, val string) core.QBE {
		return core.QBE{Table: table, Restrictions: []core.Restriction{{Column: col, Op: "=", Value: val}}}
	}
	return [4]core.QBE{
		{Table: "RESULT_FILE", Select: resultFileCols[:], Limit: searchRows, Restrictions: []core.Restriction{
			{Column: "SIMULATION_KEY", Op: "=", Value: r.key},
			{Column: "TIMESTEP", Op: ">=", Value: fmt.Sprint(v.tsFrom)},
		}},
		eq("SIMULATION", "SIMULATION_KEY", r.key),
		eq("AUTHOR", "AUTHOR_KEY", m.authors[r.author].key),
		eq("RESULT_FILE", "SIMULATION_KEY", r.key),
	}
}
