package main

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sqltypes"
)

// The full checks run after the measured phase on one op in
// fullCheckEvery: the op is served again with the page kept, and every
// value on it is held to the model. Read ops are repeatable, so the
// repeat answers for the op that was timed.

var fileNameRE = regexp.MustCompile(`ts(\d{5})\.tsf`)

// timesteps lists the distinct timesteps whose file names a page shows.
func timesteps(body string) []int {
	seen := map[int]bool{}
	for _, m := range fileNameRE.FindAllStringSubmatch(body, -1) {
		ts, _ := strconv.Atoi(m[1])
		seen[ts] = true
	}
	out := make([]int, 0, len(seen))
	for ts := range seen {
		out = append(out, ts)
	}
	sort.Ints(out)
	return out
}

func (r *runner) verify() {
	c := newClient(r.d, r.m, nil)
	c.pg.capture = true
	perRun := r.ackedPerRun()
	for i := r.warm; i < r.warm+r.ops; i += fullCheckEvery {
		switch r.o.workload.name {
		case "browse":
			r.checkVisit(c, i, perRun)
		case "mixed":
			r.checkVisit(c, i, perRun)
			r.checkDownload(c, i)
		case "report":
			r.checkReport(i)
		}
	}
	if acked := r.ackedSteps(); len(acked) > 0 {
		for k := 0; k < len(acked); k += fullCheckEvery {
			r.checkStep(acked[k])
		}
		r.checkCounts(r.d, "live")
	}
}

func (r *runner) checkVisit(c *client, i int, perRun map[int]int64) {
	v := &r.sc.visits[i]
	run := r.m.runs[v.run]
	au := r.m.authors[run.author]
	for k, q := range v.queries {
		if !c.get(visitPaths[k], q, visitFloor[k]) {
			r.problem("visit %d request %d: HTTP %d, %d bytes", i, k, c.pg.status, c.pg.n)
			continue
		}
		body := c.pg.body.String()
		var err error
		switch k {
		case 0:
			err = wantAll(body, `name="val_TIMESTEP"`, `name="op_SIMULATION_KEY"`)
		case 1:
			err = wantAll(body, "20 row(s) from", run.key)
			if ts := timesteps(body); err == nil && (len(ts) != searchRows || ts[0] < v.tsFrom) {
				err = fmt.Errorf("timesteps %v, want %d from %d up", ts, searchRows, v.tsFrom)
			}
			if err == nil && v.run >= firstArchived {
				// The window's one linked cell, rendered with the file's
				// size from the file server and a tokenized download link.
				linked := (v.tsFrom + linkEvery - 1) / linkEvery * linkEvery
				err = wantAll(body, fmt.Sprintf("%s (%d bytes)", fileName(linked), fileBytes), "/download?url=")
			}
		case 2:
			err = wantAll(body, "1 row(s) from", run.key, run.title, au.key)
		case 3:
			err = wantAll(body, "1 row(s) from", au.key, au.name, au.org, au.email)
		case 4:
			// Every row the run holds now: the preload and, on an archived
			// run, the steps acknowledged by the end of the run.
			n := nSteps + int(perRun[v.run])
			err = wantAll(body, fmt.Sprintf("%d row(s) from", n), run.key)
			if ts := timesteps(body); err == nil && (len(ts) != n || ts[0] != 0 || ts[n-1] != n-1) {
				err = fmt.Errorf("timesteps %v, want 0..%d", ts, n-1)
			}
		}
		if err != nil {
			r.problem("visit %d request %d: %v", i, k, err)
		}
	}
}

func wantAll(body string, subs ...string) error {
	for _, s := range subs {
		if !strings.Contains(body, s) {
			return fmt.Errorf("page lacks %q", s)
		}
	}
	return nil
}

func (r *runner) checkDownload(c *client, i int) {
	f := r.sc.visits[i].file
	if !c.download(f[0], f[1]) {
		r.problem("download %d: HTTP %d, %d bytes", i, c.pg.status, c.pg.n)
		return
	}
	want := make([]byte, fileBytes)
	r.m.fillBody(want, f[0], f[1])
	if !bytes.Equal(c.pg.body.Bytes(), want) {
		r.problem("download %d: content of run %d ts %d differs", i, f[0], f[1])
	}
}

func (r *runner) checkReport(i int) {
	rep := &r.sc.reports[i]
	db := r.d.arch.DB
	var data [4][][]sqltypes.Value
	for k, sql := range reportSQL {
		rows, err := db.Query(sql, rep.args[k]...)
		if err != nil {
			r.problem("report %d statement %d: %v", i, k, err)
			return
		}
		data[k] = rows.Data
	}
	m := r.m
	runOf := map[string]int{}
	for j := range m.runs {
		runOf[m.runs[j].key] = j
	}
	// Rollup: one group per run.
	seen := 0
	for _, row := range data[0] {
		j, ok := runOf[row[0].Str()]
		var sum int64
		for ts := 0; ts < nSteps; ts++ {
			sum += m.size[j*nSteps+ts]
		}
		cnt, _ := row[1].AsInt()
		got, _ := row[2].AsInt()
		max, _ := row[3].AsInt()
		if !ok || cnt != nSteps || got != sum || max != nSteps-1 {
			r.problem("report %d rollup: run %s = (%d, %d, %d), want (%d, %d, %d)", i, row[0].Str(), cnt, got, max, nSteps, sum, nSteps-1)
			return
		}
		seen++
	}
	if seen != nRuns {
		r.problem("report %d rollup: %d groups, want %d", i, seen, nRuns)
	}
	// Join: every run once, with its own title and its author's name.
	titles := map[string]string{}
	for _, run := range m.runs {
		titles[run.title] = m.authors[run.author].name
	}
	joined := map[string]bool{}
	for _, row := range data[1] {
		name, ok := titles[row[1].Str()]
		if !ok || name != row[2].Str() || row[0].Str() != fileName(rep.joinTS) {
			r.problem("report %d join: row (%s, %s, %s) is not in the model", i, row[0].Str(), row[1].Str(), row[2].Str())
			return
		}
		joined[row[1].Str()] = true
	}
	if len(joined) != joinRows {
		r.problem("report %d join: %d runs, want %d", i, len(joined), joinRows)
	}
	// Top-k: the 20 largest files of the measurement, largest first.
	var sizes []int64
	for k, ms := range m.meas {
		if int(ms) == rep.meas {
			sizes = append(sizes, m.size[k])
		}
	}
	sort.Slice(sizes, func(a, b int) bool { return sizes[a] > sizes[b] })
	for k, row := range data[2] {
		if got, _ := row[2].AsInt(); k >= len(sizes) || got != sizes[k] {
			r.problem("report %d top-k: row %d has size %d, want %d", i, k, got, sizes[k])
			return
		}
	}
	// Projection: every row of the window, nothing else.
	var sum, want int64
	for _, row := range data[3] {
		ts := row[2].Int()
		if ts < int64(rep.fromTS) || ts >= int64(rep.fromTS+10) {
			r.problem("report %d projection: timestep %d outside [%d, %d)", i, ts, rep.fromTS, rep.fromTS+10)
			return
		}
		sum += row[5].Int()
	}
	for j := 0; j < nRuns; j++ {
		for ts := rep.fromTS; ts < rep.fromTS+10; ts++ {
			want += m.size[j*nSteps+ts]
		}
	}
	if len(data[3]) != windowRows || sum != want {
		r.problem("report %d projection: %d rows summing to %d, want %d summing to %d", i, len(data[3]), sum, windowRows, want)
	}
}

// checkStep reads an acknowledged step back: the row, and its file
// through the download path.
func (r *runner) checkStep(i int) {
	s := &r.sc.steps[i]
	rows, err := r.d.arch.DB.Query(
		`SELECT TIMESTEP, MEASUREMENT, FILE_SIZE, DOWNLOAD_RESULT FROM RESULT_FILE WHERE FILE_NAME = ? AND SIMULATION_KEY = ?`,
		s.insert[0], s.insert[1])
	if err != nil || len(rows.Data) != 1 {
		r.problem("step %d: row lookup failed (err %v)", i, err)
		return
	}
	row := rows.Data[0]
	if row[0].Int() != int64(s.ts) || row[1].Str() != measurements[s.meas] || row[2].Int() != s.size || row[3].Str() != fileURL(s.run, s.ts) {
		r.problem("step %d: row is %v", i, row)
	}
	tok, err := r.d.arch.DownloadURL(fileURL(s.run, s.ts), r.d.user)
	if err != nil {
		r.problem("step %d: download URL: %v", i, err)
		return
	}
	rc, err := r.d.arch.OpenDownload(tok)
	if err != nil {
		r.problem("step %d: open: %v", i, err)
		return
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	want := make([]byte, fileBytes)
	r.m.fillBody(want, s.run, s.ts)
	if err != nil || !bytes.Equal(got, want) {
		r.problem("step %d: file content differs (err %v)", i, err)
	}
}

// ackedPerRun counts the acknowledged archive steps of each run.
func (r *runner) ackedPerRun() map[int]int64 {
	perRun := map[int]int64{}
	for _, i := range r.ackedSteps() {
		perRun[r.sc.steps[i].run]++
	}
	return perRun
}

// checkCounts holds an archive (live or recovered) to the model's row
// count and per-run timestep counters.
func (r *runner) checkCounts(d *deployment, which string) {
	acked := r.ackedSteps()
	rows, err := d.arch.DB.Query(`SELECT COUNT(*) FROM RESULT_FILE`)
	if want := int64(nRuns*nSteps + len(acked)); err != nil || rows.Data[0][0].Int() != want {
		r.problem("%s archive: RESULT_FILE does not hold %d rows (err %v)", which, want, err)
	}
	perRun := r.ackedPerRun()
	rows, err = d.arch.DB.Query(`SELECT SIMULATION_KEY, NUM_TIMESTEPS FROM SIMULATION`)
	if err != nil || len(rows.Data) != nRuns {
		r.problem("%s archive: SIMULATION scan: %v", which, err)
		return
	}
	for _, row := range rows.Data {
		run, _ := strconv.Atoi(strings.TrimPrefix(row[0].Str(), "S2000"))
		if want := nSteps + perRun[run]; row[1].Int() != want {
			r.problem("%s archive: run %d has NUM_TIMESTEPS %d, want %d", which, run, row[1].Int(), want)
		}
	}
}

// checkDurable holds the reopened copy to every acknowledged write:
// each INSERT key present, the row count exact, every link in a
// registry, and nothing for Reconcile to complain about.
func (r *runner) checkDurable(rec *deployment) {
	stmt, err := rec.arch.DB.Prepare(`SELECT COUNT(*) FROM RESULT_FILE WHERE FILE_NAME = ? AND SIMULATION_KEY = ?`)
	if err != nil {
		r.problem("recovered archive: %v", err)
		return
	}
	acked := r.ackedSteps()
	for _, i := range acked {
		s := &r.sc.steps[i]
		rows, err := stmt.Query(s.insert[0], s.insert[1])
		if err != nil || rows.Data[0][0].Int() != 1 {
			r.problem("recovered archive: acknowledged step %d (run %d ts %d) is missing (err %v)", i, s.run, s.ts, err)
		}
	}
	r.checkCounts(rec, "recovered")
	linked := rec.stores[0].LinkedCount() + rec.stores[1].LinkedCount()
	if want := nArchived*nLinked + len(acked); linked != want {
		r.problem("recovered archive: %d linked files, want %d", linked, want)
	}
	if err := rec.arch.Reconcile(); err != nil {
		r.problem("recovered archive: Reconcile: %v", err)
	}
}
