package webui

import (
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/sqltypes"
	"repro/internal/telemetry"
	"repro/internal/xuis"
)

// Server is the EASIA web front end over an Archive.
type Server struct {
	archive *core.Archive
	mux     *http.ServeMux

	mu       sync.Mutex
	sessions map[string]core.User
	logins   []string               // session ids in the order they signed in
	runs     map[string]retainedRun // recent operation results for /opfile
}

// retainedRun is an operation result kept for /opfile, which serves its
// files to the user who ran it and to nobody else.
type retainedRun struct {
	user string
	res  *ops.Result
}

// NewServer builds the HTTP front end.
func NewServer(a *core.Archive) *Server {
	s := &Server{
		archive:  a,
		mux:      http.NewServeMux(),
		sessions: map[string]core.User{},
		runs:     map[string]retainedRun{},
	}
	s.mux.HandleFunc("/", s.handleHome)
	s.mux.HandleFunc("/login", s.handleLogin)
	s.mux.HandleFunc("/logout", s.handleLogout)
	s.mux.HandleFunc("/table", s.withUser(s.handleQueryForm))
	s.mux.HandleFunc("/query", s.withUser(s.handleQuery))
	s.mux.HandleFunc("/browse", s.withUser(s.handleBrowse))
	s.mux.HandleFunc("/lob", s.withUser(s.handleLOB))
	s.mux.HandleFunc("/download", s.withUser(s.handleDownload))
	s.mux.HandleFunc("/opform", s.withUser(s.handleOpForm))
	s.mux.HandleFunc("/oprun", s.withUser(s.handleOpRun))
	s.mux.HandleFunc("/opfile", s.withUser(s.handleOpFile))
	s.mux.HandleFunc("/uploadform", s.withUser(s.handleUploadForm))
	s.mux.HandleFunc("/upload", s.withUser(s.handleUpload))
	s.mux.HandleFunc("/xuis", s.withUser(s.handleXUIS))
	s.mux.HandleFunc("/status", s.withUser(s.handleStatus))
	s.mux.HandleFunc("/metrics", s.withUser(s.handleMetrics))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ---------- sessions ----------

const sessionCookie = "easia_session"

// maxSessions bounds the session table: guest/guest is a public
// account, so logins alone must not grow the heap. A login past the
// cap ends the oldest session.
const maxSessions = 1024

func (s *Server) currentUser(r *http.Request) (core.User, bool) {
	c, err := r.Cookie(sessionCookie)
	if err != nil {
		return core.User{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.sessions[c.Value]
	return u, ok
}

func (s *Server) startSession(w http.ResponseWriter, u core.User) {
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		http.Error(w, "session error", http.StatusInternalServerError)
		return
	}
	id := hex.EncodeToString(raw[:])
	s.mu.Lock()
	s.sessions[id] = u
	s.logins = append(s.logins, id)
	for len(s.sessions) > maxSessions && len(s.logins) > 0 {
		delete(s.sessions, s.logins[0])
		s.logins = s.logins[1:]
	}
	if len(s.logins) > 2*maxSessions { // the ids of sessions that logged out
		s.logins = slices.DeleteFunc(s.logins, func(id string) bool { _, ok := s.sessions[id]; return !ok })
	}
	s.mu.Unlock()
	http.SetCookie(w, &http.Cookie{Name: sessionCookie, Value: id, Path: "/", HttpOnly: true})
}

// withUser gates a handler behind login.
func (s *Server) withUser(h func(http.ResponseWriter, *http.Request, core.User)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		u, ok := s.currentUser(r)
		if !ok {
			http.Redirect(w, r, "/", http.StatusSeeOther)
			return
		}
		h(w, r, u)
	}
}

func (s *Server) renderError(w http.ResponseWriter, u core.User, status int, msg string) {
	w.WriteHeader(status)
	writeTemplatePage(w, "Error", u, msg, homeTmpl, homeView{User: u})
}

// ---------- pages ----------

type tableEntry struct {
	Name    string
	Display string
}

// homeView feeds the home page, which also renders errors.
type homeView struct {
	User   core.User
	Tables []tableEntry
}

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	u, _ := s.currentUser(r)
	var tables []tableEntry
	if spec := s.archive.Spec(); spec != nil {
		for _, t := range spec.VisibleTables() {
			tables = append(tables, tableEntry{Name: t.Name, Display: t.DisplayName()})
		}
	}
	writeTemplatePage(w, "Scientific Data Archive", u, "", homeTmpl, homeView{User: u, Tables: tables})
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Redirect(w, r, "/", http.StatusSeeOther)
		return
	}
	u, err := s.archive.Users.Authenticate(r.FormValue("username"), r.FormValue("password"))
	if err != nil {
		s.renderError(w, core.User{}, http.StatusUnauthorized, "invalid username or password")
		return
	}
	s.startSession(w, u)
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func (s *Server) handleLogout(w http.ResponseWriter, r *http.Request) {
	if c, err := r.Cookie(sessionCookie); err == nil {
		s.mu.Lock()
		delete(s.sessions, c.Value)
		s.mu.Unlock()
	}
	http.SetCookie(w, &http.Cookie{Name: sessionCookie, Value: "", Path: "/", MaxAge: -1})
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func (s *Server) handleQueryForm(w http.ResponseWriter, r *http.Request, u core.User) {
	spec := s.archive.Spec()
	if spec == nil {
		s.renderError(w, u, http.StatusServiceUnavailable, "no XUIS installed")
		return
	}
	name := queryParam(r.URL.RawQuery, "name")
	t, ok := spec.Table(name)
	if !ok || t.Hidden {
		s.renderError(w, u, http.StatusNotFound, "webui: unknown table "+name)
		return
	}
	bw := pageWriter(w)
	writeQueryForm(bw, t, u)
	finishPage(bw)
}

// handleQuery translates the QBE form submission and renders results.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, u core.User) {
	if err := r.ParseForm(); err != nil {
		s.renderError(w, u, http.StatusBadRequest, err.Error())
		return
	}
	q, err := formQBE(s.archive, r.Form)
	if err != nil {
		s.renderError(w, u, http.StatusBadRequest, err.Error())
		return
	}
	rs, err := s.archive.Search(q)
	if err != nil {
		s.renderError(w, u, http.StatusBadRequest, err.Error())
		return
	}
	s.renderResults(w, rs, u)
}

// formQBE decodes a submitted query form into the search it asks for.
func formQBE(a *core.Archive, form url.Values) (core.QBE, error) {
	table := form.Get("table")
	q := core.QBE{Table: table}
	if form.Get("all") == "" {
		q.Select = form["sel"]
		q.Restrictions = formRestrictions(a, table, form)
		q.OrderBy = form.Get("orderby")
		q.Desc = form.Get("desc") == "1"
		if lim := form.Get("limit"); lim != "" {
			n, err := strconv.Atoi(lim)
			if err != nil || n < 0 {
				return q, errors.New("invalid limit")
			}
			q.Limit = n
		}
	}
	return q, nil
}

// formRestrictions collects a submitted query form's restrictions in
// the table's column order, then by name — never in the form map's
// iteration order, which would compile one form to several SQL texts
// and as many plan-cache entries.
func formRestrictions(a *core.Archive, table string, form url.Values) []core.Restriction {
	var cols []string
	for key, vals := range form {
		if col, ok := strings.CutPrefix(key, "val_"); ok && len(vals) > 0 && strings.TrimSpace(vals[0]) != "" {
			cols = append(cols, col)
		}
	}
	schema, _ := a.DB.Catalog().Table(table)
	slices.SortFunc(cols, func(x, y string) int {
		if schema != nil {
			if c := cmp.Compare(schema.ColIndex(x), schema.ColIndex(y)); c != 0 {
				return c
			}
		}
		return cmp.Compare(x, y)
	})
	out := make([]core.Restriction, len(cols))
	for i, col := range cols {
		op := form.Get("op_" + col)
		if op == "" {
			op = "="
		}
		out[i] = core.Restriction{Column: col, Op: op, Value: form.Get("val_" + col)}
	}
	return out
}

// renderResults streams a results page through its column plan; the
// result is closed after it.
func (s *Server) renderResults(w http.ResponseWriter, rs *core.ResultSet, u core.User) {
	defer rs.Close()
	bw := pageWriter(w)
	p := planPage(s.archive, rs, u)
	p.writePage(bw)
	releasePlan(p)
	finishPage(bw)
}

// queryParam returns the first value of key in the raw query, exactly
// as url.ParseQuery(raw).Get(key) does — a pair holding a ';' or a bad
// escape is skipped, '+' is a space — without building the map.
func queryParam(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// handleBrowse serves both browsing modes.
func (s *Server) handleBrowse(w http.ResponseWriter, r *http.Request, u core.User) {
	raw := r.URL.RawQuery
	table, col, value := queryParam(raw, "table"), queryParam(raw, "col"), queryParam(raw, "value")
	var (
		rs  *core.ResultSet
		err error
	)
	switch mode := queryParam(raw, "mode"); mode {
	case "fk":
		rs, err = s.archive.BrowseFK(table, col, value)
	case "pk":
		rs, err = s.archive.BrowsePK(table, col, value)
	default:
		err = fmt.Errorf("webui: unknown browse mode %q", mode)
	}
	if err != nil {
		s.renderError(w, u, http.StatusBadRequest, err.Error())
		return
	}
	s.renderResults(w, rs, u)
}

// handleLOB rematerialises a BLOB/CLOB and returns it with the
// appropriate MIME type.
func (s *Server) handleLOB(w http.ResponseWriter, r *http.Request, u core.User) {
	q := r.URL.Query()
	table, col := q.Get("table"), q.Get("col")
	row, err := s.archive.RowByKey(table, pkParams(q))
	if err != nil {
		s.renderError(w, u, http.StatusNotFound, err.Error())
		return
	}
	v, ok := row[strings.ToUpper(table)+"."+strings.ToUpper(col)]
	if !ok || v.IsNull() {
		s.renderError(w, u, http.StatusNotFound, "no such object")
		return
	}
	switch v.Kind() {
	case sqltypes.KindClob:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, v.AsString())
	case sqltypes.KindBytes:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(v.Bytes())
	default:
		s.renderError(w, u, http.StatusBadRequest, "column is not a BLOB or CLOB")
	}
}

// handleDownload streams a DATALINK file via its tokenized URL. The
// token inside the URL is what authorises the read — exactly the
// paper's mechanism.
func (s *Server) handleDownload(w http.ResponseWriter, r *http.Request, u core.User) {
	tokURL := queryParam(r.URL.RawQuery, "url")
	rc, err := s.archive.OpenDownload(tokURL)
	if err != nil {
		s.renderError(w, u, http.StatusForbidden, err.Error())
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, rc) //nolint:errcheck // client disconnects are not errors
}

func (s *Server) opFromRequest(r *http.Request) (opName, colID, table string, key map[string]string) {
	src := r.URL.Query()
	if r.Method == http.MethodPost {
		r.ParseMultipartForm(32 << 20) // as PostFormValue would
		src = r.PostForm
	}
	return src.Get("op"), src.Get("colid"), src.Get("table"), pkParams(src)
}

// pkParams collects a row key from its pk_<COLUMN> parameters.
func pkParams(q url.Values) map[string]string {
	key := map[string]string{}
	for k, vs := range q {
		if col, ok := strings.CutPrefix(k, "pk_"); ok && len(vs) > 0 {
			key[col] = vs[0]
		}
	}
	return key
}

// opFormView feeds the operation parameter and code upload forms.
type opFormView struct {
	Op, ColID, Table, File, Description string
	Key                                 map[string]string
	Params                              []xuis.Variable
}

// handleOpForm renders the parameter form generated from XUIS markup.
func (s *Server) handleOpForm(w http.ResponseWriter, r *http.Request, u core.User) {
	opName, colID, table, key := s.opFromRequest(r)
	spec := s.archive.Spec()
	if spec == nil {
		s.renderError(w, u, http.StatusServiceUnavailable, "no XUIS installed")
		return
	}
	tbl, colName, err := xuis.SplitColID(colID)
	if err != nil {
		s.renderError(w, u, http.StatusBadRequest, err.Error())
		return
	}
	specTable, ok := spec.Table(tbl)
	if !ok {
		s.renderError(w, u, http.StatusNotFound, "unknown table")
		return
	}
	col, ok := specTable.Column(colName)
	if !ok {
		s.renderError(w, u, http.StatusNotFound, "unknown column")
		return
	}
	var op *xuis.Operation
	for _, candidate := range col.Operations {
		if candidate.Name == opName {
			op = candidate
		}
	}
	if op == nil {
		s.renderError(w, u, http.StatusNotFound, "unknown operation")
		return
	}
	view := opFormView{Op: op.Name, ColID: colID, Table: table, Description: op.Description, Key: key}
	if op.Parameters != nil {
		for _, p := range op.Parameters.Params {
			view.Params = append(view.Params, p.Variable)
		}
	}
	writeTemplatePage(w, "Run "+op.Name, u, "", opFormTmpl, view)
}

// handleOpRun executes the operation and renders its result.
func (s *Server) handleOpRun(w http.ResponseWriter, r *http.Request, u core.User) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	opName, colID, table, key := s.opFromRequest(r)
	params := map[string]string{}
	for k, vs := range r.PostForm {
		if k == "op" || k == "colid" || k == "table" || strings.HasPrefix(k, "pk_") || len(vs) == 0 {
			continue
		}
		params[k] = vs[0]
	}
	res, err := s.archive.RunOperation(opName, colID, table, key, params, u)
	if err != nil {
		s.renderError(w, u, http.StatusBadRequest, err.Error())
		return
	}
	s.renderOpResult(w, res, u)
}

type opFileEntry struct {
	Name string
	Size int
}

func (s *Server) renderOpResult(w http.ResponseWriter, res *ops.Result, u core.User) {
	runID := rand.Text() // 130 random bits: nobody reaches a run by guessing
	s.mu.Lock()
	s.runs[runID] = retainedRun{u.Name, res}
	// Bound the retained results.
	if len(s.runs) > 64 {
		for k := range s.runs {
			if k != runID {
				delete(s.runs, k)
				break
			}
		}
	}
	s.mu.Unlock()
	var files []opFileEntry
	for _, f := range res.Files {
		files = append(files, opFileEntry{Name: f.Name, Size: len(f.Data)})
	}
	writeTemplatePage(w, "Operation output", u, "", opResultTmpl, struct {
		Op        string
		Elapsed   string
		Steps     int64
		FromCache bool
		Stdout    string
		Files     []opFileEntry
		BatchPlan string
		RunID     string
	}{
		Op:      res.Operation,
		Elapsed: res.Elapsed.String(), Steps: res.Steps, FromCache: res.FromCache,
		Stdout: res.Stdout, Files: files, BatchPlan: res.BatchPlan, RunID: runID,
	})
}

// handleOpFile serves one artefact of a recent operation run to the
// user who ran it; to anyone else the run does not exist.
func (s *Server) handleOpFile(w http.ResponseWriter, r *http.Request, u core.User) {
	q := r.URL.Query()
	s.mu.Lock()
	run, ok := s.runs[q.Get("run")]
	s.mu.Unlock()
	if !ok || run.user != u.Name {
		http.NotFound(w, r)
		return
	}
	name := q.Get("name")
	for _, f := range run.res.Files {
		if f.Name == name {
			w.Header().Set("Content-Type", mimeFor(name))
			w.Write(f.Data)
			return
		}
	}
	http.NotFound(w, r)
}

func mimeFor(name string) string {
	switch {
	case strings.HasSuffix(name, ".pgm"):
		return "image/x-portable-graymap"
	case strings.HasSuffix(name, ".ppm"):
		return "image/x-portable-pixmap"
	case strings.HasSuffix(name, ".txt"):
		return "text/plain; charset=utf-8"
	default:
		return "application/octet-stream"
	}
}

func (s *Server) handleUploadForm(w http.ResponseWriter, r *http.Request, u core.User) {
	_, colID, table, key := s.opFromRequest(r)
	file := key["FILE_NAME"]
	writeTemplatePage(w, "Upload post-processing code", u, "", uploadFormTmpl, opFormView{ColID: colID, Table: table, File: file, Key: key})
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request, u core.User) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	_, colID, table, key := s.opFromRequest(r)
	entry := r.PostFormValue("entry")
	if entry == "" {
		entry = "main.easl"
	}
	code := []byte(r.PostFormValue("code"))
	res, err := s.archive.UploadAndRun(colID, table, key, code, "easl", entry, nil, u)
	if err != nil {
		s.renderError(w, u, http.StatusBadRequest, err.Error())
		return
	}
	s.renderOpResult(w, res, u)
}

// statusMetric is one name/value row of the status page's summaries.
type statusMetric struct {
	Name, Value string
}

// statusHost decorates a host's replication health with the telemetry
// rows worth an operator's glance.
type statusHost struct {
	core.HostStatus
	MetricRows []statusMetric
}

// findMetric returns the snapshot entry with the given (unlabelled)
// name, if present.
func findMetric(ms []telemetry.Metric, name string) (telemetry.Metric, bool) {
	for _, m := range ms {
		if m.Name == name && len(m.Labels) == 0 {
			return m, true
		}
	}
	return telemetry.Metric{}, false
}

// engineSummary distils the SQL engine's metrics snapshot into the
// status page's headline rows: group-commit behaviour, vacuum debt and
// plan-cache effectiveness.
func engineSummary(ms []telemetry.Metric) []statusMetric {
	var rows []statusMetric
	if m, ok := findMetric(ms, "sqldb_commits_total"); ok {
		rows = append(rows, statusMetric{"Committed transactions", strconv.FormatInt(m.Value, 10)})
	}
	if m, ok := findMetric(ms, "sqldb_wal_group_commit_batch"); ok && m.Hist != nil {
		rows = append(rows, statusMetric{"WAL group-commit batch (mean / p95)",
			fmt.Sprintf("%d / %d", m.Hist.Mean(), m.Hist.P95)})
	}
	if m, ok := findMetric(ms, "sqldb_wal_fsync_ns"); ok && m.Hist != nil {
		rows = append(rows, statusMetric{"WAL fsync latency (p50 / p99)",
			fmt.Sprintf("%s / %s", time.Duration(m.Hist.P50), time.Duration(m.Hist.P99))})
	}
	hits, _ := findMetric(ms, "sqldb_plan_cache_hits_total")
	misses, _ := findMetric(ms, "sqldb_plan_cache_misses_total")
	if total := hits.Value + misses.Value; total > 0 {
		rows = append(rows, statusMetric{"Plan-cache hit rate",
			fmt.Sprintf("%.1f%% (%d of %d lookups)", 100*float64(hits.Value)/float64(total), hits.Value, total)})
	}
	// Result-cache effectiveness: only shown once the cache has seen
	// traffic (hits+misses counts every cacheable lookup).
	rcHits, _ := findMetric(ms, "sqldb_result_cache_hits_total")
	rcMisses, _ := findMetric(ms, "sqldb_result_cache_misses_total")
	if total := rcHits.Value + rcMisses.Value; total > 0 {
		bytes, _ := findMetric(ms, "sqldb_result_cache_bytes")
		capacity, _ := findMetric(ms, "sqldb_result_cache_capacity_bytes")
		var declines []string
		for _, m := range ms {
			if m.Name == "sqldb_result_cache_declines_total" && m.Value > 0 {
				declines = append(declines, fmt.Sprintf("%d %s", m.Value, m.Label("reason")))
			}
		}
		if len(declines) == 0 {
			declines = append(declines, "none")
		}
		rows = append(rows, statusMetric{"Result-cache hit rate",
			fmt.Sprintf("%.1f%% (%d of %d lookups, %d of %d bytes held; fills declined: %s)",
				100*float64(rcHits.Value)/float64(total), rcHits.Value, total, bytes.Value, capacity.Value,
				strings.Join(declines, ", "))})
	}
	if m, ok := findMetric(ms, "sqldb_dead_rows"); ok {
		rows = append(rows, statusMetric{"Dead-row debt (awaiting vacuum)", strconv.FormatInt(m.Value, 10)})
	}
	passes, _ := findMetric(ms, "sqldb_vacuum_passes_total")
	reclaimed, _ := findMetric(ms, "sqldb_vacuum_rows_reclaimed_total")
	if passes.Value > 0 {
		rows = append(rows, statusMetric{"Vacuum passes / rows reclaimed",
			fmt.Sprintf("%d / %d", passes.Value, reclaimed.Value)})
	}
	if m, ok := findMetric(ms, "sqldb_slow_queries_total"); ok && m.Value > 0 {
		rows = append(rows, statusMetric{"Slow queries over threshold", strconv.FormatInt(m.Value, 10)})
	}
	// Overload posture: how deep the admission queue is right now, and
	// how many statements have been shed, timed out or canceled so far.
	if m, ok := findMetric(ms, "sqldb_admission_queue_depth"); ok {
		rows = append(rows, statusMetric{"Admission queue depth", strconv.FormatInt(m.Value, 10)})
	}
	shed, _ := findMetric(ms, "sqldb_statements_shed_total")
	timedOut, _ := findMetric(ms, "sqldb_statements_timed_out_total")
	canceled, _ := findMetric(ms, "sqldb_statements_canceled_total")
	if shed.Value+timedOut.Value+canceled.Value > 0 {
		rows = append(rows, statusMetric{"Statements shed / timed out / canceled",
			fmt.Sprintf("%d / %d / %d", shed.Value, timedOut.Value, canceled.Value)})
	}
	if m, ok := findMetric(ms, "sqldb_mem_budget_rejected_total"); ok && m.Value > 0 {
		rows = append(rows, statusMetric{"Memory-budget rejections", strconv.FormatInt(m.Value, 10)})
	}
	return rows
}

// hostSummary distils a replica set's metrics into the per-host rows:
// failovers, breaker trips and cumulative repair outcomes.
func hostSummary(ms []telemetry.Metric) []statusMetric {
	if ms == nil {
		return nil
	}
	var rows []statusMetric
	if m, ok := findMetric(ms, "dlfs_cluster_failovers_total"); ok {
		rows = append(rows, statusMetric{"Failovers", strconv.FormatInt(m.Value, 10)})
	}
	if m, ok := findMetric(ms, "dlfs_cluster_breaker_trips_total"); ok {
		rows = append(rows, statusMetric{"Breaker trips", strconv.FormatInt(m.Value, 10)})
	}
	copied, _ := findMetric(ms, "dlfs_cluster_repair_copied_total")
	relinked, _ := findMetric(ms, "dlfs_cluster_repair_relinked_total")
	unlinked, _ := findMetric(ms, "dlfs_cluster_repair_unlinked_total")
	rows = append(rows, statusMetric{"Repairs (copied / relinked / unlinked)",
		fmt.Sprintf("%d / %d / %d", copied.Value, relinked.Value, unlinked.Value)})
	if m, ok := findMetric(ms, "dlfs_cluster_repair_errors_total"); ok && m.Value > 0 {
		rows = append(rows, statusMetric{"Repair errors", strconv.FormatInt(m.Value, 10)})
	}
	pc, _ := findMetric(ms, "dlfs_cluster_partial_commits_total")
	pw, _ := findMetric(ms, "dlfs_cluster_partial_writes_total")
	if pc.Value+pw.Value > 0 {
		rows = append(rows, statusMetric{"Partial commits / writes",
			fmt.Sprintf("%d / %d", pc.Value, pw.Value)})
	}
	return rows
}

// handleStatus surfaces the file-server tier's replication health and a
// telemetry summary: per registered host, the replica-set members, the
// members whose breaker is open (Down), the paths awaiting
// re-replication (UnderReplicated) and the tier's repair counters;
// above them, the SQL engine's headline metrics. The full exposition
// lives at /metrics.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, u core.User) {
	hs := s.archive.HostStatuses()
	hosts := make([]statusHost, len(hs))
	for i, h := range hs {
		hosts[i] = statusHost{HostStatus: h, MetricRows: hostSummary(h.Metrics)}
	}
	writeTemplatePage(w, "File-server status", u, "", statusTmpl, struct {
		Engine []statusMetric
		Hosts  []statusHost
	}{
		Engine: engineSummary(s.archive.DB.MetricsSnapshot()),
		Hosts:  hosts,
	})
}

// handleMetrics serves the archive's full telemetry in Prometheus text
// exposition format: the SQL engine's registry plus every registered
// replica set's. Login-gated like every other page.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, u core.User) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	_ = s.archive.WriteMetrics(w)
}

// handleXUIS serves the active specification as XML — the document that
// defines the whole interface.
func (s *Server) handleXUIS(w http.ResponseWriter, r *http.Request, u core.User) {
	spec := s.archive.Spec()
	if spec == nil {
		http.Error(w, "no XUIS installed", http.StatusServiceUnavailable)
		return
	}
	data, err := spec.Marshal()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.Write(data)
}
