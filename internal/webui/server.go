package webui

import (
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dlfs"
	"repro/internal/iofault"
	"repro/internal/med"
	"repro/internal/ops"
	"repro/internal/sqldb"
	"repro/internal/sqltypes"
	"repro/internal/telemetry"
	"repro/internal/xuis"
)

// Server is the EASIA web front end over an Archive.
type Server struct {
	archive *core.Archive
	mux     *http.ServeMux
	layouts *layoutMemo

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
		layouts:  newLayoutMemo(),
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
// A form in the URL is decoded in one pass (queryForm); one its decoder
// refuses, and a POST's, go through ParseForm, whose error text the 400
// carries.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, u core.User) {
	f := queryForms.Get().(*queryForm)
	defer f.release()
	var (
		q   core.QBE
		err error
	)
	if formInURL(r) && f.parse(r.URL.RawQuery) {
		q, err = f.qbe(s.archive)
	} else if err = r.ParseForm(); err == nil {
		q, err = formQBE(s.archive, r.Form)
	}
	if err != nil {
		s.renderError(w, u, http.StatusBadRequest, err.Error())
		return
	}
	rs, err := s.archive.Search(q)
	if err != nil {
		status, msg := engineStatus(err)
		s.renderError(w, u, status, msg)
		return
	}
	s.renderResults(w, rs, u)
}

// formInURL reports whether ParseForm would read r's form from its URL
// alone: no form parsed yet, and a method whose body is no form.
func formInURL(r *http.Request) bool {
	return r.Form == nil && r.Method != http.MethodPost && r.Method != http.MethodPut && r.Method != http.MethodPatch
}

// formPair is one key and value of a decoded form.
type formPair struct{ key, value string }

// queryForm is a query form as a list of pairs in the order sent, with
// the scratch its search is decoded through; a pool keeps it from
// request to request.
type queryForm struct {
	pairs []formPair
	buf   []byte // parse's unescaped keys and values, end to end
	ends  []int  // parse's escaped keys and values: component, end in buf
	sel   []string
	vals  []formPair // val_<COL> pairs, keyed by COL
	ops   []formPair // op_<COL> pairs, keyed by COL
	restr []core.Restriction
}

var queryForms = sync.Pool{New: func() any { return new(queryForm) }}

// release gives f back to the pool once its search has run.
func (f *queryForm) release() {
	f.pairs, f.sel, f.vals, f.ops, f.restr = f.pairs[:0], f.sel[:0], f.vals[:0], f.ops[:0], f.restr[:0]
	queryForms.Put(f)
}

// parse decodes raw into f's pairs as url.ParseQuery does, and reports
// false for a query ParseQuery refuses: a pair holding a ';' or a bad
// escape. A key or value with nothing to unescape is a substring of
// raw; the others are unescaped into buf end to end and copied out
// once, so a form costs one allocation however many escapes it holds.
func (f *queryForm) parse(raw string) bool {
	f.pairs, f.buf, f.ends = f.pairs[:0], f.buf[:0], f.ends[:0]
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" {
			continue
		}
		if strings.Contains(pair, ";") {
			return false
		}
		k, v, _ := strings.Cut(pair, "=")
		if !f.unescape(k, 2*len(f.pairs)) || !f.unescape(v, 2*len(f.pairs)+1) {
			return false
		}
		f.pairs = append(f.pairs, formPair{k, v})
	}
	s, start := string(f.buf), 0
	for i := 0; i < len(f.ends); i += 2 {
		c, end := f.ends[i], f.ends[i+1]
		if p := &f.pairs[c/2]; c%2 == 0 {
			p.key = s[start:end]
		} else {
			p.value = s[start:end]
		}
		start = end
	}
	return true
}

// unescape appends escaped key or value s to buf, noting in ends which
// it is — component c, 2i for pair i's key and 2i+1 for its value — and
// where it ends, and reports false for a bad escape. An s without
// escapes stays where it is.
func (f *queryForm) unescape(s string, c int) bool {
	if !strings.ContainsAny(s, "%+") {
		return true
	}
	var ok bool
	f.buf, ok = appendUnescaped(f.buf, s)
	f.ends = append(f.ends, c, len(f.buf))
	return ok
}

// appendUnescaped appends s decoded as url.QueryUnescape decodes it,
// and reports false where QueryUnescape fails: on a '%' not followed by
// two hex digits.
func appendUnescaped(b []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '%':
			if i+2 >= len(s) {
				return b, false
			}
			hi, hok := unhex(s[i+1])
			lo, lok := unhex(s[i+2])
			if !hok || !lok {
				return b, false
			}
			b = append(b, hi<<4|lo)
			i += 2
		case '+':
			b = append(b, ' ')
		default:
			b = append(b, c)
		}
	}
	return b, true
}

// unhex returns the value of hexadecimal digit c.
func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// get returns the first value of key, as url.Values.Get does.
func (f *queryForm) get(key string) string {
	for _, p := range f.pairs {
		if p.key == key {
			return p.value
		}
	}
	return ""
}

// formQBE decodes a form ParseForm read into the search it asks for.
func formQBE(a *core.Archive, form url.Values) (core.QBE, error) {
	var f queryForm
	for key, vals := range form {
		for _, v := range vals {
			f.pairs = append(f.pairs, formPair{key, v})
		}
	}
	return f.qbe(a)
}

// qbe decodes the form into the search it asks for. The search holds
// f's scratch: it is read before f is released.
func (f *queryForm) qbe(a *core.Archive) (core.QBE, error) {
	q := core.QBE{Table: f.get("table")}
	if f.get("all") != "" {
		return q, nil
	}
	for _, p := range f.pairs {
		if p.key == "sel" {
			f.sel = append(f.sel, p.value)
		} else if col, ok := strings.CutPrefix(p.key, "val_"); ok {
			f.vals = append(f.vals, formPair{col, p.value})
		} else if col, ok := strings.CutPrefix(p.key, "op_"); ok {
			f.ops = append(f.ops, formPair{col, p.value})
		}
	}
	if len(f.sel) > 0 {
		q.Select = f.sel
	}
	q.Restrictions = f.restrictions(a, q.Table)
	q.OrderBy = f.get("orderby")
	q.Desc = f.get("desc") == "1"
	if lim := f.get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil || n < 0 {
			return q, errors.New("invalid limit")
		}
		q.Limit = n
	}
	return q, nil
}

// restrictions collects the form's restrictions — each column's first
// val_<COL> when it is not blank, under its first op_<COL> ("=" when
// that is empty) — in the table's column order, then by name: never in
// the order sent, which would compile one form to several SQL texts and
// as many plan-cache entries.
func (f *queryForm) restrictions(a *core.Archive, table string) []core.Restriction {
	byKey := func(x, y formPair) int { return strings.Compare(x.key, y.key) }
	sameKey := func(x, y formPair) bool { return x.key == y.key }
	slices.SortStableFunc(f.vals, byKey)
	f.vals = slices.CompactFunc(f.vals, sameKey) // keeps each column's first
	f.vals = slices.DeleteFunc(f.vals, func(p formPair) bool { return strings.TrimSpace(p.value) == "" })
	slices.SortStableFunc(f.ops, byKey)
	f.ops = slices.CompactFunc(f.ops, sameKey)
	schema, _ := a.DB.Catalog().Table(table)
	slices.SortFunc(f.vals, func(x, y formPair) int {
		if schema != nil {
			if c := cmp.Compare(schema.ColIndex(x.key), schema.ColIndex(y.key)); c != 0 {
				return c
			}
		}
		return cmp.Compare(x.key, y.key)
	})
	f.restr = slices.Grow(f.restr[:0], len(f.vals))
	for _, v := range f.vals {
		op := "="
		if i, ok := slices.BinarySearchFunc(f.ops, v.key, func(p formPair, col string) int { return strings.Compare(p.key, col) }); ok && f.ops[i].value != "" {
			op = f.ops[i].value
		}
		f.restr = append(f.restr, core.Restriction{Column: v.key, Op: op, Value: v.value})
	}
	return f.restr
}

// renderResults streams a results page through its column plan; the
// result is closed after it.
func (s *Server) renderResults(w http.ResponseWriter, rs *core.ResultSet, u core.User) {
	defer rs.Close()
	bw := pageWriter(w)
	p := planPage(s.archive, s.layouts.layout(s.archive, rs), rs, u)
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
		status, msg := engineStatus(err)
		s.renderError(w, u, status, msg)
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
		s.renderError(w, u, downloadStatus(err), err.Error())
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	iofault.Copy(w, rc) //nolint:errcheck // client disconnects are not errors
}

// downloadStatus answers a failed download: 403 only when the token
// refuses it, 404 for a file its server does not have, 400 for a URL
// that names no file, and 502 when the file server is unregistered,
// unreachable or fails.
func downloadStatus(err error) int {
	switch {
	case errors.Is(err, dlfs.ErrTokenRequired), errors.Is(err, med.ErrTokenExpired),
		errors.Is(err, med.ErrTokenTampered), errors.Is(err, med.ErrTokenWrongFile):
		return http.StatusForbidden
	case errors.Is(err, dlfs.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, sqltypes.ErrBadDatalinkURL), errors.Is(err, dlfs.ErrBadPath):
		return http.StatusBadRequest
	}
	return http.StatusBadGateway
}

// engineStatus answers a failed archive call. A closed or poisoned
// metadata database is the server's fault: 500 with a fixed message,
// the engine's text going to the log rather than to the browser. Any
// other failure is the request's: 400 with the error's text.
func engineStatus(err error) (int, string) {
	if errors.Is(err, sqldb.ErrClosed) || errors.Is(err, sqldb.ErrPoisoned) {
		log.Printf("webui: %v", err)
		return http.StatusInternalServerError, "the archive database is unavailable"
	}
	return http.StatusBadRequest, err.Error()
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
		status, msg := engineStatus(err)
		s.renderError(w, u, status, msg)
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
		status, msg := engineStatus(err)
		s.renderError(w, u, status, msg)
		return
	}
	s.renderOpResult(w, res, u)
}

// statusMetric is one name/value row of the status page's summaries.
type statusMetric struct {
	Name, Value string
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
	// How many statements their callers' contexts have stopped so far.
	timedOut, _ := findMetric(ms, "sqldb_statements_timed_out_total")
	canceled, _ := findMetric(ms, "sqldb_statements_canceled_total")
	if timedOut.Value+canceled.Value > 0 {
		rows = append(rows, statusMetric{"Statements timed out / canceled",
			fmt.Sprintf("%d / %d", timedOut.Value, canceled.Value)})
	}
	return rows
}

// handleStatus lists the registered file-server hosts under the SQL
// engine's headline metrics. The full exposition lives at /metrics.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, u core.User) {
	writeTemplatePage(w, "File-server status", u, "", statusTmpl, struct {
		Engine []statusMetric
		Hosts  []string
	}{
		Engine: engineSummary(s.archive.DB.MetricsSnapshot()),
		Hosts:  s.archive.Coord.Hosts(),
	})
}

// handleMetrics serves the SQL engine's telemetry in Prometheus text
// exposition format. Login-gated like every other page.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, u core.User) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	_ = s.archive.DB.Metrics().WritePrometheus(w)
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
