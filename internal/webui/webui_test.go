package webui

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dlfs"
	"repro/internal/med"
	"repro/internal/sqldb"
	"repro/internal/turb"
	"repro/internal/xuis"
)

// testSite assembles a full EASIA web deployment for HTTP-level tests.
type testSite struct {
	srv     *httptest.Server
	archive *core.Archive
	client  *http.Client
}

func newSite(t testing.TB) *testSite {
	t.Helper()
	secret := []byte("webui-secret")
	a, err := core.Open(core.Config{Secret: secret, WorkRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	auth, _ := med.NewTokenAuthority(secret, 0)
	store, err := dlfs.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a.AttachFileServer(core.WrapManager(dlfs.NewManager("fs1.sim:80", store, auth)))
	if err := a.InitTurbulenceSchema(); err != nil {
		t.Fatal(err)
	}
	seed := []string{
		`INSERT INTO AUTHOR VALUES ('A19990110151042', 'Papiani', 'University of Southampton', 'p@soton.ac.uk')`,
		`INSERT INTO SIMULATION VALUES ('S19990110150932', 'A19990110151042', 'Turbulent channel flow',
			'DNS of channel flow at Re=1395.', 12, 1395.0, 100, '2000-03-27 09:00:00')`,
	}
	for _, sql := range seed {
		if _, err := a.DB.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	var tsf bytes.Buffer
	if _, err := turb.Generate(12, 4, 7).WriteTo(&tsf); err != nil {
		t.Fatal(err)
	}
	dsURL, err := a.ArchiveFile("fs1.sim:80", "/vol0/run1/ts4.tsf", bytes.NewReader(tsf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.DB.Exec(fmt.Sprintf(
		`INSERT INTO RESULT_FILE VALUES ('ts4.tsf', 'S19990110150932', 4, 'u,v,w,p', 'TSF', %d, DLVALUE('%s'))`,
		tsf.Len(), dsURL)); err != nil {
		t.Fatal(err)
	}
	codeURL, err := a.ArchiveFile("fs1.sim:80", "/codes/getimage.easl", strings.NewReader(`
let axis = params["slice"]
if (axis == nil) { axis = "z" }
writeImage("slice.pgm", filename, "u", axis, floor(datasetInfo(filename).n / 2))
print("rendered", axis)
`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.DB.Exec(fmt.Sprintf(
		`INSERT INTO CODE_FILE VALUES ('GetImage.easl', 'S19990110150932', 'EASL', 'Slice renderer', DLVALUE('%s'))`,
		codeURL)); err != nil {
		t.Fatal(err)
	}
	spec, err := a.GenerateXUIS("TURBULENCE")
	if err != nil {
		t.Fatal(err)
	}
	// Customisations from the paper: alias + FK substitution + an
	// operation with a parameter form + upload.
	if err := spec.SetFKSubstitution("SIMULATION", "AUTHOR_KEY", "AUTHOR.NAME"); err != nil {
		t.Fatal(err)
	}
	if err := spec.AddOperation("RESULT_FILE", "DOWNLOAD_RESULT", &xuis.Operation{
		Name: "GetImage", Type: "EASL", Filename: "getimage.easl", Format: "easl", GuestAccess: true,
		Location: &xuis.Location{DatabaseResult: &xuis.DatabaseResult{
			ColID:      "CODE_FILE.DOWNLOAD_CODE_FILE",
			Conditions: []xuis.Condition{{ColID: "CODE_FILE.CODE_NAME", Eq: "'GetImage.easl'"}},
		}},
		Description: "Visualise one slice of the dataset",
		Parameters: &xuis.Parameters{Params: []xuis.Param{
			{Variable: xuis.Variable{
				Description: "Select the slice you wish to visualise:",
				Select: &xuis.Select{Name: "slice", Size: 3, Options: []xuis.Option{
					{Value: "x", Label: "x plane"}, {Value: "y", Label: "y plane"}, {Value: "z", Label: "z plane"},
				}},
			}},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := spec.SetUpload("RESULT_FILE", "DOWNLOAD_RESULT", &xuis.Upload{
		Type: "EASL", Format: "easl", GuestAccess: false,
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.SetSpec(spec); err != nil {
		t.Fatal(err)
	}
	if err := a.Users.Add(core.User{Name: "papiani"}, "s3cret"); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewServer(a))
	t.Cleanup(srv.Close)
	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar}
	return &testSite{srv: srv, archive: a, client: client}
}

func (ts *testSite) login(t *testing.T, user, pass string) {
	t.Helper()
	resp, err := ts.client.PostForm(ts.srv.URL+"/login", url.Values{
		"username": {user}, "password": {pass},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login status %d", resp.StatusCode)
	}
}

func (ts *testSite) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := ts.client.Get(ts.srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func (ts *testSite) post(t *testing.T, path string, form url.Values) (int, string) {
	t.Helper()
	resp, err := ts.client.PostForm(ts.srv.URL+path, form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestLoginAndHome(t *testing.T) {
	ts := newSite(t)
	// Anonymous home shows the login form, not the tables.
	_, body := ts.get(t, "/")
	if !strings.Contains(body, "Login") || strings.Contains(body, "RESULT_FILE") {
		t.Fatalf("anonymous home wrong:\n%s", body)
	}
	// Bad credentials rejected.
	code, _ := ts.post(t, "/login", url.Values{"username": {"guest"}, "password": {"wrong"}})
	if code != http.StatusUnauthorized {
		t.Fatalf("bad login status %d", code)
	}
	ts.login(t, "guest", "guest")
	_, body = ts.get(t, "/")
	for _, want := range []string{"Author", "Simulation", "Result File", "/table?name=AUTHOR"} {
		if !strings.Contains(body, want) {
			t.Errorf("home missing %q", want)
		}
	}
}

func TestProtectedPagesRedirectAnonymous(t *testing.T) {
	ts := newSite(t)
	for _, path := range []string{"/table?name=AUTHOR", "/query?table=AUTHOR&all=1", "/xuis"} {
		resp, err := http.Get(ts.srv.URL + path) // no cookie jar
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// The default client follows the redirect back to "/".
		if resp.Request.URL.Path != "/" {
			t.Errorf("%s not gated (landed on %s)", path, resp.Request.URL.Path)
		}
	}
}

// TestQueryFormRendering reproduces the paper's "Searching the archive"
// figure: field checkboxes, operator drop-downs, sample values.
func TestQueryFormRendering(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "guest", "guest")
	code, body := ts.get(t, "/table?name=SIMULATION")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		`name="sel" value="SIMULATION_KEY"`,
		`name="op_TITLE"`,
		`<option>CONTAINS</option>`,
		`S19990110150932`, // sample value from the data
		`name="val_REYNOLDS"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("query form missing %q", want)
		}
	}
}

// TestQueryFormFollowsSpec: the form is drawn from the installed spec on
// every request, so a customisation made in place through the xuis API
// shows on the next render, escaped, with no cache to invalidate.
func TestQueryFormFollowsSpec(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "guest", "guest")
	if _, body := ts.get(t, "/table?name=AUTHOR"); !strings.Contains(body, "<td>Name</td>") {
		t.Fatalf("form before customising lacks the NAME field:\n%s", body)
	}
	spec := ts.archive.Spec()
	if err := spec.SetColumnAlias("AUTHOR", "NAME", `<i>Full</i> "name" & co`); err != nil {
		t.Fatal(err)
	}
	if err := spec.SetSamples("AUTHOR", "EMAIL", `<script>x</script>`, `a'b+c`); err != nil {
		t.Fatal(err)
	}
	_, body := ts.get(t, "/table?name=AUTHOR")
	for _, want := range []string{
		`<td>&lt;i&gt;Full&lt;/i&gt; &#34;name&#34; &amp; co</td>`,
		`<option value="NAME">&lt;i&gt;Full&lt;/i&gt; &#34;name&#34; &amp; co</option>`,
		`<option value="&lt;script&gt;x&lt;/script&gt;"><option value="a&#39;b&#43;c">`,
		`<span class="meta">&lt;script&gt;x&lt;/script&gt;, a&#39;b&#43;c</span>`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("customised form missing %q", want)
		}
	}
	for _, stale := range []string{"<i>", "<script>", "<td>Name</td>", "p@soton.ac.uk"} {
		if strings.Contains(body, stale) {
			t.Errorf("customised form holds %q", stale)
		}
	}
}

// TestResultTableBrowsingLinks reproduces the paper's "Result table"
// figure: PK browsing, FK browsing with substitution, CLOB link, and
// DATALINK links with operations.
func TestResultTableBrowsingLinks(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "papiani", "s3cret")

	_, body := ts.get(t, "/query?table=SIMULATION&all=1")
	// FK substitution: the AUTHOR_KEY cell shows the author's name.
	if !strings.Contains(body, "Papiani") {
		t.Error("FK substitution not applied")
	}
	if !strings.Contains(body, "/browse?col=AUTHOR_KEY&amp;mode=fk&amp;table=AUTHOR") &&
		!strings.Contains(body, "mode=fk") {
		t.Error("FK browse link missing")
	}
	// PK browsing: SIMULATION_KEY links to the three referencing tables.
	for _, child := range []string{"RESULT_FILE", "CODE_FILE", "VISUALISATION_FILE"} {
		if !strings.Contains(body, "→ "+child) {
			t.Errorf("PK browse link to %s missing", child)
		}
	}
	// CLOB link with size.
	if !strings.Contains(body, "CLOB (") {
		t.Error("CLOB size link missing")
	}

	_, body = ts.get(t, "/query?table=RESULT_FILE&all=1")
	// DATALINK cell: file name with size, download link with token, op link.
	if !strings.Contains(body, "ts4.tsf (") {
		t.Error("DATALINK size display missing")
	}
	if !strings.Contains(body, "/download?url=") || !strings.Contains(body, "%3B") {
		t.Error("tokenized download link missing")
	}
	if !strings.Contains(body, "op:GetImage") {
		t.Error("operation link missing")
	}
	if !strings.Contains(body, "upload code") {
		t.Error("upload link missing")
	}
}

// TestGuestPolicy: guests see no download or upload links but still see
// guest-accessible operations.
func TestGuestPolicy(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "guest", "guest")
	_, body := ts.get(t, "/query?table=RESULT_FILE&all=1")
	if strings.Contains(body, "/download?url=") {
		t.Error("guest sees download link")
	}
	if strings.Contains(body, "upload code") {
		t.Error("guest sees upload link")
	}
	if !strings.Contains(body, "op:GetImage") {
		t.Error("guest-accessible operation hidden from guest")
	}
}

func TestQBEQueryWithRestrictions(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "guest", "guest")
	q := url.Values{
		"table":     {"SIMULATION"},
		"sel":       {"SIMULATION_KEY", "TITLE"},
		"op_TITLE":  {"CONTAINS"},
		"val_TITLE": {"channel"},
	}
	_, body := ts.get(t, "/query?"+q.Encode())
	if !strings.Contains(body, "1 row(s)") {
		t.Fatalf("restricted query wrong:\n%s", body)
	}
	q.Set("val_TITLE", "no-such-thing")
	_, body = ts.get(t, "/query?"+q.Encode())
	if !strings.Contains(body, "0 row(s)") {
		t.Fatal("impossible restriction returned rows")
	}
}

// TestQueryFormCompilesToOneStatement: one search form, submitted 50
// times, is one SQL text and one plan-cache entry — the restrictions
// follow the table's column order, not the form map's iteration order.
func TestQueryFormCompilesToOneStatement(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "guest", "guest")
	form := url.Values{
		"table":              {"RESULT_FILE"},
		"sel":                {"FILE_NAME", "TIMESTEP"},
		"val_TIMESTEP":       {"0"},
		"op_TIMESTEP":        {">="},
		"val_SIMULATION_KEY": {"S19990110150932"},
		"val_FILE_FORMAT":    {"TSF"},
		"limit":              {"20"},
	}
	const want = `SELECT FILE_NAME, TIMESTEP FROM RESULT_FILE WHERE SIMULATION_KEY = ? AND TIMESTEP >= ? AND FILE_FORMAT = ? LIMIT 20`
	misses := func() int64 {
		m, ok := ts.archive.DB.Metrics().Find("sqldb_plan_cache_misses_total")
		if !ok {
			t.Fatal("sqldb_plan_cache_misses_total not registered")
		}
		return m.Value
	}
	var warm int64
	for i := 0; i < 50; i++ {
		q, err := formQBE(ts.archive, form)
		if err != nil {
			t.Fatal(err)
		}
		sql, _, err := ts.archive.BuildSQL(q)
		if err != nil || sql != want {
			t.Fatalf("submission %d compiled to %q (err %v), want %q", i, sql, err, want)
		}
		if _, body := ts.get(t, "/query?"+form.Encode()); !strings.Contains(body, "1 row(s)") {
			t.Fatalf("submission %d: wrong page:\n%s", i, body)
		}
		if i == 0 {
			warm = misses() // the first submission plans the search and the page's lookups
		} else if got := misses(); got != warm {
			t.Fatalf("submission %d planned again: %d plan-cache misses, %d after the first", i, got, warm)
		}
	}
}

// TestQueryRejectsOversizedSelectList: sel is outside input, and each
// name being a real column does not bound how many arrive.
func TestQueryRejectsOversizedSelectList(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "guest", "guest")
	form := url.Values{"table": {"RESULT_FILE"}, "sel": slices.Repeat([]string{"FILE_NAME"}, 8193)}
	if code, body := ts.post(t, "/query", form); code != http.StatusBadRequest {
		t.Fatalf("8,193 × sel=FILE_NAME: status %d, want 400:\n%.200s", code, body)
	}
}

func TestBrowseEndpoints(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "guest", "guest")
	_, body := ts.get(t, "/browse?mode=fk&table=AUTHOR&col=AUTHOR_KEY&value=A19990110151042")
	if !strings.Contains(body, "p@soton.ac.uk") {
		t.Error("fk browse missing author details")
	}
	_, body = ts.get(t, "/browse?mode=pk&table=RESULT_FILE&col=SIMULATION_KEY&value=S19990110150932")
	if !strings.Contains(body, "ts4.tsf") {
		t.Error("pk browse missing result file")
	}
	code, _ := ts.get(t, "/browse?mode=zap&table=AUTHOR&col=X&value=1")
	if code != http.StatusBadRequest {
		t.Errorf("bad mode status %d", code)
	}
}

// TestEngineStatus: a closed or poisoned metadata database is a server
// fault (500, fixed text); every other archive failure stays 400 with
// its own text.
func TestEngineStatus(t *testing.T) {
	for _, c := range []struct {
		name string
		err  error
		want int
	}{
		{"closed", sqldb.ErrClosed, http.StatusInternalServerError},
		{"closed mid-statement", fmt.Errorf("%w: %w", sqldb.ErrCanceled, sqldb.ErrClosed), http.StatusInternalServerError},
		{"poisoned", fmt.Errorf("%w: disk full", sqldb.ErrPoisoned), http.StatusInternalServerError},
		{"canceled", sqldb.ErrCanceled, http.StatusBadRequest},
		{"bad request", fmt.Errorf("core: unknown table %q", "NOPE"), http.StatusBadRequest},
	} {
		status, msg := engineStatus(c.err)
		if status != c.want {
			t.Errorf("%s: status %d, want %d", c.name, status, c.want)
		}
		if echoed := msg == c.err.Error(); echoed != (c.want == http.StatusBadRequest) {
			t.Errorf("%s: message %q, echoes the error: %v", c.name, msg, echoed)
		}
	}
}

// TestClosedArchiveAnswers500: once the archive's database is closed,
// searches and browsing answer 500 without echoing the engine's text.
func TestClosedArchiveAnswers500(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "guest", "guest")
	if err := ts.archive.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"/query?table=RESULT_FILE&all=1",
		"/browse?mode=pk&table=RESULT_FILE&col=SIMULATION_KEY&value=S19990110150932",
	} {
		code, body := ts.get(t, path)
		if code != http.StatusInternalServerError || strings.Contains(body, "sqldb:") {
			t.Errorf("%s on a closed archive: status %d, want 500 without the engine's text:\n%.300s", path, code, body)
		}
	}
}

func TestLOBRematerialisation(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "guest", "guest")
	code, body := ts.get(t, "/lob?table=SIMULATION&col=DESCRIPTION&pk_SIMULATION_KEY=S19990110150932")
	if code != 200 || !strings.Contains(body, "DNS of channel flow") {
		t.Fatalf("lob: %d %q", code, body)
	}
}

// TestDownloadFlow: the full DATALINK browsing path over HTTP — follow
// the tokenized link from the result table and get the file bytes.
func TestDownloadFlow(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "papiani", "s3cret")
	_, body := ts.get(t, "/query?table=RESULT_FILE&all=1")
	// Extract the download link.
	i := strings.Index(body, `/download?url=`)
	if i < 0 {
		t.Fatal("no download link")
	}
	end := strings.IndexByte(body[i:], '"')
	href := strings.ReplaceAll(body[i:i+end], "&amp;", "&")
	code, content := ts.get(t, href)
	if code != 200 {
		t.Fatalf("download status %d", code)
	}
	if int64(len(content)) != turb.FileBytes(12) {
		t.Fatalf("downloaded %d bytes, want %d", len(content), turb.FileBytes(12))
	}
}

// TestOperationFlow: operation form (generated from XUIS), run, fetch
// the produced image — the paper's three operation figures.
func TestOperationFlow(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "guest", "guest")
	q := url.Values{
		"op":                {"GetImage"},
		"colid":             {"RESULT_FILE.DOWNLOAD_RESULT"},
		"table":             {"RESULT_FILE"},
		"pk_FILE_NAME":      {"ts4.tsf"},
		"pk_SIMULATION_KEY": {"S19990110150932"},
	}
	code, body := ts.get(t, "/opform?"+q.Encode())
	if code != 200 {
		t.Fatalf("opform status %d", code)
	}
	for _, want := range []string{
		"Select the slice you wish to visualise:",
		`<select name="slice" size="3">`,
		`<option value="z">z plane</option>`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("opform missing %q", want)
		}
	}

	form := url.Values{}
	for k, vs := range q {
		form[k] = vs
	}
	form.Set("slice", "z")
	code, body = ts.post(t, "/oprun", form)
	if code != 200 {
		t.Fatalf("oprun status %d: %s", code, body)
	}
	if !strings.Contains(body, "rendered z") {
		t.Errorf("operation output missing:\n%s", body)
	}
	if !strings.Contains(body, "easl-run --sandbox") {
		t.Error("batch plan missing")
	}
	// Fetch the produced image.
	i := strings.Index(body, `/opfile?run=`)
	if i < 0 {
		t.Fatal("no result file link")
	}
	end := strings.IndexByte(body[i:], '"')
	href := strings.ReplaceAll(body[i:i+end], "&amp;", "&")
	resp, err := ts.client.Get(ts.srv.URL + href)
	if err != nil {
		t.Fatal(err)
	}
	img, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("Content-Type") != "image/x-portable-graymap" {
		t.Errorf("content type %q", resp.Header.Get("Content-Type"))
	}
	if !bytes.HasPrefix(img, []byte("P5\n12 12\n")) {
		t.Errorf("image payload wrong: %q", img[:12])
	}
}

// TestOpFileOwnedByItsRunner: a retained run's files are served to the
// user who ran it and to nobody else — a guest cannot fetch a
// registered user's product by its link, nor guess another run's id.
func TestOpFileOwnedByItsRunner(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "papiani", "s3cret")
	form := url.Values{
		"op":                {"GetImage"},
		"colid":             {"RESULT_FILE.DOWNLOAD_RESULT"},
		"table":             {"RESULT_FILE"},
		"pk_FILE_NAME":      {"ts4.tsf"},
		"pk_SIMULATION_KEY": {"S19990110150932"},
		"slice":             {"x"},
	}
	code, body := ts.post(t, "/oprun", form)
	if code != 200 {
		t.Fatalf("oprun status %d: %s", code, body)
	}
	i := strings.Index(body, `/opfile?run=`)
	if i < 0 {
		t.Fatal("no result file link")
	}
	href := strings.ReplaceAll(body[i:i+strings.IndexByte(body[i:], '"')], "&amp;", "&")
	run := strings.TrimPrefix(href[:strings.Index(href, "&")], "/opfile?run=")
	if len(run) < 26 { // rand.Text: 26 base32 digits
		t.Errorf("run id %q carries fewer than 128 random bits", run)
	}
	if code, _ := ts.get(t, href); code != 200 {
		t.Fatalf("the runner fetching its own file: status %d", code)
	}

	jar, _ := cookiejar.New(nil)
	guest := &testSite{srv: ts.srv, archive: ts.archive, client: &http.Client{Jar: jar}}
	guest.login(t, "guest", "guest")
	if code, body := guest.get(t, href); code != http.StatusNotFound {
		t.Fatalf("a guest fetching papiani's run file: status %d, want 404 (%d bytes served)", code, len(body))
	}
	for _, seq := range []string{"r000001", "r000002"} {
		if code, _ := guest.get(t, "/opfile?run="+seq+"&name=slice.pgm"); code != http.StatusNotFound {
			t.Errorf("a guest fetching run %s: status %d, want 404", seq, code)
		}
	}
}

// TestUploadFlow: authorised code upload over HTTP; guests rejected.
func TestUploadFlow(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "papiani", "s3cret")
	form := url.Values{
		"colid":             {"RESULT_FILE.DOWNLOAD_RESULT"},
		"table":             {"RESULT_FILE"},
		"pk_FILE_NAME":      {"ts4.tsf"},
		"pk_SIMULATION_KEY": {"S19990110150932"},
		"entry":             {"main.easl"},
		"code":              {`print("uploaded code ran on", filename)`},
	}
	code, body := ts.post(t, "/upload", form)
	if code != 200 || !strings.Contains(body, "uploaded code ran on ts4.tsf") {
		t.Fatalf("upload: %d\n%s", code, body)
	}

	ts2 := newSite(t)
	ts2.login(t, "guest", "guest")
	code, _ = ts2.post(t, "/upload", form)
	if code != http.StatusBadRequest {
		t.Fatalf("guest upload status %d, want 400", code)
	}
}

func TestXUISEndpoint(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "guest", "guest")
	resp, err := ts.client.Get(ts.srv.URL + "/xuis")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/xml") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(string(body), `<xuis database="TURBULENCE"`) {
		t.Error("XUIS body wrong")
	}
}

func TestLogout(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "guest", "guest")
	if _, body := ts.get(t, "/"); !strings.Contains(body, "logout") {
		t.Fatal("not logged in")
	}
	ts.get(t, "/logout")
	if _, body := ts.get(t, "/"); strings.Contains(body, "logout") {
		t.Fatal("still logged in after logout")
	}
}

// TestSessionTableBounded: guest/guest is a public account, so a login
// loop must not grow the session table without bound. The oldest
// sessions make way; the newest still browses.
func TestSessionTableBounded(t *testing.T) {
	ts := newSite(t)
	ws := ts.srv.Config.Handler.(*Server)
	login := func() *http.Cookie {
		req := httptest.NewRequest("POST", "/login", strings.NewReader("username=guest&password=guest"))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		rec := httptest.NewRecorder()
		ws.ServeHTTP(rec, req)
		for _, c := range rec.Result().Cookies() {
			if c.Name == sessionCookie {
				return c
			}
		}
		t.Fatalf("login answered %d without a session cookie", rec.Code)
		return nil
	}
	browse := func(c *http.Cookie) int {
		req := httptest.NewRequest("GET", "/browse?mode=fk&table=AUTHOR&col=AUTHOR_KEY&value=A19990110151042", nil)
		req.AddCookie(c)
		rec := httptest.NewRecorder()
		ws.ServeHTTP(rec, req)
		return rec.Code
	}
	first := login()
	var last *http.Cookie
	for i := 1; i < 10_000; i++ {
		last = login()
	}
	if n := len(ws.sessions); n > maxSessions {
		t.Fatalf("10,000 logins left %d sessions, cap %d", n, maxSessions)
	}
	if code := browse(last); code != 200 {
		t.Fatalf("the newest session browses with status %d", code)
	}
	if code := browse(first); code != http.StatusSeeOther {
		t.Fatalf("the oldest session browses with status %d, want a redirect to login", code)
	}

	// Sessions that log out leave the login order too.
	for i := 0; i < 10_000; i++ {
		req := httptest.NewRequest("GET", "/logout", nil)
		req.AddCookie(login())
		ws.ServeHTTP(httptest.NewRecorder(), req)
	}
	if n := len(ws.logins); n > 2*maxSessions+1 {
		t.Fatalf("10,000 login/logout pairs left %d ids in the login order", n)
	}
}

// TestPooledPlansServeConcurrentPages: pages of different tables and
// browsing modes rendered from several goroutines at once, beside
// logins, are byte for byte the pages rendered one at a time — a plan
// back from the pool carries nothing of the page it served before.
func TestPooledPlansServeConcurrentPages(t *testing.T) {
	ts := newSite(t)
	ws := ts.srv.Config.Handler.(*Server)
	guest, err := ts.archive.Users.Authenticate("guest", "guest")
	if err != nil {
		t.Fatal(err)
	}
	ws.sessions["concurrent"] = guest
	paths := []string{
		"/query?table=AUTHOR&all=1",
		"/query?table=SIMULATION&all=1",
		"/query?table=RESULT_FILE&all=1",
		"/query?table=SIMULATION&sel=TITLE&sel=DESCRIPTION",
		"/browse?mode=fk&table=AUTHOR&col=AUTHOR_KEY&value=A19990110151042",
		"/browse?mode=pk&table=RESULT_FILE&col=SIMULATION_KEY&value=S19990110150932",
	}
	render := func(path string) (int, string) {
		req := httptest.NewRequest("GET", path, nil)
		req.AddCookie(&http.Cookie{Name: sessionCookie, Value: "concurrent"})
		rec := httptest.NewRecorder()
		ws.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	want := make([]string, len(paths))
	for i, path := range paths {
		code, body := render(path)
		if code != 200 {
			t.Fatalf("%s: status %d", path, code)
		}
		want[i] = body
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if i%10 == 0 {
					req := httptest.NewRequest("POST", "/login", strings.NewReader("username=guest&password=guest"))
					req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
					ws.ServeHTTP(httptest.NewRecorder(), req)
				}
				k := (g + i) % len(paths)
				if _, body := render(paths[k]); body != want[k] {
					t.Errorf("%s rendered concurrently differs: %s", paths[k], firstDiff(want[k], body))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// pkPage50 adds 49 unlinked RESULT_FILE rows beside the fixture's one,
// so /browse?mode=pk on the simulation is the 50-row page a visit's
// last request renders, and returns that page's handler request.
func pkPage50(t testing.TB, ts *testSite) *http.Request {
	for i := 1; i < 50; i++ {
		if _, err := ts.archive.DB.Exec(fmt.Sprintf(
			`INSERT INTO RESULT_FILE VALUES ('ts%d.tsf', 'S19990110150932', %d, 'u,v,w,p', 'TSF', 27680, NULL)`, 100+i, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	ws := ts.srv.Config.Handler.(*Server)
	ws.sessions["allocs"] = core.User{Name: "papiani"}
	req := httptest.NewRequest("GET", "/browse?mode=pk&table=RESULT_FILE&col=SIMULATION_KEY&value=S19990110150932", nil)
	req.AddCookie(&http.Cookie{Name: sessionCookie, Value: "allocs"})
	return req
}

// TestResultsPageAllocs pins the allocations of one 50-row primary-key
// browse page, rendered in process: search, plan and streamed rows.
// Per-cell view structs walked by html/template took 6,226 per page and
// the per-request column plan 287; the pooled plan measured 49, and the
// ceiling is that plus 10%.
func TestResultsPageAllocs(t *testing.T) {
	ts := newSite(t)
	req := pkPage50(t, ts)
	h := ts.srv.Config.Handler
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 || strings.Count(rec.Body.String(), "<tr>") != 51 {
		t.Fatalf("status %d, %d rows:\n%.300s", rec.Code, strings.Count(rec.Body.String(), "<tr>")-1, rec.Body.String())
	}
	allocs := testing.AllocsPerRun(50, func() {
		h.ServeHTTP(httptest.NewRecorder(), req)
	})
	ceiling := 54.0
	if raceEnabled {
		ceiling *= 2
	}
	t.Logf("%.0f allocs per 50-row page", allocs)
	if allocs > ceiling {
		t.Fatalf("%.0f allocs per 50-row page, ceiling %.0f", allocs, ceiling)
	}
}

// discardPage is a response writer that keeps nothing of the body, so
// an allocation count is the handler's alone, not a recorder's growing
// buffer.
type discardPage struct {
	header http.Header
	code   int // the status last written
	n      int
}

func (d *discardPage) Header() http.Header         { return d.header }
func (d *discardPage) WriteHeader(code int)        { d.code = code }
func (d *discardPage) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// TestResultsPageAllocsFlatPerRow: a primary-key browse page without
// DATALINK cells allocates per page, not per row or per linked cell — 50
// rows cost what 10 do, give or take two (four when the race detector
// rebuilds pooled plans at random).
func TestResultsPageAllocsFlatPerRow(t *testing.T) {
	ts := newSite(t)
	ws := ts.srv.Config.Handler.(*Server)
	ws.sessions["allocs"] = core.User{Name: "papiani"}
	measure := func(n int) float64 {
		key := fmt.Sprintf("S%d", n)
		if _, err := ts.archive.DB.Exec(fmt.Sprintf(
			`INSERT INTO SIMULATION VALUES ('%s', 'A19990110151042', 'Run of %d', NULL, 8, 1.5, 1, NULL)`, key, n)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := ts.archive.DB.Exec(fmt.Sprintf(
				`INSERT INTO RESULT_FILE VALUES ('f%d.tsf', '%s', %d, 'u,v,w,p', 'TSF', %d, NULL)`, i, key, i, 1000+i)); err != nil {
				t.Fatal(err)
			}
		}
		req := httptest.NewRequest("GET", "/browse?mode=pk&table=RESULT_FILE&col=SIMULATION_KEY&value="+key, nil)
		req.AddCookie(&http.Cookie{Name: sessionCookie, Value: "allocs"})
		rec := httptest.NewRecorder()
		ws.ServeHTTP(rec, req)
		if rec.Code != 200 || strings.Count(rec.Body.String(), "<tr>") != n+1 {
			t.Fatalf("status %d, %d rows:\n%.300s", rec.Code, strings.Count(rec.Body.String(), "<tr>")-1, rec.Body.String())
		}
		page := &discardPage{header: http.Header{}}
		return testing.AllocsPerRun(200, func() { ws.ServeHTTP(page, req) })
	}
	ten, fifty := measure(10), measure(50)
	t.Logf("%.0f allocs per 10-row page, %.0f per 50-row page", ten, fifty)
	slack := 2.0
	if raceEnabled {
		slack *= 2
	}
	if fifty > ten+slack || fifty < ten-slack {
		t.Fatalf("%.0f allocs per 10-row page but %.0f per 50-row page: the page allocates per row", ten, fifty)
	}
}

// statementLog traces every statement the archive's engine runs from
// now on and returns a reader of the SQL texts executed so far.
func statementLog(t *testing.T, a *core.Archive) func() []string {
	t.Helper()
	var buf bytes.Buffer
	a.DB.SetSlowQueryLog(&buf)
	a.DB.SetTraceThreshold(time.Nanosecond)
	t.Cleanup(func() {
		a.DB.SetTraceThreshold(0)
		a.DB.SetSlowQueryLog(nil)
	})
	return func() []string {
		var out []string
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var tr struct{ SQL string }
			if err := json.Unmarshal([]byte(line), &tr); err != nil {
				t.Fatalf("trace line %q: %v", line, err)
			}
			out = append(out, tr.SQL)
		}
		return out
	}
}

// TestDatalinkCellRunsNoColumnProbe: the page knows which column a
// DATALINK cell belongs to, so minting its download token must not
// search the catalogue's DATALINK columns with DLVALUE probes.
func TestDatalinkCellRunsNoColumnProbe(t *testing.T) {
	ts := newSite(t)
	ts.login(t, "papiani", "s3cret")
	log := statementLog(t, ts.archive)
	if _, body := ts.get(t, "/query?table=RESULT_FILE&all=1"); !strings.Contains(body, "/download?url=") {
		t.Fatalf("no download link rendered:\n%s", body)
	}
	stmts := log()
	for _, sql := range stmts {
		if strings.Contains(sql, "DLVALUE") {
			t.Errorf("render ran a link-control probe: %s", sql)
		}
	}
	if len(stmts) != 1 {
		t.Errorf("page ran %d statements, want only its search: %q", len(stmts), stmts)
	}
}

// TestFKSubstitutionOncePerKey: a page of N rows naming the same author
// substitutes the author's name with one query, not N.
func TestFKSubstitutionOncePerKey(t *testing.T) {
	ts := newSite(t)
	for i := 0; i < 9; i++ {
		if _, err := ts.archive.DB.Exec(fmt.Sprintf(
			`INSERT INTO SIMULATION VALUES ('S%d', 'A19990110151042', 'Run %d', NULL, 8, 1.0, 1, NULL)`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	ts.login(t, "papiani", "s3cret")
	log := statementLog(t, ts.archive)
	_, body := ts.get(t, "/query?table=SIMULATION&all=1")
	if n := strings.Count(body, "Papiani"); n != 10 {
		t.Fatalf("%d substituted author cells, want 10", n)
	}
	subst := 0
	for _, sql := range log() {
		if sql == "SELECT NAME FROM AUTHOR WHERE AUTHOR_KEY = ?" {
			subst++
		}
	}
	if subst != 1 {
		t.Fatalf("%d substitution queries for one author key, want 1", subst)
	}
}

// TestQueryFormPageAllocs pins the allocations of one QBE form page,
// /table?name=RESULT_FILE, rendered in process: the session lookup, the
// walk of the installed spec and the form written through the page
// writer. html/template took 1,163 per page and the page writer 19;
// with the map-free parameter reader it measured 16, and the ceiling is
// twice that.
func TestQueryFormPageAllocs(t *testing.T) {
	ts := newSite(t)
	ws := ts.srv.Config.Handler.(*Server)
	ws.sessions["allocs"] = core.User{Name: "papiani"}
	req := httptest.NewRequest("GET", "/table?name=RESULT_FILE", nil)
	req.AddCookie(&http.Cookie{Name: sessionCookie, Value: "allocs"})
	rec := httptest.NewRecorder()
	ws.ServeHTTP(rec, req)
	if rec.Code != 200 || strings.Count(rec.Body.String(), `name="sel"`) != 7 {
		t.Fatalf("status %d, %d fields:\n%.300s", rec.Code, strings.Count(rec.Body.String(), `name="sel"`), rec.Body.String())
	}
	allocs := testing.AllocsPerRun(50, func() {
		ws.ServeHTTP(httptest.NewRecorder(), req)
	})
	ceiling := 32.0
	if raceEnabled {
		ceiling *= 2
	}
	t.Logf("%.0f allocs per query form page", allocs)
	if allocs > ceiling {
		t.Fatalf("%.0f allocs per query form page, ceiling %.0f", allocs, ceiling)
	}
}
