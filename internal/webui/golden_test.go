package webui

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current renderer")

// goldenToken matches the encrypted access token inside a rendered
// download link's url= parameter: it carries a random nonce, so it is
// the one part of a results page that differs between two renders.
var goldenToken = regexp.MustCompile(`(/download\?url=[^"]*?%2F)[A-Za-z0-9_-]+(%3B)`)

// goldenPages are the results routes the corpus pins: restricted and
// unrestricted QBE searches, both browsing modes, every LOB/DATALINK
// cell shape and a search that selects an incomplete primary key (no
// row-addressed links).
var goldenPages = []struct{ name, path string }{
	{"query_restricted", "/query?table=SIMULATION&sel=SIMULATION_KEY&sel=AUTHOR_KEY&sel=TITLE&op_TITLE=CONTAINS&val_TITLE=channel"},
	{"query_all_author", "/query?table=AUTHOR&all=1"},
	{"query_all_simulation", "/query?table=SIMULATION&all=1"},
	{"query_all_result_file", "/query?table=RESULT_FILE&all=1"},
	{"query_all_code_file", "/query?table=CODE_FILE&all=1"},
	{"query_partial_key", "/query?table=RESULT_FILE&sel=FILE_NAME&sel=DOWNLOAD_RESULT&orderby=FILE_NAME"},
	{"query_lob_without_key", "/query?table=SIMULATION&sel=TITLE&sel=DESCRIPTION"},
	{"query_all_vis", "/query?table=VISUALISATION_FILE&all=1"},
	{"query_empty", "/query?table=AUTHOR&op_NAME=%3D&val_NAME=nobody"},
	{"browse_fk", "/browse?mode=fk&table=AUTHOR&col=AUTHOR_KEY&value=A19990110151042"},
	{"browse_pk", "/browse?mode=pk&table=RESULT_FILE&col=SIMULATION_KEY&value=S19990110150932"},
}

// TestGoldenResultPages renders every golden route as a guest and as a
// registered user and compares the body byte for byte with the
// committed page (download tokens masked). The last page is a result
// of 150 SIMULATION rows — far past the plain-heap arena chunks — whose
// keys, titles and authors carry every character the HTML and URL
// escapers treat specially. Regenerate with `go test -run
// TestGoldenResultPages -update ./internal/webui`.
func TestGoldenResultPages(t *testing.T) {
	ts := newSite(t)
	visURL, err := ts.archive.ArchiveFile("fs1.sim:80", "/vis/run 1/slice+z.pgm", strings.NewReader("P5 1 1 255 x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.archive.DB.Exec(`INSERT INTO VISUALISATION_FILE VALUES ('slice+z.pgm', 'S19990110150932', 'z slice', ?, DLVALUE(?))`,
		sqltypes.NewBytes([]byte{0, 1, 2, 3}), sqltypes.NewString(visURL)); err != nil {
		t.Fatal(err)
	}
	check := func(user, name, path string) {
		t.Helper()
		checkGolden(t, ts, user, name, path, 200)
	}
	users := []struct{ name, pass string }{{"guest", "guest"}, {"papiani", "s3cret"}}
	for _, u := range users {
		ts.login(t, u.name, u.pass)
		for _, p := range goldenPages {
			check(u.name, p.name, p.path)
		}
	}

	for _, sql := range []string{
		`INSERT INTO AUTHOR VALUES ('A<1>&"2"', 'O''Brien & "Sons" <lab> + 1 → é', NULL, 'x+y@z')`,
	} {
		if _, err := ts.archive.DB.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i++ {
		author := "A19990110151042"
		if i%3 == 0 {
			author = `A<1>&"2"`
		}
		desc := "NULL"
		if i%2 == 0 {
			desc = fmt.Sprintf("'Run %d: <b>bold</b> & ''quoted'' \"text\" + more'", i)
		}
		sql := fmt.Sprintf(`INSERT INTO SIMULATION VALUES ('S+%03d &k="v"/é?', '%s', 'Title %d <%d> & ''x'' + "y"', %s, %d, %d.5, %d, '2000-03-27 09:00:00')`,
			i, author, i, i, desc, i, i, i)
		if _, err := ts.archive.DB.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range users {
		ts.login(t, u.name, u.pass)
		check(u.name, "query_large_simulation", "/query?table=SIMULATION&all=1")
	}
}

// TestGoldenChromePages pins the pages that hold no results table: the
// QBE form of every visible table as a guest and as a registered user,
// the home page signed out and signed in, and the 404 page of an
// unknown table. Regenerate with `go test -run TestGoldenChromePages
// -update ./internal/webui`.
func TestGoldenChromePages(t *testing.T) {
	ts := newSite(t)
	checkGolden(t, ts, "anonymous", "home", "/", 200)
	for _, u := range []struct{ name, pass string }{{"guest", "guest"}, {"papiani", "s3cret"}} {
		ts.login(t, u.name, u.pass)
		checkGolden(t, ts, u.name, "home", "/", 200)
		for _, tbl := range ts.archive.Spec().VisibleTables() {
			checkGolden(t, ts, u.name, "table_"+strings.ToLower(tbl.Name), "/table?name="+tbl.Name, 200)
		}
		checkGolden(t, ts, u.name, "table_unknown", "/table?name=NOPE", 404)
	}

	// The installed spec customised in place, with every character the
	// escapers rewrite in an alias, a sample and an error message.
	spec := ts.archive.Spec()
	for _, err := range []error{
		spec.SetTableAlias("AUTHOR", `O'Brien & "Sons" <lab> + 1 → é`),
		spec.SetColumnAlias("AUTHOR", "NAME", "<b>Name</b>\x00"),
		spec.SetSamples("AUTHOR", "EMAIL", `a<b>@c`, "", `x+y&z="w"`, "\xff\xfe"),
		spec.SetSamples("AUTHOR", "NAME"),
		spec.HideColumn("AUTHOR", "ORGANISATION"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, ts, "papiani", "home_custom", "/", 200)
	checkGolden(t, ts, "papiani", "table_author_custom", "/table?name=author", 200)
	checkGolden(t, ts, "papiani", "table_unknown_markup", "/table?name=%3Cb%3E%26%22x%27%2B%00", 404)
}

// checkGolden fetches path as user and compares the body byte for byte
// with testdata/golden/<name>.<user>.html, download tokens masked; with
// -update it records the body instead.
func checkGolden(t *testing.T, ts *testSite, user, name, path string, status int) {
	t.Helper()
	code, body := ts.get(t, path)
	if code != status {
		t.Fatalf("%s as %s: status %d, want %d", path, user, code, status)
	}
	got := goldenToken.ReplaceAllString(body, "${1}TOKEN${2}")
	file := filepath.Join("testdata", "golden", name+"."+user+".html")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		t.Errorf("%s as %s (%s) differs from %s:\n%s", path, user, name, file, firstDiff(string(want), got))
	}
}

// firstDiff shows where two pages part ways.
func firstDiff(want, got string) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := max(i-80, 0)
	return fmt.Sprintf("at byte %d\nwant: %q\n got: %q", i, want[lo:min(i+80, len(want))], got[lo:min(i+80, len(got))])
}
