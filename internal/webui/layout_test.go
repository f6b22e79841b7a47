package webui

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sqltypes"
	"repro/internal/xuis"
)

// layoutRequest is one results page rendered as one session's user.
type layoutRequest struct{ session, path string }

// renderOn renders path for session on ws, download tokens masked.
func renderOn(ws *Server, session, path string) string {
	req := httptest.NewRequest("GET", path, nil)
	req.AddCookie(&http.Cookie{Name: sessionCookie, Value: session})
	rec := httptest.NewRecorder()
	ws.ServeHTTP(rec, req)
	return fmt.Sprintf("%d\n", rec.Code) + goldenToken.ReplaceAllString(rec.Body.String(), "${1}TOKEN${2}")
}

// TestLayoutFreshUnderSpecChanges: page layouts are remembered per
// shape, yet every page rendered after SetSpec returns — a new spec or
// the installed one reinstalled after in-place edits to an alias, a
// hidden column, an FK substitution and an operation — and after a
// table is dropped and created again, is the page a server with no
// remembered layout renders. Renders run concurrently with every
// SetSpec and with the DDL; the in-place edits wait for the renders in
// flight, as they must for any reader of the spec.
func TestLayoutFreshUnderSpecChanges(t *testing.T) {
	ts := newSite(t)
	a := ts.archive
	if _, err := a.DB.Exec(`INSERT INTO VISUALISATION_FILE VALUES ('v1.pgm', 'S19990110150932', 'a slice', ?, NULL)`,
		sqltypes.NewBytes([]byte{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	ws := ts.srv.Config.Handler.(*Server)
	guest, err := a.Users.Authenticate("guest", "guest")
	if err != nil {
		t.Fatal(err)
	}
	sessions := map[string]core.User{"guest": guest, "papiani": {Name: "papiani"}}
	for id, u := range sessions {
		ws.sessions[id] = u
	}
	var reqs []layoutRequest
	for session := range sessions {
		for _, path := range []string{
			"/query?table=AUTHOR&all=1",
			"/query?table=SIMULATION&all=1",
			"/query?table=SIMULATION&sel=TITLE&sel=AUTHOR_KEY",
			"/query?table=RESULT_FILE&all=1",
			"/query?table=VISUALISATION_FILE&all=1",
			"/browse?mode=fk&table=AUTHOR&col=AUTHOR_KEY&value=A19990110151042",
			"/browse?mode=pk&table=RESULT_FILE&col=SIMULATION_KEY&value=S19990110150932",
		} {
			reqs = append(reqs, layoutRequest{session, path})
		}
	}
	uncached := func(r layoutRequest) string {
		fresh := NewServer(a)
		fresh.sessions[r.session] = sessions[r.session]
		return renderOn(fresh, r.session, r.path)
	}

	// want holds the uncached pages of the state installed last; nil
	// while a change is under way.
	var want atomic.Pointer[[]string]
	settle := func() {
		pages := make([]string, len(reqs))
		for i, r := range reqs {
			pages[i] = uncached(r)
		}
		want.Store(&pages)
		for i, r := range reqs {
			if got := renderOn(ws, r.session, r.path); got != pages[i] {
				t.Fatalf("%s as %s after the change: %s", r.path, r.session, firstDiff(pages[i], got))
			}
		}
	}
	var (
		edits   sync.RWMutex // held by in-place spec edits
		checked atomic.Int64 // concurrent renders compared with want
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := reqs[i%len(reqs)]
				edits.RLock()
				before := want.Load()
				got := renderOn(ws, r.session, r.path)
				after := want.Load()
				edits.RUnlock()
				if before == nil || before != after {
					continue // the state changed while the page was rendered
				}
				if w := (*before)[i%len(reqs)]; got != w {
					t.Errorf("%s as %s rendered concurrently: %s", r.path, r.session, firstDiff(w, got))
					return
				}
				checked.Add(1)
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	// awaitRenders lets the renderers check some pages of this state.
	awaitRenders := func() {
		target := checked.Load() + int64(2*len(reqs))
		for deadline := time.Now().Add(10 * time.Second); checked.Load() < target && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	install := func(spec *xuis.Spec) {
		t.Helper()
		want.Store(nil)
		if err := a.SetSpec(spec); err != nil {
			t.Fatal(err)
		}
		settle()
		awaitRenders()
	}
	editInPlace := func(edit func(*xuis.Spec) error) {
		t.Helper()
		spec := a.Spec()
		edits.Lock()
		want.Store(nil)
		err := edit(spec)
		edits.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		install(spec) // the same *Spec
	}

	settle()
	awaitRenders()
	fresh := a.Spec().Clone()
	if err := fresh.SetColumnAlias("AUTHOR", "NAME", `Full <name>`); err != nil {
		t.Fatal(err)
	}
	install(fresh)
	editInPlace(func(s *xuis.Spec) error { return s.SetTableAlias("RESULT_FILE", "Result & files") })
	editInPlace(func(s *xuis.Spec) error { return s.HideColumn("SIMULATION", "TITLE") })
	editInPlace(func(s *xuis.Spec) error { return s.SetFKSubstitution("SIMULATION", "AUTHOR_KEY", "AUTHOR.EMAIL") })
	editInPlace(func(s *xuis.Spec) error { return s.RemoveOperation("RESULT_FILE", "DOWNLOAD_RESULT", "GetImage") })
	if page := renderOn(ws, "papiani", "/query?table=RESULT_FILE&all=1"); !strings.Contains(page, "upload code") || strings.Contains(page, "op:") {
		t.Fatalf("a column left with an upload alone lost its upload link or kept an operation:\n%s", page)
	}
	editInPlace(func(s *xuis.Spec) error {
		return s.AddOperation("RESULT_FILE", "DOWNLOAD_RESULT", &xuis.Operation{
			Name: "Peek", Type: "EASL", Filename: "peek.easl", Format: "easl", GuestAccess: true,
			Location: &xuis.Location{DatabaseResult: &xuis.DatabaseResult{
				ColID:      "CODE_FILE.DOWNLOAD_CODE_FILE",
				Conditions: []xuis.Condition{{ColID: "CODE_FILE.CODE_NAME", Eq: "'GetImage.easl'"}},
			}},
		})
	})
	editInPlace(func(*xuis.Spec) error { return nil }) // reinstalled unedited

	// The same table name over a new schema — another primary key, so
	// the BLOB cell's key parameters change — with no SetSpec.
	want.Store(nil)
	for _, step := range []struct {
		sql  string
		args []sqltypes.Value
	}{
		{`DROP TABLE VISUALISATION_FILE`, nil},
		{`CREATE TABLE VISUALISATION_FILE (
		  VIS_NAME VARCHAR(100), SIMULATION_KEY VARCHAR(30), DESCRIPTION VARCHAR(500), PREVIEW BLOB,
		  DOWNLOAD_VIS DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL READ PERMISSION DB
		    WRITE PERMISSION BLOCKED RECOVERY YES ON UNLINK RESTORE,
		  PRIMARY KEY (VIS_NAME, SIMULATION_KEY))`, nil},
		{`INSERT INTO VISUALISATION_FILE VALUES ('v2.pgm', 'S19990110150932', 'b slice', ?, NULL)`,
			[]sqltypes.Value{sqltypes.NewBytes([]byte{4, 5})}},
	} {
		if _, err := a.DB.Exec(step.sql, step.args...); err != nil {
			t.Fatal(err)
		}
	}
	settle()
	if page := renderOn(ws, "papiani", "/query?table=VISUALISATION_FILE&all=1"); !strings.Contains(page, "pk_SIMULATION_KEY=") {
		t.Fatalf("the recreated table's key is not in its BLOB links:\n%s", page)
	}
	awaitRenders()
	want.Store(nil)
	if _, err := a.GenerateXUIS("TURBULENCE"); err != nil {
		t.Fatal(err)
	}
	settle()
	awaitRenders()
	if checked.Load() == 0 {
		t.Fatal("no concurrent render was checked")
	}
}

// TestLayoutMemoBounded: a stream of distinct select lists, each a shape
// of its own, leaves the memo no larger than its cap, and a page whose
// layout the memo dropped is rendered right again.
func TestLayoutMemoBounded(t *testing.T) {
	ts := newSite(t)
	ws := ts.srv.Config.Handler.(*Server)
	ws.sessions["guest"] = core.User{Name: "guest", Guest: true}
	cols := []string{"FILE_NAME", "SIMULATION_KEY", "TIMESTEP", "MEASUREMENT", "FILE_FORMAT", "FILE_SIZE", "DOWNLOAD_RESULT"}
	const first = "/query?table=RESULT_FILE&sel=FILE_NAME&sel=TIMESTEP"
	want := renderOn(ws, "guest", first)
	shapes := 0
	// perm renders the page of every ordering of k more columns after
	// sel, until the memo has been filled past its cap twice.
	var perm func(sel []string, k int)
	perm = func(sel []string, k int) {
		if k == 0 {
			page := renderOn(ws, "guest", "/query?table=RESULT_FILE&sel="+strings.Join(sel, "&sel="))
			if !strings.HasPrefix(page, "200\n") {
				t.Fatalf("sel %v: %.200s", sel, page)
			}
			shapes++
			ws.layouts.mu.Lock()
			n := len(ws.layouts.layouts)
			ws.layouts.mu.Unlock()
			if n > layoutMemoCap {
				t.Fatalf("%d layouts remembered after %d shapes, cap %d", n, shapes, layoutMemoCap)
			}
			return
		}
		for _, c := range cols {
			if shapes <= 2*layoutMemoCap && !slices.Contains(sel, c) {
				perm(append(sel, c), k-1)
			}
		}
	}
	perm(nil, 5)
	if shapes <= 2*layoutMemoCap {
		t.Fatalf("only %d shapes: the memo was not filled past its cap twice", shapes)
	}
	if got := renderOn(ws, "guest", first); got != want {
		t.Fatalf("%s after the memo started over: %s", first, firstDiff(want, got))
	}
}
