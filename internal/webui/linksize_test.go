package webui

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dlfs"
	"repro/internal/med"
	"repro/internal/sqltypes"
)

// countingHost counts the StatFile calls made through it into stats.
type countingHost struct {
	core.FileHost
	stats *atomic.Int64
}

func (h countingHost) StatFile(path string) (dlfs.FileInfo, error) {
	h.stats.Add(1)
	return h.FileHost.StatFile(path)
}

// renderAs renders path through the handler for the given session.
func renderAs(t *testing.T, ws *Server, session, path string) string {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	req.AddCookie(&http.Cookie{Name: sessionCookie, Value: session})
	rec := httptest.NewRecorder()
	ws.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("%s: status %d:\n%.300s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// TestRepeatRenderCostsNoStat: the sizes of linked, write-blocked files
// a page shows are asked of their host once; rendering the same page
// again asks nothing.
func TestRepeatRenderCostsNoStat(t *testing.T) {
	ts := newSite(t)
	ws := ts.srv.Config.Handler.(*Server)
	guest, err := ts.archive.Users.Authenticate("guest", "guest")
	if err != nil {
		t.Fatal(err)
	}
	ws.sessions["stat"] = guest // no download tokens: a page repeats byte for byte
	h, _ := ts.archive.Host("fs1.sim:80")
	var stats atomic.Int64
	ts.archive.AttachFileServer(countingHost{FileHost: h, stats: &stats})

	pages := []string{"/query?table=RESULT_FILE&all=1", "/query?table=CODE_FILE&all=1"}
	var first []string
	for _, p := range pages {
		first = append(first, renderAs(t, ws, "stat", p))
	}
	if n := stats.Load(); n != int64(len(pages)) {
		t.Fatalf("first renders made %d StatFile calls, want one per linked cell (%d)", n, len(pages))
	}
	if !strings.Contains(first[0], "ts4.tsf (") {
		t.Fatalf("no size rendered:\n%s", first[0])
	}
	for i, p := range pages {
		if again := renderAs(t, ws, "stat", p); again != first[i] {
			t.Fatalf("%s rendered again differs: %s", p, firstDiff(first[i], again))
		}
	}
	if n := stats.Load(); n != int64(len(pages)) {
		t.Fatalf("repeat renders made %d StatFile calls, want 0", n-int64(len(pages)))
	}
}

// shelfDDL holds one row's files in three DATALINK columns: two
// write-blocked ones unlinked by RESTORE and by DELETE, and one whose
// file stays writable while linked.
const shelfDDL = `CREATE TABLE SHELF (
  ID      INTEGER PRIMARY KEY,
  KEPT    DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL
          READ PERMISSION DB WRITE PERMISSION BLOCKED RECOVERY YES ON UNLINK RESTORE,
  DROPPED DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL
          READ PERMISSION DB WRITE PERMISSION BLOCKED RECOVERY YES ON UNLINK DELETE,
  LOOSE   DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL
          READ PERMISSION FS WRITE PERMISSION FS RECOVERY NO ON UNLINK RESTORE
)`

// shelf is the freshness test's archive and the sizes its files have,
// as the writer last acknowledged them.
type shelf struct {
	t     *testing.T
	a     *core.Archive
	ws    *Server
	auth  *med.TokenAuthority
	stats atomic.Int64
	step  int
	size  map[string]int64  // file path → current size
	row   map[int][3]string // row id → its KEPT, DROPPED, LOOSE paths
	alt   map[int]string    // row id → the path KEPT moves to on a relink
	opts  [3]sqltypes.DatalinkOptions
}

const shelfHost = "fs1.sim:80"

func (s *shelf) url(p string) string { return "http://" + shelfHost + p }

// content returns the next content for path, of a size no file had
// before, and records that size as path's.
func (s *shelf) content(p string) *strings.Reader {
	s.step++
	n := 100 + 7*s.step
	s.size[p] = int64(n)
	return strings.NewReader(strings.Repeat("x", n))
}

// put writes path on the current host through the archive.
func (s *shelf) put(p string) {
	s.t.Helper()
	if _, err := s.a.ArchiveFile(shelfHost, p, s.content(p)); err != nil {
		s.t.Fatalf("put %s: %v", p, err)
	}
}

func (s *shelf) exec(sql string) {
	s.t.Helper()
	if _, err := s.a.DB.Exec(sql); err != nil {
		s.t.Fatalf("%s: %v", sql, err)
	}
}

func (s *shelf) insert(id int) {
	s.t.Helper()
	r := s.row[id]
	s.exec(fmt.Sprintf("INSERT INTO SHELF VALUES (%d, DLVALUE('%s'), DLVALUE('%s'), DLVALUE('%s'))",
		id, s.url(r[0]), s.url(r[1]), s.url(r[2])))
}

// newHost returns a manager for the shelf's host over a new store.
func (s *shelf) newHost() *dlfs.Manager {
	store, err := dlfs.NewStore(s.t.TempDir())
	if err != nil {
		s.t.Fatal(err)
	}
	return dlfs.NewManager(shelfHost, store, s.auth)
}

// attach serves the shelf's host from m, through the counting wrapper.
func (s *shelf) attach(m *dlfs.Manager) {
	s.a.AttachFileServer(countingHost{FileHost: core.WrapManager(m), stats: &s.stats})
}

// check renders the shelf and fails unless every file shows the size
// the writer last acknowledged.
func (s *shelf) check(what string) string {
	s.t.Helper()
	body := renderAs(s.t, s.ws, "shelf", "/query?table=SHELF&all=1")
	for id, r := range s.row {
		for _, p := range r {
			if want := fmt.Sprintf("%s (%d bytes)", path.Base(p), s.size[p]); !strings.Contains(body, want) {
				s.t.Fatalf("after %s: row %d shows no %q:\n%s", what, id, want, body)
			}
		}
	}
	return body
}

// TestLinkedSizeFreshUnderWrites: a render that starts after a write is
// acknowledged shows every linked file's current size, while other
// renders race to remember sizes. The writes are those that can change
// a linked file: a DELETE under ON UNLINK RESTORE and ON UNLINK DELETE
// followed by re-archiving the freed paths with other sizes, a relink
// UPDATE, a Put to a WRITE PERMISSION FS file, and a host replaced by
// one holding other sizes. Once the writes stop, a repeat render asks
// the host only about the WRITE PERMISSION FS files.
func TestLinkedSizeFreshUnderWrites(t *testing.T) {
	secret := []byte("webui-secret")
	a, err := core.Open(core.Config{Secret: secret, WorkRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	auth, _ := med.NewTokenAuthority(secret, 0)
	s := &shelf{t: t, a: a, auth: auth, size: map[string]int64{}, row: map[int][3]string{}, alt: map[int]string{}}
	s.attach(s.newHost())
	s.exec(shelfDDL)
	schema, _ := a.DB.Catalog().Table("SHELF")
	for i, col := range []string{"KEPT", "DROPPED", "LOOSE"} {
		s.opts[i] = *schema.Cols[schema.ColIndex(col)].Type.Datalink
	}
	const rows = 4
	for id := 1; id <= rows; id++ {
		s.row[id] = [3]string{fmt.Sprintf("/s/kept%d.dat", id), fmt.Sprintf("/s/drop%d.dat", id), fmt.Sprintf("/s/loose%d.dat", id)}
		s.alt[id] = fmt.Sprintf("/s/alt%d.dat", id)
		for _, p := range s.row[id] {
			s.put(p)
		}
		s.put(s.alt[id])
		s.insert(id)
	}
	if _, err := a.GenerateXUIS("SHELF"); err != nil {
		t.Fatal(err)
	}
	s.ws = NewServer(a)
	guest, err := a.Users.Authenticate("guest", "guest")
	if err != nil {
		t.Fatal(err)
	}
	s.ws.sessions["shelf"] = guest // no download tokens: a page repeats byte for byte
	s.check("set-up")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest("GET", "/query?table=SHELF&all=1", nil)
				req.AddCookie(&http.Cookie{Name: sessionCookie, Value: "shelf"})
				s.ws.ServeHTTP(httptest.NewRecorder(), req)
			}
		}()
	}
	halt := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer halt()

	for i := 0; i < 40; i++ {
		id := 1 + i%rows
		r := s.row[id]
		var what string
		switch i % 5 {
		case 0, 1: // DELETE: RESTORE keeps KEPT and LOOSE, DELETE removes DROPPED
			s.exec(fmt.Sprintf("DELETE FROM SHELF WHERE ID = %d", id))
			for _, p := range r {
				s.put(p)
			}
			s.insert(id)
			what = fmt.Sprintf("DELETE and re-archive of row %d", id)
		case 2: // relink UPDATE, then a new size for the path it freed
			s.exec(fmt.Sprintf("UPDATE SHELF SET KEPT = DLVALUE('%s') WHERE ID = %d", s.url(s.alt[id]), id))
			r[0], s.alt[id] = s.alt[id], r[0]
			s.row[id] = r
			s.put(s.alt[id])
			what = fmt.Sprintf("relink of row %d", id)
		case 3: // WRITE PERMISSION FS: the linked file is rewritten in place
			s.put(r[2])
			what = fmt.Sprintf("Put to row %d's WRITE PERMISSION FS file", id)
		case 4: // the host replaced by one holding every file at another size
			m := s.newHost()
			for rid, rr := range s.row {
				for c, p := range rr {
					if _, err := m.Put(p, s.content(p)); err != nil {
						t.Fatal(err)
					}
					if err := m.EnsureLinked(p, s.opts[c]); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := m.Put(s.alt[rid], s.content(s.alt[rid])); err != nil {
					t.Fatal(err)
				}
			}
			s.attach(m)
			what = "host replacement"
		}
		s.check(what)
	}

	halt()
	first := s.check("the last write")
	before := s.stats.Load()
	if again := s.check("a repeat render"); again != first {
		t.Fatalf("repeat render differs: %s", firstDiff(first, again))
	}
	if n := s.stats.Load() - before; n != rows {
		t.Fatalf("a repeat render made %d StatFile calls, want %d (the WRITE PERMISSION FS files)", n, rows)
	}
}
