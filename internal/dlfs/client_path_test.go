package dlfs

import (
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/med"
	"repro/internal/sqltypes"
)

// storedFiles lists the regular files under a store's root, as paths
// relative to it, leaving out the store's own registry files.
func storedFiles(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() && !strings.HasPrefix(d.Name(), ".dlfm") {
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			out = append(out, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// readAll opens path through the client and returns its bytes.
func readAll(t *testing.T, c *Client, path, token string) string {
	t.Helper()
	rc, err := c.Open(path, token)
	if err != nil {
		t.Fatalf("Open(%q): %v", path, err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("Open(%q): read: %v", path, err)
	}
	return string(b)
}

// TestClientEscapesPaths: a path holding a character a URL gives a
// meaning to reaches the daemon as itself. Each file Put through the
// client is the file Stat and Open find, with its own bytes, and no
// other file appears on the host. A linked file with such a name still
// opens through the tokenized dir/token;file form.
func TestClientEscapesPaths(t *testing.T) {
	auth := newAuth(t)
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(NewManager("fs1.sim:80", store, auth)))
	defer srv.Close()
	client := NewClient("fs1.sim:80", srv.URL, srv.Client())

	paths := []string{
		"/d/a+b.dat",
		"/d/a&b.dat",
		"/d/a b.dat",
		"/d/a%41.dat",
		"/d/a%.dat",
		"/d/a#b.dat",
		"/d/a?b.dat",
		"/d/a;b.dat",
		"/d/a=b&c=d.dat",
		"/d e/f+g/h.dat",
	}
	for i, p := range paths {
		if err := client.Put(p, strings.NewReader("body of "+p)); err != nil {
			t.Fatalf("Put(%q): %v", p, err)
		}
		fi, err := client.Stat(p)
		if err != nil {
			t.Fatalf("Stat(%q): %v", p, err)
		}
		if fi.Path != p || fi.Size != int64(len("body of "+p)) {
			t.Errorf("Stat(%q) = path %q size %d", p, fi.Path, fi.Size)
		}
		if got := readAll(t, client, p, ""); got != "body of "+p {
			t.Errorf("Open(%q) = %q", p, got)
		}
		if got := storedFiles(t, store.Root()); len(got) != i+1 {
			t.Fatalf("after Put(%q) the host holds %q", p, got)
		}
	}
	var want []string
	for _, p := range paths {
		want = append(want, strings.TrimPrefix(p, "/"))
	}
	sort.Strings(want)
	if got := storedFiles(t, store.Root()); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("host holds %q, want %q", got, want)
	}

	// READ PERMISSION DB: only the tokenized form opens it.
	const linked = "/d/a b#c;d%20.dat"
	if err := client.Put(linked, strings.NewReader("linked body")); err != nil {
		t.Fatal(err)
	}
	if err := client.Prepare(1, med.LinkOp{Kind: med.OpLink, Path: linked, Opts: sqltypes.DefaultEASIA()}); err != nil {
		t.Fatal(err)
	}
	if err := client.Commit(1); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Open(linked, ""); !errors.Is(err, ErrTokenRequired) {
		t.Fatalf("tokenless Open of a READ PERMISSION DB file: %v, want ErrTokenRequired", err)
	}
	tok, err := auth.Mint(linked, "u", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, client, linked, tok); got != "linked body" {
		t.Fatalf("tokenized Open(%q) = %q", linked, got)
	}
	if fi, err := client.Stat(linked); err != nil || !fi.Linked || fi.Path != linked {
		t.Fatalf("Stat(%q) = %+v, %v", linked, fi, err)
	}
}

// TestServerRefusesOtherSpellings: a linked, READ PERMISSION DB, WRITE
// PERMISSION BLOCKED file is reached only by its own path. A tokenless
// GET or a PUT that names it another way — "//", a "." or ".." segment,
// a trailing '/', literally or percent-encoded — is refused, and the
// file keeps its bytes.
func TestServerRefusesOtherSpellings(t *testing.T) {
	auth := newAuth(t)
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(NewManager("fs1.sim:80", store, auth)))
	defer srv.Close()
	client := NewClient("fs1.sim:80", srv.URL, srv.Client())
	const body = "linked body"
	if err := client.Put("/d/f.dat", strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	if err := client.Prepare(1, med.LinkOp{Kind: med.OpLink, Path: "/d/f.dat", Opts: sqltypes.DefaultEASIA()}); err != nil {
		t.Fatal(err)
	}
	if err := client.Commit(1); err != nil {
		t.Fatal(err)
	}
	raw := srv.Client()
	raw.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	for _, spelling := range []string{
		"/files/d//f.dat",
		"/files//d/f.dat",
		"/files/d/./f.dat",
		"/files/d/../d/f.dat",
		"/files/d/f.dat/",
		"/files/d%2F%2Ff.dat",
		"/files/d%2F.%2Ff.dat",
		"/files/d/%2E/f.dat",
		"/files/d/%2E%2E/d/f.dat",
		"/files/d/f.dat%2F",
	} {
		for _, method := range []string{http.MethodGet, http.MethodPut} {
			req, err := http.NewRequest(method, srv.URL+spelling, strings.NewReader("overwritten"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := raw.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode/100 == 2 {
				t.Errorf("%s %s: %s %q", method, spelling, resp.Status, got)
			}
		}
	}
	tok, err := auth.Mint("/d/f.dat", "u", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, client, "/d/f.dat", tok); got != body {
		t.Fatalf("the linked file now reads %q", got)
	}
	if got := storedFiles(t, store.Root()); len(got) != 1 || got[0] != "d/f.dat" {
		t.Fatalf("host holds %q", got)
	}
}

// FuzzClientPathRoundTrip: for any path the store accepts — a clean
// one, the only spelling that resolves — Put, Stat and Open through the
// client and a daemon over HTTP agree with the path, size and bytes,
// and the Put wrote that path and nothing else. A Put through the
// client may fail only where the store's own Put of the same path fails
// (a NUL byte, the root itself).
func FuzzClientPathRoundTrip(f *testing.F) {
	for _, p := range []string{
		"/d/f.dat", "/d/a#b.dat", "/d/a%41.dat", "/d/a+b.dat", "/d/a&b.dat",
		"/d/a b.dat", "/d/a?b.dat", "/d/a;b.dat", "/tok;f", "/d/.x/y.dat",
		"/d/\xff\xfe.dat", "/d/é.dat", "/d/a\x00b", "/", "/d/",
	} {
		f.Add(p, []byte("body"))
	}
	var current atomic.Pointer[Server]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	defer srv.Close()
	f.Fuzz(func(t *testing.T, path string, body []byte) {
		store, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fsPath, err := store.resolve(path)
		if err != nil {
			t.Skip()
		}
		current.Store(NewServer(NewManager("fs1.sim:80", store, nil)))
		client := NewClient("fs1.sim:80", srv.URL, srv.Client())
		if err := client.Put(path, strings.NewReader(string(body))); err != nil {
			if _, serr := store.Put(path, strings.NewReader(string(body))); serr == nil {
				t.Fatalf("Put(%q) through the client: %v; the store's own Put succeeds", path, err)
			}
			t.Skip()
		}
		rel, err := filepath.Rel(store.Root(), fsPath)
		if err != nil {
			t.Fatal(err)
		}
		if got := storedFiles(t, store.Root()); len(got) != 1 || got[0] != filepath.ToSlash(rel) {
			t.Fatalf("Put(%q) left %q on the host, want [%q]", path, got, rel)
		}
		fi, err := client.Stat(path)
		if err != nil {
			t.Fatalf("Stat(%q): %v", path, err)
		}
		if fi.Path != path || fi.Size != int64(len(body)) {
			t.Fatalf("Stat(%q) = path %q size %d, want size %d", path, fi.Path, fi.Size, len(body))
		}
		rc, err := client.Open(path, "")
		if err != nil {
			t.Fatalf("Open(%q): %v", path, err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || string(got) != string(body) {
			t.Fatalf("Open(%q) = %q, %v; want %q", path, got, err, body)
		}
	})
}
