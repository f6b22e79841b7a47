package webui

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dlfs"
	"repro/internal/med"
)

// keepPage is a ResponseWriter without ReadFrom that keeps the body: an
// in-process transport's, or a writer wrapped in front of the page.
type keepPage struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (k *keepPage) Header() http.Header         { return k.header }
func (k *keepPage) WriteHeader(code int)        { k.code = code }
func (k *keepPage) Write(b []byte) (int, error) { return k.body.Write(b) }

// inprocTransport runs a dlfs.Server on the caller's goroutine into a
// keepPage, so neither the file server's copy nor the web layer's has a
// ReadFrom to lean on.
type inprocTransport struct{ srv *dlfs.Server }

func (t inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body == nil {
		req.Body = http.NoBody
	}
	rw := &keepPage{header: http.Header{}, code: http.StatusOK}
	t.srv.ServeHTTP(rw, req)
	req.Body.Close()
	return &http.Response{
		StatusCode:    rw.code,
		Header:        rw.header,
		Body:          io.NopCloser(&rw.body),
		ContentLength: int64(rw.body.Len()),
		Request:       req,
	}, nil
}

func newFileManager(t testing.TB, host string) *dlfs.Manager {
	t.Helper()
	store, err := dlfs.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	auth, _ := med.NewTokenAuthority([]byte("webui-secret"), 0)
	return dlfs.NewManager(host, store, auth)
}

// attachInproc attaches a file host reached through inprocTransport.
func attachInproc(t testing.TB, a *core.Archive, host string) {
	srv := dlfs.NewServer(newFileManager(t, host))
	hc := &http.Client{Transport: inprocTransport{srv}}
	a.AttachFileServer(core.WrapClient(dlfs.NewClient(host, "http://"+host, hc)))
}

// attachTCP attaches a file host served by a dlfs daemon over TCP.
func attachTCP(t testing.TB, a *core.Archive, host string) {
	srv := httptest.NewServer(dlfs.NewServer(newFileManager(t, host)))
	t.Cleanup(srv.Close)
	a.AttachFileServer(core.WrapClient(dlfs.NewClient(host, srv.URL, srv.Client())))
}

// downloadPath archives data at path on host and returns the page's
// /download request for it.
func downloadPath(t testing.TB, a *core.Archive, host, path string, data []byte) string {
	t.Helper()
	dl, err := a.ArchiveFile(host, path, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return downloadOf(t, a, dl)
}

func downloadOf(t testing.TB, a *core.Archive, datalink string) string {
	t.Helper()
	tok, err := a.DownloadURL(datalink, core.User{Name: "papiani"})
	if err != nil {
		t.Fatal(err)
	}
	return "/download?url=" + url.QueryEscape(tok)
}

// directRequest is a logged-in request for ws.ServeHTTP.
func directRequest(ws *Server, path string) *http.Request {
	ws.mu.Lock()
	ws.sessions["download"] = core.User{Name: "papiani"}
	ws.mu.Unlock()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.AddCookie(&http.Cookie{Name: sessionCookie, Value: "download"})
	return req
}

// TestDownloadRoundTrip: files around the copy buffer's size come back
// byte for byte, over TCP at both tiers (net/http's ReadFrom on each
// response) and in process into writers without ReadFrom (the pooled
// copy at both tiers).
func TestDownloadRoundTrip(t *testing.T) {
	ts := newSite(t)
	ws := ts.srv.Config.Handler.(*Server)
	attachInproc(t, ts.archive, "fs2.sim:80")
	attachTCP(t, ts.archive, "fs3.sim:80")
	ts.login(t, "papiani", "s3cret")
	rng := rand.New(rand.NewSource(42))
	for _, size := range []int{0, 1, 32<<10 - 1, 32 << 10, 32<<10 + 1, 100 << 10} {
		data := make([]byte, size)
		rng.Read(data)
		name := fmt.Sprintf("/vol0/rt/f%d.dat", size)

		code, body := ts.get(t, downloadPath(t, ts.archive, "fs3.sim:80", name, data))
		if code != http.StatusOK || body != string(data) {
			t.Errorf("over TCP, %d bytes: status %d, got %d bytes, equal %v", size, code, len(body), body == string(data))
		}

		page := &keepPage{header: http.Header{}, code: http.StatusOK}
		ws.ServeHTTP(page, directRequest(ws, downloadPath(t, ts.archive, "fs2.sim:80", name, data)))
		if page.code != http.StatusOK || !bytes.Equal(page.body.Bytes(), data) {
			t.Errorf("pooled, %d bytes: status %d, got %d bytes, equal %v", size, page.code, page.body.Len(), bytes.Equal(page.body.Bytes(), data))
		}
	}
}

// bytesPerCall is the heap bytes one call of f allocates, averaged over
// n calls after a warm-up call.
func bytesPerCall(n int, f func()) float64 {
	f()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// downloadCeiling bounds the bytes one 2 KiB download allocates through
// the web layer and an in-process file server, both copying into
// writers without ReadFrom. Two io.Copy buffers made it over 64 KiB; the
// pooled copies measured about 5 KiB. Under the race detector sync.Pool
// drops a quarter of the buffers it is given back.
func downloadCeiling() float64 {
	if raceEnabled {
		return 40 << 10
	}
	return 12 << 10
}

// TestDownloadAllocs: a 2 KiB download borrows both copy buffers.
func TestDownloadAllocs(t *testing.T) {
	ts := newSite(t)
	ws := ts.srv.Config.Handler.(*Server)
	attachInproc(t, ts.archive, "fs2.sim:80")
	data := bytes.Repeat([]byte("d"), 2<<10)
	req := directRequest(ws, downloadPath(t, ts.archive, "fs2.sim:80", "/vol0/a/f.dat", data))
	page := &discardPage{header: http.Header{}}
	per := bytesPerCall(100, func() {
		page.n = 0
		ws.ServeHTTP(page, req)
		if page.n != len(data) {
			t.Fatalf("downloaded %d bytes, want %d", page.n, len(data))
		}
	})
	t.Logf("%.0f bytes allocated per 2 KiB download", per)
	if ceiling := downloadCeiling(); per > ceiling {
		t.Fatalf("%.0f bytes allocated per 2 KiB download, ceiling %.0f", per, ceiling)
	}
}

// failingPage takes limit bytes of the body and then fails every write,
// like a browser that went away mid-download.
type failingPage struct {
	header http.Header
	limit  int
	n      int
}

var errGone = errors.New("client gone")

func (f *failingPage) Header() http.Header { return f.header }
func (f *failingPage) WriteHeader(int)     {}
func (f *failingPage) Write(b []byte) (int, error) {
	if f.n+len(b) > f.limit {
		k := f.limit - f.n
		f.n = f.limit
		return k, errGone
	}
	f.n += len(b)
	return len(b), nil
}

// TestDownloadFailingWriter: downloads whose client fails mid-copy give
// the copy buffer back (they allocate no more than a whole 2 KiB
// download), and the next download is exact. The file is on the site's
// in-process manager, so the web layer copies straight from the file.
func TestDownloadFailingWriter(t *testing.T) {
	ts := newSite(t)
	ws := ts.srv.Config.Handler.(*Server)
	data := make([]byte, 100<<10)
	rand.New(rand.NewSource(7)).Read(data)
	req := directRequest(ws, downloadPath(t, ts.archive, "fs1.sim:80", "/vol0/a/big.dat", data))
	per := bytesPerCall(100, func() {
		page := failingPage{header: http.Header{}, limit: 1000}
		ws.ServeHTTP(&page, req)
		if page.n != page.limit {
			t.Fatalf("failing client took %d bytes, want %d", page.n, page.limit)
		}
	})
	t.Logf("%.0f bytes allocated per failed download", per)
	if ceiling := downloadCeiling(); per > ceiling {
		t.Fatalf("%.0f bytes allocated per failed download, ceiling %.0f", per, ceiling)
	}
	page := &keepPage{header: http.Header{}, code: http.StatusOK}
	ws.ServeHTTP(page, req)
	if page.code != http.StatusOK || !bytes.Equal(page.body.Bytes(), data) {
		t.Fatalf("download after failures: status %d, %d bytes, equal %v", page.code, page.body.Len(), bytes.Equal(page.body.Bytes(), data))
	}
}

// TestDownloadStatus: only a token refusal answers 403. A file its
// server does not have is 404, a URL naming no file 400, and an
// unregistered or unreachable file server 502.
func TestDownloadStatus(t *testing.T) {
	ts := newSite(t)
	ws := ts.srv.Config.Handler.(*Server)
	attachInproc(t, ts.archive, "fs2.sim:80")
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	ts.archive.AttachFileServer(core.WrapClient(dlfs.NewClient("down.sim:80", down.URL, nil)))

	const linked = "http://fs1.sim:80/vol0/run1/ts4.tsf" // READ PERMISSION DB
	good := downloadOf(t, ts.archive, linked)
	tok, _ := url.QueryUnescape(strings.TrimPrefix(good, "/download?url="))
	i := strings.LastIndexByte(tok, '/') + 1
	flip := byte('A')
	if tok[i] == 'A' {
		flip = 'B'
	}
	tampered := tok[:i] + string(flip) + tok[i+1:]

	for _, c := range []struct {
		name, path string
		want       int
	}{
		{"valid token", good, http.StatusOK},
		{"tampered token", "/download?url=" + url.QueryEscape(tampered), http.StatusForbidden},
		{"no token", "/download?url=" + url.QueryEscape(linked), http.StatusForbidden},
		{"missing file", downloadOf(t, ts.archive, "http://fs1.sim:80/vol0/run1/none.tsf"), http.StatusNotFound},
		{"missing remote file", downloadOf(t, ts.archive, "http://fs2.sim:80/vol0/none.dat"), http.StatusNotFound},
		{"unregistered server", downloadOf(t, ts.archive, "http://nowhere.sim:80/vol0/f.dat"), http.StatusBadGateway},
		{"unreachable server", downloadOf(t, ts.archive, "http://down.sim:80/vol0/f.dat"), http.StatusBadGateway},
		{"not a file URL", "/download?url=" + url.QueryEscape("ftp://fs1.sim:80/x"), http.StatusBadRequest},
	} {
		page := &keepPage{header: http.Header{}, code: http.StatusOK}
		ws.ServeHTTP(page, directRequest(ws, c.path))
		if page.code != c.want {
			t.Errorf("%s: status %d, want %d (%.200s)", c.name, page.code, c.want, page.body.String())
		}
	}
}
