package dlfs

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

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

// copyCeiling widens an allocation ceiling under the race detector,
// where sync.Pool drops a quarter of the buffers it is given back.
func copyCeiling(c float64) float64 {
	if raceEnabled {
		return c + 16<<10
	}
	return c
}

// TestStorePutAllocs: a 2 KiB Put from a reader that cannot write itself
// out (an HTTP request body over TCP) borrows its copy buffer. io.Copy
// allocated 32 KiB per Put here, through *os.File's ReadFrom fallback.
func TestStorePutAllocs(t *testing.T) {
	m := newManager(t)
	data := bytes.Repeat([]byte("p"), 2<<10)
	per := bytesPerCall(100, func() {
		if _, err := m.Put("/d/put.dat", struct{ io.Reader }{bytes.NewReader(data)}); err != nil {
			t.Fatal(err)
		}
	})
	ceiling := copyCeiling(4 << 10)
	t.Logf("%.0f bytes allocated per 2 KiB Put", per)
	if per > ceiling {
		t.Fatalf("%.0f bytes allocated per 2 KiB Put, ceiling %.0f", per, ceiling)
	}
}

// bodyOnly is a ResponseWriter without ReadFrom — an in-process
// transport's or a wrapping writer's — that keeps the body.
type bodyOnly struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (b *bodyOnly) Header() http.Header         { return b.header }
func (b *bodyOnly) WriteHeader(code int)        { b.code = code }
func (b *bodyOnly) Write(p []byte) (int, error) { return b.body.Write(p) }

// TestServerDownloadAllocs: a 2 KiB GET /files into a ResponseWriter
// without ReadFrom borrows its copy buffer. io.Copy allocated 32 KiB per
// download here, through *os.File's WriteTo fallback.
func TestServerDownloadAllocs(t *testing.T) {
	m := newManager(t)
	data := bytes.Repeat([]byte("g"), 2<<10)
	putFile(t, m, "/d/get.dat", string(data))
	srv := NewServer(m)
	req := httptest.NewRequest(http.MethodGet, "/files/d/get.dat", nil)
	w := &bodyOnly{header: http.Header{}}
	w.body.Grow(len(data))
	per := bytesPerCall(100, func() {
		clear(w.header)
		w.body.Reset()
		srv.ServeHTTP(w, req)
		if w.body.Len() != len(data) {
			t.Fatalf("downloaded %d bytes, want %d", w.body.Len(), len(data))
		}
	})
	ceiling := copyCeiling(4 << 10)
	t.Logf("%.0f bytes allocated per 2 KiB download", per)
	if per > ceiling {
		t.Fatalf("%.0f bytes allocated per 2 KiB download, ceiling %.0f", per, ceiling)
	}
}
