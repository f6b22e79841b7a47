package iofault

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// plainWriter and plainReader hide every method but Write and Read, so
// a copy between them must bring its own buffer.
type plainWriter struct{ w io.Writer }

func (p plainWriter) Write(b []byte) (int, error) { return p.w.Write(b) }

type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

// readerFrom is a destination that copies for itself, the way net/http's
// response does.
type readerFrom struct {
	bytes.Buffer
	calls int
}

func (r *readerFrom) ReadFrom(src io.Reader) (int64, error) {
	r.calls++
	return r.Buffer.ReadFrom(src)
}

// writerTo is a source that copies for itself, the way bytes.Reader does.
type writerTo struct {
	*bytes.Reader
	calls int
}

func (w *writerTo) WriteTo(dst io.Writer) (int64, error) {
	w.calls++
	return w.Reader.WriteTo(dst)
}

// failAfter accepts limit bytes and then fails every write.
type failAfter struct{ limit, n int }

var errDstGone = errors.New("destination gone")

func (f *failAfter) Write(b []byte) (int, error) {
	if f.n+len(b) > f.limit {
		k := f.limit - f.n
		f.n = f.limit
		return k, errDstGone
	}
	f.n += len(b)
	return len(b), nil
}

// tempFile writes data to a new file and returns it open at offset 0.
func tempFile(t testing.TB, data []byte) *os.File {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "copy-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	return f
}

// bytesPerCall is the heap bytes one call of f allocates, averaged over
// n calls.
func bytesPerCall(n int, f func()) float64 {
	f() // warm the pool
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestCopyKeepsSelfCopyingSides: a source's WriteTo and a destination's
// ReadFrom are still taken when neither is a descriptor's fallback, and
// so is a destination's ReadFrom over a file source (net/http's response
// sends a file itself).
func TestCopyKeepsSelfCopyingSides(t *testing.T) {
	data := []byte("a self-copying side keeps its own path")

	src := &writerTo{Reader: bytes.NewReader(data)}
	var dst bytes.Buffer
	if n, err := Copy(plainWriter{&dst}, src); err != nil || n != int64(len(data)) || src.calls != 1 {
		t.Fatalf("WriterTo source: n=%d err=%v calls=%d", n, err, src.calls)
	}

	rf := &readerFrom{}
	if n, err := Copy(rf, plainReader{bytes.NewReader(data)}); err != nil || n != int64(len(data)) || rf.calls != 1 {
		t.Fatalf("ReaderFrom destination: n=%d err=%v calls=%d", n, err, rf.calls)
	}

	rf = &readerFrom{}
	if n, err := Copy(rf, tempFile(t, data)); err != nil || n != int64(len(data)) || rf.calls != 1 {
		t.Fatalf("ReaderFrom destination, file source: n=%d err=%v calls=%d", n, err, rf.calls)
	}
	if !bytes.Equal(rf.Bytes(), data) {
		t.Fatalf("copied %q, want %q", rf.Bytes(), data)
	}
}

// TestCopySizes: every pairing Copy distinguishes moves the bytes
// exactly, at the sizes around one buffer.
func TestCopySizes(t *testing.T) {
	const buf = 32 << 10
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, buf - 1, buf, buf + 1, 100 << 10} {
		data := make([]byte, size)
		rng.Read(data)
		pairs := map[string]func() (io.Writer, io.Reader, func() []byte){
			"pooled": func() (io.Writer, io.Reader, func() []byte) {
				var b bytes.Buffer
				return plainWriter{&b}, plainReader{bytes.NewReader(data)}, b.Bytes
			},
			"file to writer": func() (io.Writer, io.Reader, func() []byte) {
				var b bytes.Buffer
				return plainWriter{&b}, tempFile(t, data), b.Bytes
			},
			"reader to file": func() (io.Writer, io.Reader, func() []byte) {
				f := tempFile(t, nil)
				return f, plainReader{bytes.NewReader(data)}, func() []byte { return readBack(t, f) }
			},
			"file to file": func() (io.Writer, io.Reader, func() []byte) {
				f := tempFile(t, nil)
				return f, tempFile(t, data), func() []byte { return readBack(t, f) }
			},
		}
		for name, pair := range pairs {
			dst, src, got := pair()
			n, err := Copy(dst, src)
			if err != nil || n != int64(size) || !bytes.Equal(got(), data) {
				t.Fatalf("%s, %d bytes: n=%d err=%v, bytes equal: %v", name, size, n, err, bytes.Equal(got(), data))
			}
		}
	}
}

func readBack(t *testing.T, f *os.File) []byte {
	t.Helper()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCopyFileFallbackBorrows: a file copied into a writer that is
// neither a file nor a socket allocates no 32 KiB buffer per call, and
// nor does a plain reader copied into a file; io.Copy allocates one in
// both, through *os.File's WriteTo and ReadFrom fallbacks.
func TestCopyFileFallbackBorrows(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 2<<10)
	src := tempFile(t, data)
	dst := tempFile(t, nil)
	var sink bytes.Buffer
	sink.Grow(len(data))
	cases := map[string]func(){
		"file to writer": func() {
			src.Seek(0, io.SeekStart)
			sink.Reset()
			if n, err := Copy(plainWriter{&sink}, src); err != nil || n != int64(len(data)) {
				t.Fatalf("n=%d err=%v", n, err)
			}
		},
		"reader to file": func() {
			dst.Seek(0, io.SeekStart)
			if n, err := Copy(dst, plainReader{bytes.NewReader(data)}); err != nil || n != int64(len(data)) {
				t.Fatalf("n=%d err=%v", n, err)
			}
		},
	}
	// A quarter of the pool's Puts are dropped under the race detector.
	ceiling := 1024.0
	if raceEnabled {
		ceiling = 16 << 10
	}
	for name, f := range cases {
		per := bytesPerCall(200, f)
		t.Logf("%s: %.0f bytes per copy", name, per)
		if per > ceiling {
			t.Errorf("%s: %.0f bytes allocated per copy, ceiling %.0f", name, per, ceiling)
		}
	}
}

// TestCopyFailingWriter: a destination that fails mid-copy gets its
// error and the bytes it took; the buffer goes back to the pool (failing
// copies allocate nothing), and the next copy is exact.
func TestCopyFailingWriter(t *testing.T) {
	data := make([]byte, 100<<10)
	rand.New(rand.NewSource(2)).Read(data)
	src := tempFile(t, data)
	fail := func() {
		src.Seek(0, io.SeekStart)
		n, err := Copy(&failAfter{limit: 1000}, src)
		if n != 1000 || !errors.Is(err, errDstGone) {
			t.Fatalf("failing copy: n=%d err=%v", n, err)
		}
	}
	ceiling := 1024.0
	if raceEnabled {
		ceiling = 16 << 10
	}
	if per := bytesPerCall(200, fail); per > ceiling {
		t.Errorf("%.0f bytes allocated per failing copy, ceiling %.0f: the buffer is not returned", per, ceiling)
	}
	src.Seek(0, io.SeekStart)
	var got bytes.Buffer
	if n, err := Copy(plainWriter{&got}, src); err != nil || n != int64(len(data)) || !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("copy after failures: n=%d err=%v, bytes equal: %v", n, err, bytes.Equal(got.Bytes(), data))
	}
}
