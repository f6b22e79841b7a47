package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dlfs"
	"repro/internal/med"
	"repro/internal/sqltypes"
	"repro/internal/webui"
)

const (
	benchSecret = "bench-secret"
	benchUser   = "bench"
	benchPass   = "bench-pw"
)

// inproc is the http.RoundTripper between a dlfs.Client and its
// dlfs.Server: it calls ServeHTTP on the caller's goroutine, so the RPC
// codec and the handlers are measured and the kernel's loopback
// scheduling is not.
type inproc struct {
	srv  *dlfs.Server
	rpcs atomic.Int64
}

// rpcResponse is the server side's http.ResponseWriter.
type rpcResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *rpcResponse) Header() http.Header         { return r.header }
func (r *rpcResponse) WriteHeader(status int)      { r.status = status }
func (r *rpcResponse) Write(p []byte) (int, error) { return r.body.Write(p) }

func (t *inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	t.rpcs.Add(1)
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	if req.Body == nil {
		req.Body = http.NoBody
	}
	rw := &rpcResponse{header: make(http.Header), status: http.StatusOK}
	t.srv.ServeHTTP(rw, req)
	req.Body.Close()
	return &http.Response{
		StatusCode:    rw.status,
		Status:        http.StatusText(rw.status),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rw.header,
		Body:          io.NopCloser(&rw.body),
		ContentLength: int64(rw.body.Len()),
		Request:       req,
	}, nil
}

// deployment is the archive under test: the layout easiad ships with
// two remote file-server hosts. DBDir is on disk, so every commit is
// fsynced; group commit, CheckpointEvery (1024) and the result cache
// (off) keep their defaults.
type deployment struct {
	dir    string
	arch   *core.Archive
	web    *webui.Server
	stores [2]*dlfs.Store
	rpc    [2]*inproc
	user   core.User
	cookie string
	probe  *hostProbe // sampled at block boundaries (probe.go)

	xuisGenerate time.Duration
}

func (d *deployment) dbDir() string       { return filepath.Join(d.dir, "db") }
func storeDir(dir string, i int) string   { return filepath.Join(dir, fmt.Sprintf("fs%d", i+1)) }
func (d *deployment) rpcCount() (n int64) { return d.rpc[0].rpcs.Load() + d.rpc[1].rpcs.Load() }

func (d *deployment) close() error { return d.arch.Close() }

// plainHost attaches a file host undecorated (untraced runs).
func plainHost(h core.FileHost) core.FileHost { return h }

// openArchive opens the archive over dir and attaches both file hosts
// through wrap.
func openArchive(dir string, wrap func(core.FileHost) core.FileHost) (*deployment, error) {
	a, err := core.Open(core.Config{
		DBDir:    filepath.Join(dir, "db"),
		Secret:   []byte(benchSecret),
		WorkRoot: filepath.Join(dir, "work"),
	})
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, arch: a}
	for i, host := range hosts {
		store, err := dlfs.NewStore(storeDir(dir, i))
		if err != nil {
			a.Close()
			return nil, err
		}
		auth, err := med.NewTokenAuthority([]byte(benchSecret), 0)
		if err != nil {
			a.Close()
			return nil, err
		}
		d.stores[i] = store
		d.rpc[i] = &inproc{srv: dlfs.NewServer(dlfs.NewManager(host, store, auth))}
		client := dlfs.NewClient(host, "http://"+host, &http.Client{Transport: d.rpc[i]})
		a.AttachFileServer(wrap(core.WrapClient(client)))
	}
	return d, nil
}

// placeFiles writes the preloaded runs' output files into the two
// stores' directories under dir. This is the fixture, not the archive's
// set-up: in the paper's layout a simulation leaves its output on the
// file server it ran next to, and the archive catalogues it afterwards.
// It is done once per run and kept out of setup_s because creating 600
// files took the filesystem 0.0 s or 0.3 s depending on the state of
// its journal, which says nothing about the code.
func placeFiles(dir string, m *model) error {
	body := make([]byte, fileBytes)
	for run := firstArchived; run < nRuns; run++ {
		for ts := 0; ts < nSteps; ts++ {
			if !preloadLinked(run, ts) {
				continue
			}
			m.fillBody(body, run, ts)
			name := filepath.Join(storeDir(dir, run%2), filePath(run, ts))
			if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(name, body, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// unbuild closes the deployment and removes everything build made, so
// that dir holds the placed files and nothing else.
func (d *deployment) unbuild() error {
	if err := d.close(); err != nil {
		return err
	}
	for _, name := range []string{d.dbDir(), filepath.Join(d.dir, "work"), registryPath(d.stores[0].Root()), registryPath(d.stores[1].Root())} {
		if err := os.RemoveAll(name); err != nil {
			return err
		}
	}
	return nil
}

// build creates the deployment over the files placed in dir and
// preloads turb-20k. Everything it does is set-up time.
func build(dir string, m *model, wrap func(core.FileHost) core.FileHost) (*deployment, error) {
	d, err := openArchive(dir, wrap)
	if err != nil {
		return nil, err
	}
	if err := d.preload(m); err != nil {
		d.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	t0 := time.Now()
	if _, err := d.arch.GenerateXUIS("TURBULENCE"); err != nil {
		d.close()
		return nil, err
	}
	d.xuisGenerate = time.Since(t0)
	d.web = webui.NewServer(d.arch)
	d.user = core.User{Name: benchUser}
	if err := d.arch.Users.Add(d.user, benchPass); err != nil {
		d.close()
		return nil, err
	}
	if err := d.login(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

const insertResultSQL = `INSERT INTO RESULT_FILE VALUES (?, ?, ?, ?, ?, ?, DLVALUE(?))`

func (d *deployment) preload(m *model) error {
	a := d.arch
	if err := a.InitTurbulenceSchema(); err != nil {
		return err
	}
	str, num := sqltypes.NewString, sqltypes.NewInt
	tx, err := a.DB.Begin()
	if err != nil {
		return err
	}
	for _, au := range m.authors {
		if _, err := tx.Exec(`INSERT INTO AUTHOR VALUES (?, ?, ?, ?)`, str(au.key), str(au.name), str(au.org), str(au.email)); err != nil {
			tx.Rollback()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	// Fifty runs per transaction keep set-up CPU-bound: 9 commits (each
	// a WAL fsync and, for archived runs, two registry saves) instead of
	// 20,400. At ten runs per transaction the commits were a third of
	// set-up time and made it follow the disk, not the code.
	const batch = 50
	for first := 0; first < nRuns; first += batch {
		tx, err := a.DB.Begin()
		if err != nil {
			return err
		}
		for i := first; i < first+batch && err == nil; i++ {
			r := m.runs[i]
			_, err = tx.Exec(`INSERT INTO SIMULATION VALUES (?, ?, ?, ?, ?, ?, ?, ?)`,
				str(r.key), str(m.authors[r.author].key), str(r.title), sqltypes.NewClob(r.desc),
				num(r.grid), sqltypes.NewDouble(r.reynolds), num(nSteps), str(r.created))
			for ts := 0; ts < nSteps && err == nil; ts++ {
				link := sqltypes.Null
				if preloadLinked(i, ts) {
					link = str(fileURL(i, ts))
				}
				k := i*nSteps + ts
				_, err = tx.Exec(insertResultSQL, str(fileName(ts)), str(r.key), num(int64(ts)),
					str(measurements[m.meas[k]]), str("TSF"), num(m.size[k]), link)
			}
		}
		if err != nil {
			tx.Rollback()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// login posts the login form and keeps the session cookie.
func (d *deployment) login() error {
	form := url.Values{"username": {benchUser}, "password": {benchPass}}
	req, err := http.NewRequest(http.MethodPost, "/login", strings.NewReader(form.Encode()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	w := newPage()
	d.web.ServeHTTP(w, req)
	cookie := w.header.Get("Set-Cookie")
	if w.status != http.StatusSeeOther || cookie == "" {
		return fmt.Errorf("login: HTTP %d, cookie %q", w.status, cookie)
	}
	d.cookie, _, _ = strings.Cut(cookie, ";")
	return nil
}

// page is the reused http.ResponseWriter of a client: it counts the
// body and keeps it only when capture is set.
type page struct {
	header  http.Header
	status  int
	n       int
	capture bool
	body    bytes.Buffer
}

func newPage() *page { return &page{header: make(http.Header), status: http.StatusOK} }

func (p *page) Header() http.Header    { return p.header }
func (p *page) WriteHeader(status int) { p.status = status }
func (p *page) Write(b []byte) (int, error) {
	p.n += len(b)
	if p.capture {
		p.body.Write(b)
	}
	return len(b), nil
}

func (p *page) reset() {
	clear(p.header)
	p.status, p.n = http.StatusOK, 0
	p.body.Reset()
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

func registryPath(storeRoot string) string { return filepath.Join(storeRoot, ".dlfm-links.json") }

// storedBytes is what the archive keeps beyond the files themselves:
// snapshot + WAL under DBDir and both link registries.
func (d *deployment) storedBytes() (int64, error) {
	n, err := dirBytes(d.dbDir())
	if err != nil {
		return 0, err
	}
	for _, s := range d.stores {
		fi, err := os.Stat(registryPath(s.Root()))
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
