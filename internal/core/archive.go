// Package core is the EASIA archive engine — the paper's primary
// contribution assembled as a library. An Archive binds together the
// relational engine (metadata), the SQL/MED coordinator and token
// authority (DATALINK semantics), the distributed file-server hosts
// (bulk data, archived where it was generated), the XUIS (schema-driven
// UI specification) and the operations engine (server-side
// post-processing and code upload).
package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dlfs"
	"repro/internal/med"
	"repro/internal/ops"
	"repro/internal/script"
	"repro/internal/sqldb"
	"repro/internal/sqltypes"
	"repro/internal/xuis"
)

// FileHost is the archive's handle on one file-server host: the SQL/MED
// participant protocol plus plain file access. Both dlfs.Manager
// (in-process) and dlfs.Client (remote daemon) satisfy it via the
// adapters below.
type FileHost interface {
	med.FileServer
	OpenFile(path, token string) (io.ReadCloser, error)
	PutFile(path string, r io.Reader) error
	StatFile(path string) (dlfs.FileInfo, error)
}

// managerHost adapts an in-process dlfs.Manager.
type managerHost struct{ *dlfs.Manager }

func (m managerHost) OpenFile(path, token string) (io.ReadCloser, error) {
	rc, _, err := m.Open(path, token)
	return rc, err
}
func (m managerHost) PutFile(path string, r io.Reader) error {
	_, err := m.Put(path, r)
	return err
}
func (m managerHost) StatFile(path string) (dlfs.FileInfo, error) { return m.Stat(path) }

// WrapManager adapts an in-process manager into a FileHost.
func WrapManager(m *dlfs.Manager) FileHost { return managerHost{m} }

// clientHost adapts a remote dlfs.Client.
type clientHost struct{ *dlfs.Client }

func (c clientHost) OpenFile(path, token string) (io.ReadCloser, error) { return c.Open(path, token) }
func (c clientHost) PutFile(path string, r io.Reader) error             { return c.Put(path, r) }
func (c clientHost) StatFile(path string) (dlfs.FileInfo, error)        { return c.Stat(path) }

// WrapClient adapts a remote daemon client into a FileHost.
func WrapClient(c *dlfs.Client) FileHost { return clientHost{c} }

// Config configures an Archive.
type Config struct {
	// DBDir is the database directory; empty means in-memory.
	DBDir string
	// Secret keys the token authority (shared with the file servers).
	Secret []byte
	// TokenTTL is the access-token lifetime ("a database configuration
	// parameter"); zero selects med.DefaultTokenTTL.
	TokenTTL time.Duration
	// WorkRoot hosts operation working directories.
	WorkRoot string
	// ScriptLimits bounds sandboxed post-processing; zero = defaults.
	ScriptLimits script.Limits
	// Clock is injectable for tests; nil = time.Now.
	Clock func() time.Time
	// Salvage accepts committed-data loss when the WAL shows mid-log
	// corruption: recovery keeps the intact prefix instead of refusing
	// to open. Operator opt-in only (cmd/easiad -salvage).
	Salvage bool
}

// Archive is a running EASIA instance.
type Archive struct {
	DB     *sqldb.DB
	Coord  *med.Coordinator
	Tokens *med.TokenAuthority
	Users  *UserStore

	mu      sync.RWMutex
	cfg     Config
	spec    *xuis.Spec
	specGen uint64 // advanced by every SetSpec
	eng     *ops.Engine
	hosts   map[string]FileHost

	sizes  sizeMemo
	probes probeMemo
}

// sizeMemo remembers the sizes of linked, write-blocked files by
// DATALINK URL, all read under one link generation (gen).
type sizeMemo struct {
	mu    sync.Mutex
	gen   uint64
	sizes map[string]int64
}

// sizeMemoCap bounds the memo; a full memo starts over empty.
const sizeMemoCap = 4096

// probeMemo remembers, per table schema, the prepared statements that
// ask which of its DATALINK columns holds a URL (datalinkColumnFor).
type probeMemo struct {
	mu     sync.Mutex
	probes map[*sqldb.TableSchema][]datalinkProbe
}

// datalinkProbe counts a DATALINK column's rows holding a URL.
type datalinkProbe struct {
	col  sqldb.Column
	stmt *sqldb.Stmt
}

// probeMemoCap bounds the probe memo, as sizeMemoCap does the size memo;
// only DDL makes new schemas.
const probeMemoCap = 256

// Open creates or reopens an archive.
func Open(cfg Config) (*Archive, error) {
	if len(cfg.Secret) == 0 {
		return nil, fmt.Errorf("core: Config.Secret is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	db, err := sqldb.OpenWith(cfg.DBDir, sqldb.Options{Salvage: cfg.Salvage})
	if err != nil {
		return nil, err
	}
	db.SetClock(cfg.Clock)
	tokens, err := med.NewTokenAuthority(cfg.Secret, cfg.TokenTTL)
	if err != nil {
		db.Close()
		return nil, err
	}
	tokens.SetClock(cfg.Clock)
	coord := med.NewCoordinator()
	db.SetLinkController(coord)
	a := &Archive{
		DB:     db,
		Coord:  coord,
		Tokens: tokens,
		Users:  NewUserStore(),
		cfg:    cfg,
		hosts:  make(map[string]FileHost),
		sizes:  sizeMemo{sizes: make(map[string]int64)},
		probes: probeMemo{probes: make(map[*sqldb.TableSchema][]datalinkProbe)},
	}
	return a, nil
}

// Close shuts the archive down, checkpointing the database.
func (a *Archive) Close() error { return a.DB.Close() }

// InitTurbulenceSchema installs the paper's five-table schema.
func (a *Archive) InitTurbulenceSchema() error {
	return a.DB.ExecScript(TurbulenceSchema)
}

// AttachFileServer registers a file-server host with both the SQL/MED
// coordinator and the archive's read/write paths. The coordinator comes
// second, so the link generation it moves on covers a read that found
// the host this one replaces.
func (a *Archive) AttachFileServer(h FileHost) {
	a.mu.Lock()
	a.hosts[strings.ToLower(h.Host())] = h
	a.mu.Unlock()
	a.Coord.Register(h)
}

// Host returns the registered host, if any.
func (a *Archive) Host(host string) (FileHost, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	h, ok := a.hosts[strings.ToLower(host)]
	return h, ok
}

// Spec returns the active XUIS (nil before generation/loading).
func (a *Archive) Spec() *xuis.Spec {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.spec
}

// SpecGeneration returns the active XUIS with its generation, a count
// every SetSpec advances — also one that reinstalls the same *Spec after
// editing it in place. Whatever is derived from the spec stays current
// while the generation does; an edit not yet installed by SetSpec is
// not part of any generation.
func (a *Archive) SpecGeneration() (*xuis.Spec, uint64) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.spec, a.specGen
}

// GenerateXUIS builds the default XUIS from the live catalogue and
// installs it ("the system is started by initialising … with an XUIS").
func (a *Archive) GenerateXUIS(databaseName string) (*xuis.Spec, error) {
	spec, err := xuis.Generator{MaxSamples: 4}.Generate(a.DB, databaseName)
	if err != nil {
		return nil, err
	}
	if err := a.SetSpec(spec); err != nil {
		return nil, err
	}
	return spec, nil
}

// SetSpec validates and installs a (possibly customised) XUIS, and
// rebuilds the operations engine bound to it. It advances the spec
// generation (SpecGeneration), so reinstalling the same *Spec is how an
// in-place edit reaches the pages.
func (a *Archive) SetSpec(spec *xuis.Spec) error {
	if err := xuis.Validate(spec, a.DB.Catalog()); err != nil {
		return err
	}
	workRoot := a.cfg.WorkRoot
	if workRoot == "" {
		workRoot = "easia-work"
	}
	eng, err := ops.NewEngine(ops.Config{
		DB:       a.DB,
		Spec:     spec,
		Fetch:    a.fetchURL,
		WorkRoot: workRoot,
		Limits:   a.cfg.ScriptLimits,
		Clock:    a.cfg.Clock,
	})
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.spec = spec
	a.specGen++
	a.eng = eng
	a.mu.Unlock()
	return nil
}

// Ops returns the operations engine (nil before SetSpec/GenerateXUIS).
func (a *Archive) Ops() *ops.Engine {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.eng
}

// fetchURL opens a DATALINK URL through the owning host, minting an
// internal token (the archive itself holds SELECT privilege).
func (a *Archive) fetchURL(url string) (io.ReadCloser, error) {
	u, err := sqltypes.ParseDatalinkURL(url)
	if err != nil {
		return nil, err
	}
	h, ok := a.Host(u.Host)
	if !ok {
		return nil, fmt.Errorf("core: no file server registered for host %s", u.Host)
	}
	token, err := a.Tokens.Mint(u.Path, "easia-internal", 0)
	if err != nil {
		return nil, err
	}
	return h.OpenFile(u.Path, token)
}

// LinkedFileSize reports the size of the file a DATALINK URL names,
// asking its host only when the size is not remembered. A size is
// remembered only for a file linked under FILE LINK CONTROL with WRITE
// PERMISSION BLOCKED, and served only while the coordinator's link
// generation is even and the one it was read under: no unlink has
// committed since, so the file cannot have changed.
func (a *Archive) LinkedFileSize(url string) (int64, error) {
	m := &a.sizes
	gen := a.Coord.LinkGeneration()
	if gen%2 == 0 {
		m.mu.Lock()
		size, ok := m.sizes[url]
		ok = ok && m.gen == gen
		m.mu.Unlock()
		if ok {
			return size, nil
		}
	}
	u, err := sqltypes.ParseDatalinkURL(url)
	if err != nil {
		return 0, err
	}
	h, ok := a.Host(u.Host)
	if !ok {
		return 0, fmt.Errorf("core: no file server registered for host %s", u.Host)
	}
	fi, err := h.StatFile(u.Path)
	if err != nil {
		return 0, err
	}
	if fi.Linked && fi.Opts.FileLinkControl && fi.Opts.WritePerm == sqltypes.WriteBlocked &&
		gen%2 == 0 && a.Coord.LinkGeneration() == gen {
		m.mu.Lock()
		if m.gen < gen || len(m.sizes) >= sizeMemoCap {
			m.gen = gen
			clear(m.sizes)
		}
		if m.gen == gen {
			m.sizes[url] = fi.Size
		}
		m.mu.Unlock()
	}
	return fi.Size, nil
}

// ArchiveFile stores content on the named host ("archive data where it
// is generated") and returns the DATALINK URL for the metadata INSERT.
func (a *Archive) ArchiveFile(host, path string, r io.Reader) (string, error) {
	h, ok := a.Host(host)
	if !ok {
		return "", fmt.Errorf("core: no file server registered for host %s", host)
	}
	if err := h.PutFile(path, r); err != nil {
		return "", err
	}
	return "http://" + h.Host() + path, nil
}

// DownloadURL produces the tokenized URL a SELECT hands to an
// authorised user — "http://host/filesystem/directory/access_token;filename".
// Guests cannot download datasets (the paper's demo policy). It first
// finds the column holding the URL; a caller that already knows the
// column mints through DownloadURLFor.
func (a *Archive) DownloadURL(datalink string, u User) (string, error) {
	col, _ := a.datalinkColumnFor(datalink)
	return a.DownloadURLFor(col, datalink, u)
}

// DownloadURLFor is DownloadURL for a URL read from col: the token
// lives for the column's EXPIRY option, or the authority's default when
// it has none (or col is the zero Column).
func (a *Archive) DownloadURLFor(col sqldb.Column, datalink string, u User) (string, error) {
	if !u.CanDownload() {
		return "", fmt.Errorf("core: user %s may not download datasets", u.Name)
	}
	parsed, err := sqltypes.ParseDatalinkURL(datalink)
	if err != nil {
		return "", err
	}
	ttl := time.Duration(0)
	if col.Type.Datalink != nil && col.Type.Datalink.TokenLifetime > 0 {
		ttl = time.Duration(col.Type.Datalink.TokenLifetime) * time.Second
	}
	token, err := a.Tokens.Mint(parsed.Path, u.Name, ttl)
	if err != nil {
		return "", err
	}
	return parsed.WithToken(token), nil
}

// datalinkColumnFor finds the column currently holding the URL, so the
// per-column EXPIRY option can shape token lifetimes. Ambiguity (the
// same URL in two columns) is impossible: a file is linked once.
func (a *Archive) datalinkColumnFor(url string) (sqldb.Column, bool) {
	cat := a.DB.Catalog()
	for _, name := range cat.TableNames() {
		schema, _ := cat.Table(name)
		for _, p := range a.datalinkProbes(schema) {
			rows, err := p.stmt.Query(sqltypes.NewString(url))
			if err != nil {
				continue
			}
			linked := len(rows.Data) == 1 && rows.Data[0][0].Int() > 0
			rows.Close()
			if linked {
				return p.col, true
			}
		}
	}
	return sqldb.Column{}, false
}

// datalinkProbes returns the probes of schema's DATALINK columns in
// column order, prepared once per schema: a schema never changes once
// the catalogue publishes it (DDL makes a new one).
func (a *Archive) datalinkProbes(schema *sqldb.TableSchema) []datalinkProbe {
	m := &a.probes
	m.mu.Lock()
	probes, ok := m.probes[schema]
	m.mu.Unlock()
	if ok {
		return probes
	}
	for _, ci := range schema.DatalinkColumns() {
		col := schema.Cols[ci]
		stmt, err := a.DB.Prepare(
			fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s = DLVALUE(?)", schema.Name, col.Name))
		if err != nil {
			continue
		}
		probes = append(probes, datalinkProbe{col, stmt})
	}
	m.mu.Lock()
	if len(m.probes) >= probeMemoCap {
		clear(m.probes)
	}
	m.probes[schema] = probes
	m.mu.Unlock()
	return probes
}

// OpenDownload streams a file given its tokenized or raw URL on behalf
// of a user (the web layer's /download path; the token in the URL is
// validated by the file server).
func (a *Archive) OpenDownload(tokenizedURL string) (io.ReadCloser, error) {
	u, err := sqltypes.ParseDatalinkURL(tokenizedURL)
	if err != nil {
		return nil, err
	}
	path, token := sqltypes.SplitTokenizedPath(u.Path)
	h, ok := a.Host(u.Host)
	if !ok {
		return nil, fmt.Errorf("core: no file server registered for host %s", u.Host)
	}
	return h.OpenFile(path, token)
}

// Reconcile repairs file-manager link state after crash recovery: every
// controlled DATALINK value in the database must be linked on its host.
// Aborts that never reached a file server are retried by the
// coordinator.
func (a *Archive) Reconcile() error {
	cat := a.DB.Catalog()
	var firstErr error
	for _, name := range cat.TableNames() {
		schema, _ := cat.Table(name)
		for _, ci := range schema.DatalinkColumns() {
			col := schema.Cols[ci]
			opts := col.Type.Datalink
			if opts == nil || !opts.FileLinkControl {
				continue
			}
			stmt, err := a.DB.Prepare(fmt.Sprintf(
				"SELECT %s FROM %s WHERE %s IS NOT NULL", col.Name, schema.Name, col.Name))
			if err != nil {
				return err
			}
			rows, err := stmt.Query()
			if err != nil {
				return err
			}
			var urls []string
			for _, r := range rows.Data {
				urls = append(urls, r[0].Str())
			}
			rows.Close()
			if err := a.Coord.Reconcile(urls, *opts); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Backup runs a coordinated backup (database + linked RECOVERY YES
// files on every host) into dir and returns the external-file count.
func (a *Archive) Backup(dir string) (int, error) {
	var parts []med.BackupParticipant
	a.mu.RLock()
	for _, h := range a.hosts {
		if bp, ok := h.(med.BackupParticipant); ok {
			parts = append(parts, bp)
		}
	}
	a.mu.RUnlock()
	return med.BackupSet{Dir: dir}.Backup(a.DB, a.cfg.DBDir, parts)
}

// RowByKey fetches one row of a table as a colid→value map, the shape
// the operations engine consumes.
func (a *Archive) RowByKey(table string, key map[string]string) (map[string]sqltypes.Value, error) {
	schema, ok := a.DB.Catalog().Table(table)
	if !ok {
		return nil, fmt.Errorf("core: unknown table %s", table)
	}
	if len(key) == 0 {
		return nil, fmt.Errorf("core: empty row key")
	}
	// Sort the key columns so the same key shape always renders the same
	// SQL text (map iteration order would otherwise scatter it across
	// distinct plan-cache entries).
	cols := make([]string, 0, len(key))
	for col := range key {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	var conds []string
	var args []sqltypes.Value
	for _, col := range cols {
		if schema.ColIndex(col) < 0 {
			return nil, fmt.Errorf("core: unknown key column %s.%s", table, col)
		}
		conds = append(conds, fmt.Sprintf("%s = ?", strings.ToUpper(col)))
		args = append(args, sqltypes.NewString(key[col]))
	}
	// The key columns of a table rarely vary per caller (LOB links and
	// operation forms always address rows by primary key), so this text
	// repeats and the prepared plan is shared.
	stmt, err := a.DB.Prepare(
		fmt.Sprintf("SELECT * FROM %s WHERE %s", schema.Name, strings.Join(conds, " AND ")))
	if err != nil {
		return nil, err
	}
	rows, err := stmt.Query(args...)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	if len(rows.Data) == 0 {
		return nil, fmt.Errorf("core: no %s row matches %v", table, key)
	}
	if len(rows.Data) > 1 {
		return nil, fmt.Errorf("core: key %v matches %d rows of %s", key, len(rows.Data), table)
	}
	out := make(map[string]sqltypes.Value, len(rows.Columns))
	for i, col := range rows.Columns {
		out[schema.Name+"."+strings.ToUpper(col)] = rows.Data[0][i]
	}
	return out, nil
}

// RunOperation executes a named operation for a user against the row
// identified by key.
func (a *Archive) RunOperation(opName, colID, table string, key map[string]string, params map[string]string, u User) (*ops.Result, error) {
	eng := a.Ops()
	if eng == nil {
		return nil, fmt.Errorf("core: no XUIS installed")
	}
	row, err := a.RowByKey(table, key)
	if err != nil {
		return nil, err
	}
	return eng.Run(opName, colID, row, params, ops.User{Name: u.Name, Guest: u.Guest})
}

// UploadAndRun executes user-uploaded code against the row identified
// by key, under the column's <upload> policy.
func (a *Archive) UploadAndRun(colID, table string, key map[string]string, code []byte, format, entry string, params map[string]string, u User) (*ops.Result, error) {
	eng := a.Ops()
	if eng == nil {
		return nil, fmt.Errorf("core: no XUIS installed")
	}
	if !u.CanUpload() {
		return nil, fmt.Errorf("core: user %s may not upload post-processing codes", u.Name)
	}
	row, err := a.RowByKey(table, key)
	if err != nil {
		return nil, err
	}
	return eng.RunUploaded(colID, row, code, format, entry, params, ops.User{Name: u.Name, Guest: u.Guest})
}
