// Package ops implements EASIA's server-side post-processing engine:
// the paper's "operations". Post-processing codes are themselves
// archived via DATALINKs and loosely coupled to datasets through
// <operation> markup in the XUIS; the engine resolves which operations
// apply to a result row, generates their parameter forms, fetches and
// unpacks the code package, and executes it in a sandbox next to the
// data — returning the (much smaller) derived product instead of the
// raw dataset. It also implements URL operations (external services
// spliced in via XUIS, the paper's NCSA SDB example), authorised code
// upload, and the paper's future-work items: operation result caching
// and execution statistics.
package ops

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/script"
	"repro/internal/sqldb"
	"repro/internal/sqltypes"
	"repro/internal/xuis"
)

// User carries the identity and privilege bits the engine checks. The
// demo policy from the paper: guests cannot download datasets, cannot
// upload codes, and only run operations marked guest.access="true".
type User struct {
	Name  string
	Guest bool
}

// Config wires an Engine to its surroundings.
type Config struct {
	DB   *sqldb.DB
	Spec *xuis.Spec
	// Fetch returns the content of a DATALINK URL. The archive core
	// wires this to the file-server stores; on a real deployment the
	// engine runs on the file-server host, so fetches are local reads.
	Fetch func(url string) (io.ReadCloser, error)
	// WorkRoot hosts the per-invocation temporary directories (the
	// paper's batch files unpack and chdir into these).
	WorkRoot string
	// Limits bounds sandboxed execution; zero selects defaults.
	Limits script.Limits
	// HTTPClient serves URL operations; nil means http.DefaultClient.
	HTTPClient *http.Client
	// CacheResults enables the result cache (paper future work).
	CacheResults bool
	Clock        func() time.Time
}

// Engine executes operations and uploaded codes.
type Engine struct {
	cfg   Config
	mu    sync.Mutex
	seq   int
	cache map[string]*Result
	stats map[string]*OpStats
}

// OutputFile is one artefact an operation produced.
type OutputFile struct {
	Name string
	Data []byte
}

// Result is the outcome of an operation run.
type Result struct {
	Operation string
	Stdout    string
	Files     []OutputFile
	// BatchPlan is the generated script of steps the engine performed —
	// the reproduction of the paper's dynamically created batch file
	// (chdir to temp dir, unpack, invoke interpreter).
	BatchPlan string
	Elapsed   time.Duration
	Steps     int64
	FromCache bool
}

// TotalOutputBytes sums the produced artefacts — what actually crosses
// the network back to the user instead of the dataset.
func (r *Result) TotalOutputBytes() int64 {
	n := int64(len(r.Stdout))
	for _, f := range r.Files {
		n += int64(len(f.Data))
	}
	return n
}

// OpStats aggregates executions of one operation (paper future work:
// "store operation statistics (execution time, output details) for
// benefit of future users").
type OpStats struct {
	Runs        int
	CacheHits   int
	TotalTime   time.Duration
	TotalOutput int64
	LastRun     time.Time
}

// NewEngine validates the configuration and returns an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.DB == nil || cfg.Spec == nil {
		return nil, fmt.Errorf("ops: Config.DB and Config.Spec are required")
	}
	if cfg.Fetch == nil {
		return nil, fmt.Errorf("ops: Config.Fetch is required")
	}
	if cfg.WorkRoot == "" {
		return nil, fmt.Errorf("ops: Config.WorkRoot is required")
	}
	if err := os.MkdirAll(cfg.WorkRoot, 0o755); err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	return &Engine{cfg: cfg, cache: map[string]*Result{}, stats: map[string]*OpStats{}}, nil
}

// SetCaching toggles the result cache at runtime (ablation benches).
func (e *Engine) SetCaching(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg.CacheResults = on
	if !on {
		e.cache = map[string]*Result{}
	}
}

// Stats returns a copy of the recorded per-operation statistics.
func (e *Engine) Stats() map[string]OpStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]OpStats, len(e.stats))
	for k, v := range e.stats {
		out[k] = *v
	}
	return out
}

// Applicable returns the operations on the given column that apply to
// the row (conditions satisfied) and are visible to the user.
func (e *Engine) Applicable(colID string, row map[string]sqltypes.Value, u User) []*xuis.Operation {
	col := e.findColumn(colID)
	if col == nil {
		return nil
	}
	var out []*xuis.Operation
	for _, op := range col.Operations {
		if u.Guest && !op.GuestAccess {
			continue
		}
		if !conditionsMatch(op.If, row) {
			continue
		}
		out = append(out, op)
	}
	return out
}

// CanUpload reports whether the user may upload code against this row's
// DATALINK column.
func (e *Engine) CanUpload(colID string, row map[string]sqltypes.Value, u User) bool {
	col := e.findColumn(colID)
	if col == nil || col.Upload == nil {
		return false
	}
	if u.Guest && !col.Upload.GuestAccess {
		return false
	}
	return conditionsMatch(col.Upload.If, row)
}

func (e *Engine) findColumn(colID string) *xuis.Column {
	table, column, err := xuis.SplitColID(colID)
	if err != nil {
		return nil
	}
	t, ok := e.cfg.Spec.Table(table)
	if !ok {
		return nil
	}
	c, ok := t.Column(column)
	if !ok {
		return nil
	}
	return c
}

// conditionsMatch evaluates <if> conditions against a row.
func conditionsMatch(ifSpec *xuis.IfSpec, row map[string]sqltypes.Value) bool {
	if ifSpec == nil {
		return true
	}
	for _, cond := range ifSpec.Conditions {
		v, ok := row[strings.ToUpper(cond.ColID)]
		if !ok {
			return false
		}
		if v.IsNull() || v.AsString() != cond.Value() {
			return false
		}
	}
	return true
}

// Run executes a named operation bound to colID against the dataset the
// row's DATALINK points at.
func (e *Engine) Run(opName, colID string, row map[string]sqltypes.Value, params map[string]string, u User) (*Result, error) {
	col := e.findColumn(colID)
	if col == nil {
		return nil, fmt.Errorf("ops: unknown column %s", colID)
	}
	var op *xuis.Operation
	for _, candidate := range col.Operations {
		if candidate.Name == opName {
			op = candidate
			break
		}
	}
	if op == nil {
		return nil, fmt.Errorf("ops: no operation %s on %s", opName, colID)
	}
	if u.Guest && !op.GuestAccess {
		return nil, fmt.Errorf("ops: operation %s is not available to guest users", opName)
	}
	if !conditionsMatch(op.If, row) {
		return nil, fmt.Errorf("ops: operation %s does not apply to this row", opName)
	}
	datasetURL, err := datalinkFromRow(row, colID)
	if err != nil {
		return nil, err
	}

	cacheKey := cacheKeyFor(opName, datasetURL, params)
	e.mu.Lock()
	if e.cfg.CacheResults {
		if cached, ok := e.cache[cacheKey]; ok {
			st := e.statLocked(opName)
			st.Runs++
			st.CacheHits++
			st.LastRun = e.cfg.Clock()
			e.mu.Unlock()
			out := *cached
			out.FromCache = true
			return &out, nil
		}
	}
	e.mu.Unlock()

	start := e.cfg.Clock()
	var res *Result
	if op.Location != nil && op.Location.URL != "" {
		res, err = e.runURLOperation(op, datasetURL, params)
	} else {
		res, err = e.runPackagedOperation(op, datasetURL, params, u)
	}
	if err != nil {
		return nil, err
	}
	res.Operation = opName
	res.Elapsed = e.cfg.Clock().Sub(start)

	e.mu.Lock()
	st := e.statLocked(opName)
	st.Runs++
	st.TotalTime += res.Elapsed
	st.TotalOutput += res.TotalOutputBytes()
	st.LastRun = e.cfg.Clock()
	if e.cfg.CacheResults {
		e.cache[cacheKey] = res
	}
	e.mu.Unlock()
	return res, nil
}

func (e *Engine) statLocked(op string) *OpStats {
	st, ok := e.stats[op]
	if !ok {
		st = &OpStats{}
		e.stats[op] = st
	}
	return st
}

func cacheKeyFor(op, dataset string, params map[string]string) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(op)
	b.WriteByte('|')
	b.WriteString(dataset)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, params[k])
	}
	return b.String()
}

func datalinkFromRow(row map[string]sqltypes.Value, colID string) (string, error) {
	v, ok := row[strings.ToUpper(colID)]
	if !ok || v.IsNull() {
		return "", fmt.Errorf("ops: row has no DATALINK value in %s", colID)
	}
	if v.Kind() != sqltypes.KindDatalink {
		return "", fmt.Errorf("ops: column %s holds %s, not DATALINK", colID, v.Kind())
	}
	return v.Str(), nil
}

// resolveCode locates and fetches the operation's code package: a
// SELECT over the DATALINK column named in <database.result>, filtered
// by its conditions, then a fetch of the linked file.
func (e *Engine) resolveCode(op *xuis.Operation) ([]byte, error) {
	loc := op.Location
	if loc == nil || loc.DatabaseResult == nil {
		return nil, fmt.Errorf("ops: operation %s has no database.result location", op.Name)
	}
	dr := loc.DatabaseResult
	table, column, err := xuis.SplitColID(dr.ColID)
	if err != nil {
		return nil, err
	}
	sql := fmt.Sprintf("SELECT %s FROM %s", column, table)
	var args []sqltypes.Value
	if len(dr.Conditions) > 0 {
		var conds []string
		for _, c := range dr.Conditions {
			_, ccol, err := xuis.SplitColID(c.ColID)
			if err != nil {
				return nil, err
			}
			conds = append(conds, fmt.Sprintf("%s = ?", ccol))
			args = append(args, sqltypes.NewString(c.Value()))
		}
		sql += " WHERE " + strings.Join(conds, " AND ")
	}
	rows, err := e.cfg.DB.Query(sql, args...)
	if err != nil {
		return nil, fmt.Errorf("ops: resolving code for %s: %w", op.Name, err)
	}
	defer rows.Close()
	if len(rows.Data) == 0 {
		return nil, fmt.Errorf("ops: no archived code matches operation %s", op.Name)
	}
	if len(rows.Data) > 1 {
		return nil, fmt.Errorf("ops: code location for %s is ambiguous (%d rows)", op.Name, len(rows.Data))
	}
	codeURL := rows.Data[0][0]
	if codeURL.IsNull() || codeURL.Kind() != sqltypes.KindDatalink {
		return nil, fmt.Errorf("ops: code location for %s is not a DATALINK", op.Name)
	}
	rc, err := e.cfg.Fetch(codeURL.Str())
	if err != nil {
		return nil, fmt.Errorf("ops: fetching code %s: %w", codeURL.Str(), err)
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// newWorkDir creates the per-invocation temporary directory, named from
// the user and timestamp like the paper's servlet-session directories.
func (e *Engine) newWorkDir(user string) (string, error) {
	e.mu.Lock()
	e.seq++
	seq := e.seq
	e.mu.Unlock()
	name := fmt.Sprintf("op-%s-%s-%04d", sanitize(user), e.cfg.Clock().Format("20060102T150405"), seq)
	dir := filepath.Join(e.cfg.WorkRoot, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "anon"
	}
	return string(out)
}
