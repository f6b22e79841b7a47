package sqldb

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/sqltypes"
)

// DefaultPlanCacheCapacity bounds the internal LRU of prepared plans
// that Exec/Query consult. The archive's statement population is small
// (QBE shapes, browse/link-control templates), so a few hundred entries
// cover the working set with room to spare.
const DefaultPlanCacheCapacity = 256

// Stmt is a prepared statement: SQL parsed once, with — for SELECTs — a
// bound plan (resolved table/column references, expanded projection)
// reused across executions. A Stmt is safe for concurrent use. Plans are
// invalidated by schema epoch: any DDL bumps the database's epoch, and
// the next execution transparently re-binds against the new catalogue,
// so a prepared statement never serves a stale plan.
type Stmt struct {
	db   *DB
	text string
	ast  Statement

	// mu serialises plan (re)builds. Binding writes ColRef.Index into
	// the shared AST, so it must never run concurrently with another
	// build; executions of an already-built plan are read-only and run
	// concurrently under the engine's read lock.
	mu    sync.Mutex
	plan  *selectPlan
	epoch uint64
}

// Prepare parses sql into a reusable statement. Repeated Prepare calls
// with identical text share one Stmt through the plan cache, so holding
// prepared statements is free; transaction control is rejected.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	return db.preparedStmt(sql)
}

// Text returns the statement's SQL text.
func (s *Stmt) Text() string { return s.text }

// AccessPath describes how the statement's current plan reaches the
// first FROM table — "eq(T.C)", "prefix(T.C)", "range(T.C)",
// "null(T.C)", "not-null(T.C)", "ordered-scan(T.C)" (with an " order"/
// " order-desc" suffix when the index scan also satisfies ORDER BY) or
// "full-scan". Composite paths join the used index columns with '+'
// ("eq(T.A+B)"). A PRIMARY KEY or UNIQUE constraint's index appears
// like any named one.
//
// Aggregated plans append their strategy: " index-only" (a
// COUNT/MIN/MAX answered from the path's key range: COUNT reads no
// rows, MIN/MAX one boundary row each),
// " hash-agg" (every GROUP BY: a grouped fold through a hash table) or
// " agg-fold" (a single-group fold, no GROUP BY). Plans whose
// ORDER BY ... LIMIT runs as a bounded heap selection instead of a full
// sort append " top-k". Joined
// tables probed by an index nested-loop append " inl(ALIAS.COLS)";
// unindexed equi-joins append " hash-join(ALIAS.COLS)". A statement with a live result cache
// entry appends " cached" — its repeats are served without execution.
//
// EXPLAIN-style introspection for tests and diagnostics; building the
// plan on demand, it reflects the live schema epoch, so it shows the
// re-planned path after CREATE INDEX / DROP INDEX.
func (s *Stmt) AccessPath() (string, error) {
	sel, ok := s.ast.(*SelectStmt)
	if !ok {
		return "", fmt.Errorf("sqldb: AccessPath requires a SELECT statement")
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	plan, err := s.selectPlanLocked(sel)
	if err != nil {
		return "", err
	}
	out := pathString(plan, sel)
	// A live result cache entry for this statement means repeats are
	// answered without execution: surface it like the other strategies.
	if rc := s.db.rcache.Load(); rc != nil && plan.cacheable && rc.hasStmt(s.text) {
		out += " cached"
	}
	return out, nil
}

// pathString renders a bound plan's access-path description — the
// shared vocabulary of AccessPath and execution traces.
func pathString(plan *selectPlan, sel *SelectStmt) string {
	if plan.noFrom {
		return "no-from"
	}
	out := plan.path.String()
	switch {
	case plan.aggItems != nil:
		out += " index-only"
	case plan.aggregated && len(sel.GroupBy) > 0:
		out += " hash-agg"
	case plan.aggregated:
		out += " agg-fold"
	}
	if plan.topK {
		out += " top-k"
	}
	for i, jp := range plan.joins {
		if jp != nil {
			out += " inl(" + plan.tables[i].alias + "." + jp.String() + ")"
		}
	}
	for i, hj := range plan.hashJoins {
		if hj != nil {
			out += " hash-join(" + plan.tables[i].alias + "." + hj.String() + ")"
		}
	}
	return out
}

// Exec runs the prepared statement in autocommit mode. Single-table
// DML against a table with no foreign keys (either direction) and no
// DATALINK columns takes the sharded write path: the shared engine lock
// plus that table's write latch, so writers on different tables commit
// concurrently (and MVCC readers are never blocked). Everything else —
// DDL, FK-bearing DML, link-control writes — falls back to the
// exclusive writer lock. A prepared SELECT via Exec is allowed, with
// the result discarded.
func (s *Stmt) Exec(args ...sqltypes.Value) (Result, error) {
	res, _, err := s.exec(nil, args, false)
	return res, err
}

// ExecContext is Exec under cooperative cancellation: admission
// control, the ctx deadline (or the SetStatementTimeout default) and
// per-row interrupt checkpoints. Canceled DML unwinds cleanly via the
// MVCC abort path when stopped before its WAL frames are staged; once
// staged, it commits (see govern.go for the boundary).
func (s *Stmt) ExecContext(ctx context.Context, args ...sqltypes.Value) (Result, error) {
	res, _, err := s.exec(ctx, args, false)
	return res, err
}

// QueryContext is Query under cooperative cancellation — see
// DB.QueryContext.
func (s *Stmt) QueryContext(ctx context.Context, args ...sqltypes.Value) (*Rows, error) {
	rows, _, err := s.query(ctx, args, false)
	return rows, err
}

// Trace executes the statement once with tracing forced on, regardless
// of the database's trace threshold, and returns the execution trace —
// EXPLAIN ANALYZE. SELECT traces carry the access path and per-node
// timings; DML traces carry the commit-pipeline breakdown. The traced
// execution's result is discarded; side effects of DML happen normally.
func (s *Stmt) Trace(args ...sqltypes.Value) (*Trace, error) {
	if _, ok := s.ast.(*SelectStmt); ok {
		_, t, err := s.query(nil, args, true)
		return t, err
	}
	_, t, err := s.exec(nil, args, true)
	return t, err
}

// exec is Exec with optional tracing (forced, or threshold-armed) and
// optional cancellation (ctx may be nil: background, default timeout
// still applies).
func (s *Stmt) exec(ctx context.Context, args []sqltypes.Value, force bool) (Result, *Trace, error) {
	// SELECT via Exec: reuse the cached plan through the same path as
	// Query. This is not just an optimisation — it keeps every binding
	// of this statement's shared AST serialised under s.mu.
	if _, ok := s.ast.(*SelectStmt); ok {
		_, t, err := s.query(ctx, args, force)
		return Result{}, t, err
	}
	db := s.db
	thr := db.traceThresholdNs.Load()
	var tr *execTrace
	if force || thr > 0 {
		tr = db.newTrace(s.text, "exec")
	}
	// Admission + deadline gate. Acquired before any engine lock, so a
	// queued statement holds nothing while it waits.
	ic, err := db.admitStatement(ctx)
	if err != nil {
		return Result{}, nil, err
	}
	defer ic.release()
	tr.setDeadline(ic)
	db.mu.RLock()
	if td := db.shardedTarget(s.ast); td != nil {
		if db.closed {
			db.mu.RUnlock()
			return Result{}, nil, ErrClosed
		}
		// The write latch serialises writers of this one table; it also
		// serialises bindings of this statement's shared AST (same
		// statement → same table → same latch).
		latchStart := time.Now()
		td.wmu.Lock()
		latchNs := time.Since(latchStart).Nanoseconds()
		db.met.latchWaitNs.Observe(latchNs)
		tx := db.newTx()
		tx.intr = ic
		tr.beginHeap()
		endExec := tr.span("dml")
		res, _, err := db.execStmtLocked(tx, s.ast, args)
		if err == nil {
			// Last cancellation checkpoint: past this poll the
			// transaction stages its WAL frames and commits.
			err = ic.poll()
		}
		if err != nil {
			rbErr := db.rollbackTx(tx)
			td.wmu.Unlock()
			db.mu.RUnlock()
			db.traceCanceled(tr, ic, thr)
			return Result{}, nil, errors.Join(err, rbErr)
		}
		endExec(int64(res.RowsAffected))
		tr.endHeap()
		stageStart := time.Now()
		finish, err := db.commitTx(tx)
		stageNs := time.Since(stageStart).Nanoseconds()
		// Release the latch only after commitTx published the stamp:
		// the next writer on this table must observe these versions as
		// committed, not in flight. All engine locks drop before
		// finish() — its failure unwind and checkpoint re-check take
		// db.mu exclusively.
		td.wmu.Unlock()
		db.mu.RUnlock()
		if err != nil {
			return Result{}, nil, err
		}
		if tr != nil {
			tr.t.LatchWaitNs = latchNs
			tr.t.WALStageNs = stageNs
		}
		if err := s.finishTraced(tr, tx, finish, thr, res); err != nil {
			return Result{}, nil, err
		}
		return res, tr.trace(), nil
	}
	db.mu.RUnlock()

	barrierStart := time.Now()
	db.mu.Lock()
	barrierNs := time.Since(barrierStart).Nanoseconds()
	db.met.barrierNs.Observe(barrierNs)
	if db.closed {
		db.mu.Unlock()
		return Result{}, nil, ErrClosed
	}
	tx := db.newTx()
	tx.intr = ic
	tr.beginHeap()
	endExec := tr.span("dml")
	res, _, err := db.execStmtLocked(tx, s.ast, args)
	if err == nil {
		// Same pre-WAL-stage cancellation boundary as the sharded path.
		err = ic.poll()
	}
	if err != nil {
		rbErr := db.rollbackTx(tx)
		db.mu.Unlock()
		db.traceCanceled(tr, ic, thr)
		return Result{}, nil, errors.Join(err, rbErr)
	}
	endExec(int64(res.RowsAffected))
	tr.endHeap()
	stageStart := time.Now()
	finish, err := db.commitTx(tx)
	stageNs := time.Since(stageStart).Nanoseconds()
	db.mu.Unlock()
	if err != nil {
		return Result{}, nil, err
	}
	if tr != nil {
		tr.t.BarrierWaitNs = barrierNs
		tr.t.WALStageNs = stageNs
	}
	// The fsync happens here, outside the writer lock, batched with any
	// concurrently committing transactions (WAL group commit).
	if err := s.finishTraced(tr, tx, finish, thr, res); err != nil {
		return Result{}, nil, err
	}
	return res, tr.trace(), nil
}

// finishTraced runs the commit's finish closure, timing the durability
// wait and recording the group-commit batch the fsync rode in, then
// closes the trace and hands it to the slow-query log.
func (s *Stmt) finishTraced(tr *execTrace, tx *txState, finish func() error, thr int64, res Result) error {
	fsyncStart := time.Now()
	err := finish()
	if tr != nil {
		tr.t.FsyncWaitNs = time.Since(fsyncStart).Nanoseconds()
		if tx.wal != nil {
			tr.t.GroupCommitBatch = tx.wal.lastBatch.Load()
		}
		tr.finishRows(int64(res.RowsAffected))
		s.db.noteSlow(tr, thr)
	}
	return err
}

// shardedTarget classifies a statement for the sharded write path,
// returning the target table when eligible: single-table DML whose
// table declares no outgoing foreign keys, is referenced by no other
// table's foreign keys, and has no DATALINK columns. Such a statement
// reads and writes exactly one table's heap and indexes, so the
// per-table write latch is a full substitute for the exclusive engine
// lock. Caller holds db.mu (read mode suffices: the catalogue only
// changes under the write lock).
func (db *DB) shardedTarget(stmt Statement) *tableData {
	var name string
	switch s := stmt.(type) {
	case *InsertStmt:
		name = s.Table
	case *UpdateStmt:
		name = s.Table
	case *DeleteStmt:
		name = s.Table
	default:
		return nil
	}
	ts, ok := db.cat.Table(name)
	if !ok {
		return nil // let the exclusive path report the unknown table
	}
	if len(ts.ForeignKeys) > 0 || len(ts.DatalinkColumns()) > 0 {
		return nil
	}
	for _, other := range db.cat.tables {
		for _, fk := range other.ForeignKeys {
			if strings.EqualFold(fk.RefTable, ts.Name) {
				return nil
			}
		}
	}
	return db.data[strings.ToUpper(ts.Name)]
}

// Query runs a prepared SELECT under the shared read lock: any number of
// prepared queries execute concurrently, serialising only against
// writers. The bound plan is reused as long as the schema epoch is
// unchanged.
func (s *Stmt) Query(args ...sqltypes.Value) (*Rows, error) {
	rows, _, err := s.query(nil, args, false)
	return rows, err
}

// query is Query with optional tracing (forced, or threshold-armed) and
// optional cancellation (ctx may be nil).
func (s *Stmt) query(ctx context.Context, args []sqltypes.Value, force bool) (*Rows, *Trace, error) {
	sel, ok := s.ast.(*SelectStmt)
	if !ok {
		return nil, nil, errNotSelect
	}
	db := s.db
	thr := db.traceThresholdNs.Load()
	var tr *execTrace
	if force || thr > 0 {
		tr = db.newTrace(s.text, "select")
	}
	ic, err := db.admitStatement(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer ic.release()
	tr.setDeadline(ic)
	cacheState := ""
	rows, err := func() (*Rows, error) {
		db.mu.RLock()
		defer db.mu.RUnlock()
		if db.closed {
			return nil, ErrClosed
		}
		plan, err := s.selectPlanLocked(sel)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.t.Path = pathString(plan, sel)
		}
		snap := db.readSnapshot()
		// Result-cache consult: only cacheable plans (no volatile
		// functions), only this auto-commit path — Tx/script SELECTs run
		// in latest-mode visibility and never reach here.
		rc := db.rcache.Load()
		var probe cacheProbe
		if rc != nil {
			if plan.cacheable {
				var out *Rows
				if out, probe = rc.lookup(s.text, args, plan, db.schemaEpoch, snap); out != nil {
					cacheState = "hit"
					if tr != nil {
						tr.t.Path += " cached"
					}
					return out, nil
				}
				cacheState = "miss"
			} else {
				cacheState = "bypass"
			}
		}
		tr.beginHeap()
		out, err := db.runSelectAt(plan, args, snap, tr, ic)
		tr.endHeap()
		if err == nil && cacheState == "miss" {
			// Only COMPLETED results are offered: any error above —
			// including cancellation mid-fill — returns before this
			// point, so a partial result can never be served.
			rc.fill(probe, s.text, args, plan, out, snap, db.schemaEpoch)
		}
		return out, err
	}()
	if tr != nil {
		tr.t.Cache = cacheState
	}
	if err != nil {
		db.traceCanceled(tr, ic, thr)
		return nil, nil, err
	}
	if tr != nil {
		tr.finishRows(int64(len(rows.Data)))
		db.noteSlow(tr, thr)
	}
	return rows, tr.trace(), nil
}

// selectPlanLocked returns the statement's plan, (re)building it when
// missing or built against an older schema epoch. Caller holds db.mu
// (read suffices: the epoch only changes under the writer lock, so it
// cannot move while we hold the read lock).
func (s *Stmt) selectPlanLocked(sel *SelectStmt) (*selectPlan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plan != nil && s.epoch == s.db.schemaEpoch {
		return s.plan, nil
	}
	plan, err := s.db.planSelect(sel)
	if err != nil {
		return nil, err
	}
	s.plan = plan
	s.epoch = s.db.schemaEpoch
	return plan, nil
}

// ---------- plan cache ----------

// planCache is a bounded LRU of prepared statements keyed by SQL text.
// It has its own lock (never held together with db.mu) so cache lookups
// stay off the engine's critical path.
type planCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *Stmt
	entries map[string]*list.Element
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

func (c *planCache) get(text string) (*Stmt, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[text]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*Stmt), true
}

func (c *planCache) put(st *Stmt) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return
	}
	if el, ok := c.entries[st.text]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[st.text] = c.order.PushFront(st)
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*Stmt).text)
	}
}

func (c *planCache) reset(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = capacity
	c.order.Init()
	c.entries = make(map[string]*list.Element)
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// SetPlanCacheCapacity resizes the internal plan cache, dropping all
// cached entries; zero disables caching entirely (every Exec/Query then
// parses and binds from scratch — the ablation baseline).
func (db *DB) SetPlanCacheCapacity(n int) {
	db.plans.reset(n)
}

// PlanCacheLen reports how many statements are currently cached.
func (db *DB) PlanCacheLen() int { return db.plans.len() }

var (
	errNotSelect = errors.New("sqldb: Query requires a SELECT statement")
	errTxControl = errors.New("sqldb: use Begin/Commit/Rollback on *DB, not SQL text")
	errTxDMLOnly = errors.New("sqldb: only DML is allowed inside a transaction")
)

// preparedStmt returns the shared prepared statement for sql, parsing
// and caching it on a miss. Evicted statements keep working — eviction
// only drops the cache's reference.
func (db *DB) preparedStmt(sql string) (*Stmt, error) {
	if st, ok := db.plans.get(sql); ok {
		db.met.planHits.Inc()
		return st, nil
	}
	db.met.planMisses.Inc()
	ast, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	if _, ok := ast.(*TxStmt); ok {
		return nil, errTxControl
	}
	st := &Stmt{db: db, text: sql, ast: ast}
	db.plans.put(st)
	return st, nil
}
