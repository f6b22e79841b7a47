package sqldb

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/sqltypes"
)

// planCacheCapacity bounds the internal LRU of prepared plans
// that Exec/Query consult. The archive's statement population is small
// (QBE shapes, browse/link-control templates), so a few hundred entries
// cover the working set with room to spare.
const planCacheCapacity = 256

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
// Aggregated plans append their strategy: " index-only" (COUNTs
// answered from the path's key range, reading no rows), " hash-agg"
// (every GROUP BY: a grouped fold through a hash table) or " agg-fold"
// (a single-group fold, no GROUP BY). Plans whose ORDER BY ... LIMIT
// runs as a bounded heap selection instead of a full sort append
// " top-k". Joined tables probed by an index nested-loop append
// " inl(ALIAS.COLS)"; a joined table with no entry is scanned per outer
// row.
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
	return pathString(plan, sel), nil
}

// pathString renders a bound plan's access-path description — the
// shared vocabulary of AccessPath and execution traces.
func pathString(plan *selectPlan, sel *SelectStmt) string {
	out := plan.path.String()
	switch {
	case plan.indexOnly:
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
	return out
}

// Exec runs the prepared statement in autocommit mode. Every write —
// DML and DDL alike — executes and stages its commit under the engine
// barrier (db.mu held exclusively); the WAL fsync it then waits for
// happens outside it, batched with concurrent committers. A prepared
// SELECT via Exec is allowed, with the result discarded.
func (s *Stmt) Exec(args ...sqltypes.Value) (Result, error) {
	return s.exec(nil, args)
}

// ExecContext is Exec under cooperative cancellation: ctx's
// cancellation and deadline, checked at per-row interrupt checkpoints.
// Canceled DML unwinds cleanly via the
// MVCC abort path when stopped before its WAL frames are staged; once
// staged, it commits (see govern.go for the boundary).
func (s *Stmt) ExecContext(ctx context.Context, args ...sqltypes.Value) (Result, error) {
	return s.exec(ctx, args)
}

// QueryContext is Query under cooperative cancellation — see
// DB.QueryContext.
func (s *Stmt) QueryContext(ctx context.Context, args ...sqltypes.Value) (*Rows, error) {
	return s.query(ctx, args)
}

// exec is Exec, traced when the trace threshold is armed, under
// optional cancellation (ctx may be nil).
func (s *Stmt) exec(ctx context.Context, args []sqltypes.Value) (Result, error) {
	// SELECT via Exec: reuse the cached plan through the same path as
	// Query. This is not just an optimisation — it keeps every binding
	// of this statement's shared AST serialised under s.mu.
	if _, ok := s.ast.(*SelectStmt); ok {
		_, err := s.query(ctx, args)
		return Result{}, err
	}
	db := s.db
	thr := db.traceThresholdNs.Load()
	var tr *execTrace
	if thr > 0 {
		tr = db.newTrace(s.text, "exec")
	}
	// Closed check, deadline read and in-flight registration, before
	// any engine lock.
	ic, err := db.admitStatement(ctx)
	if err != nil {
		return Result{}, err
	}
	defer ic.release()
	tr.setDeadline(ic)
	barrierStart := time.Now()
	db.mu.Lock()
	barrierNs := time.Since(barrierStart).Nanoseconds()
	db.met.barrierNs.Observe(barrierNs)
	if db.closed {
		db.mu.Unlock()
		return Result{}, ErrClosed
	}
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
		db.mu.Unlock()
		db.traceCanceled(tr, ic, thr)
		return Result{}, errors.Join(err, rbErr)
	}
	endExec(int64(res.RowsAffected))
	tr.endHeap()
	stageStart := time.Now()
	finish, err := db.commitTx(tx)
	stageNs := time.Since(stageStart).Nanoseconds()
	db.mu.Unlock()
	if err != nil {
		return Result{}, err
	}
	// The fsync happens here, outside the barrier, batched with any
	// concurrently committing transactions (WAL group commit).
	fsyncStart := time.Now()
	err = finish()
	if tr != nil {
		tr.t.BarrierWaitNs = barrierNs
		tr.t.WALStageNs = stageNs
		tr.t.FsyncWaitNs = time.Since(fsyncStart).Nanoseconds()
		if tx.wal != nil {
			tr.t.GroupCommitBatch = tx.wal.lastBatch.Load()
		}
		tr.finishRows(int64(res.RowsAffected))
		db.noteSlow(tr, thr)
	}
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// Query runs a prepared SELECT under the shared read lock: any number of
// prepared queries execute concurrently, serialising only against
// writers. The bound plan is reused as long as the schema epoch is
// unchanged.
func (s *Stmt) Query(args ...sqltypes.Value) (*Rows, error) {
	return s.query(nil, args)
}

// query is Query, traced when the trace threshold is armed, under
// optional cancellation (ctx may be nil).
func (s *Stmt) query(ctx context.Context, args []sqltypes.Value) (*Rows, error) {
	sel, ok := s.ast.(*SelectStmt)
	if !ok {
		return nil, errNotSelect
	}
	db := s.db
	thr := db.traceThresholdNs.Load()
	var tr *execTrace
	if thr > 0 {
		tr = db.newTrace(s.text, "select")
	}
	ic, err := db.admitStatement(ctx)
	if err != nil {
		return nil, err
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
		cacheState = "bypass"
		var probe cacheProbe
		if plan.cacheable {
			var out *Rows
			if out, probe = db.rcache.lookup(s.text, args, plan, db.schemaEpoch, snap); out != nil {
				cacheState = "hit"
				return out, nil
			}
			cacheState = "miss"
		}
		tr.beginHeap()
		out, err := db.runSelectAt(plan, args, snap, tr, ic)
		tr.endHeap()
		if err == nil && cacheState == "miss" {
			// Only COMPLETED results are offered: any error above —
			// including cancellation mid-fill — returns before this
			// point, so a partial result can never be served.
			db.rcache.fill(probe, s.text, args, plan, out, snap, db.schemaEpoch)
		}
		return out, err
	}()
	if tr != nil {
		tr.t.Cache = cacheState
	}
	if err != nil {
		db.traceCanceled(tr, ic, thr)
		return nil, err
	}
	if tr != nil {
		tr.finishRows(int64(len(rows.Data)))
		db.noteSlow(tr, thr)
	}
	return rows, nil
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

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

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
