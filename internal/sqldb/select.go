package sqldb

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/sqltypes"
)

// planTable is one resolved FROM item inside a selectPlan.
type planTable struct {
	schema *TableSchema
	data   *tableData
	alias  string
	start  int // offset of this table's columns in the joined row
	// reads lists, in a join, the schema positions of the columns some
	// expression of the statement reads: all the join copies of a
	// candidate (planJoinReads). Nil for a lone table.
	reads []int
}

// selectPlan is a bound, resolved SELECT ready for execution. Planning
// mutates the statement AST (the binder writes ColRef.Index), so a plan
// is built at most once per (statement, schema epoch) — see Stmt — and
// execution via runSelect treats both the plan and the AST as strictly
// read-only. That property is what lets concurrent readers share one
// cached plan under the engine's read lock.
type selectPlan struct {
	stmt       *SelectStmt
	tables     []planTable
	env        *bindEnv
	aggregated bool
	orderBound []bool
	// order is the ORDER BY list as the sort evaluates it: a bound item's
	// own expression, an alias's projection expression. orderErr is the
	// item that is neither, reported by the first row that needs sorting.
	order    []Expr
	orderErr error
	proj     []Expr
	labels   []string
	kinds    []sqltypes.Kind
	noFrom   bool

	// storedRows marks an unaggregated projection of the lone table's
	// columns in stored order (SELECT *, or the same list spelled out):
	// a source row — the visible version's vals, immutable once
	// published — is its own result row, so the sinks return it instead
	// of copying it.
	storedRows bool

	// path is the planner's access-path choice for the first FROM
	// table (nil = heap scan); see planner.go. It is immutable after
	// planning and shared by concurrent executions.
	path *accessPath

	// aggItems, when non-nil, plans the whole query as index-only
	// aggregation (see aggplan.go): the projection is COUNT/MIN/MAX
	// answered from path's exact key range without materialising rows.
	aggItems []aggItem

	// joins holds the index nested-loop probe per FROM item (nil =
	// exhaustive scan). See joinplan.go. Immutable after planning.
	joins []*joinProbe

	// hashJoins holds the hash-join fallback per FROM item (only where
	// equi-join conjuncts exist but no index serves them). See
	// joinplan.go. Immutable after planning.
	hashJoins []*hashJoinPlan

	// Fold-based aggregation state (see agg.go): every aggregate call
	// in the projection/HAVING/ORDER BY gets an accumulator slot, keyed
	// by AST node identity.
	aggCalls []aggCall
	aggSlots map[*FuncCall]int

	// topK marks ORDER BY ... LIMIT plans whose sort runs as a bounded
	// heap selection — O(n log k) over the OFFSET+LIMIT best rows —
	// instead of a full sort. Advisory (the executor re-checks row
	// counts at run time); AccessPath renders it as " top-k".
	topK bool

	// cacheable marks plans whose result is a pure function of (bound
	// args, visible data): no volatile function — NOW() /
	// CURRENT_TIMESTAMP — anywhere in the statement. Only cacheable
	// plans may be served from or stored into the result cache.
	cacheable bool
}

// planVolatile reports whether any expression in the statement calls a
// volatile function, whose value changes between executions even when
// no data changed.
func planVolatile(plan *selectPlan) bool {
	s := plan.stmt
	vol := false
	check := func(e Expr) {
		if e == nil || vol {
			return
		}
		walkExpr(e, func(x Expr) bool {
			if fc, ok := x.(*FuncCall); ok {
				switch strings.ToUpper(fc.Name) {
				case "NOW", "CURRENT_TIMESTAMP":
					vol = true
					return false
				}
			}
			return true
		})
	}
	for _, e := range plan.proj {
		check(e)
	}
	check(s.Where)
	for _, g := range s.GroupBy {
		check(g)
	}
	check(s.Having)
	for _, o := range s.OrderBy {
		check(o.Expr)
	}
	for _, fi := range s.From {
		check(fi.JoinCond)
	}
	return vol
}

// execSelectLocked plans and runs a SELECT in one step (the uncached
// path). The caller holds db.mu exclusively — this is the script path —
// so the query runs in latest-mode visibility: no other writer can be
// in flight under the exclusive lock. An explicit transaction runs the
// same visibility through its cached plan (Tx.query).
func (db *DB) execSelectLocked(s *SelectStmt, params []sqltypes.Value, ic *interrupt) (*Rows, error) {
	plan, err := db.planSelect(s)
	if err != nil {
		return nil, err
	}
	return db.runSelectAt(plan, params, snapLatest, nil, ic)
}

// planSelect resolves FROM items against the catalogue, binds every
// expression and runs the planners over the result: the access path of
// the first FROM table (planner.go), the aggregation strategy (agg.go,
// aggplan.go) and the join probes (joinplan.go). What it leaves to each
// execution is only what depends on the bound parameters or the data —
// whether the path serves this execution, which side of a two-table
// join drives — see runSelectAt. Caller holds db.mu (read suffices;
// binding of a shared statement is serialised by Stmt.mu).
func (db *DB) planSelect(s *SelectStmt) (*selectPlan, error) {
	// SELECT without FROM: bind items against an empty namespace.
	if len(s.From) == 0 {
		plan := &selectPlan{stmt: s, noFrom: true}
		for _, item := range s.Items {
			if item.Star {
				return nil, fmt.Errorf("sqldb: SELECT * requires a FROM clause")
			}
			if err := bindExpr(item.Expr, &bindEnv{}, false); err != nil {
				return nil, err
			}
			label := item.Alias
			if label == "" {
				label = exprLabel(item.Expr)
			}
			plan.proj = append(plan.proj, item.Expr)
			plan.labels = append(plan.labels, label)
		}
		plan.cacheable = !planVolatile(plan)
		return plan, nil
	}

	var (
		tables []planTable
		env    = &bindEnv{}
	)
	for _, fi := range s.From {
		schema, ok := db.cat.Table(fi.Table)
		if !ok {
			return nil, fmt.Errorf("sqldb: table %s does not exist", fi.Table)
		}
		alias := strings.ToUpper(fi.Alias)
		if alias == "" {
			alias = schema.Name
		}
		for _, t := range tables {
			if t.alias == alias {
				return nil, fmt.Errorf("sqldb: duplicate table alias %s", alias)
			}
		}
		ft := planTable{schema: schema, data: db.data[schema.Name], alias: alias, start: len(env.cols)}
		for _, c := range schema.Cols {
			env.cols = append(env.cols, qualCol{table: alias, col: c.Name})
		}
		tables = append(tables, ft)
	}

	// Bind all expressions.
	aggregated := len(s.GroupBy) > 0
	for _, item := range s.Items {
		if item.Star {
			continue
		}
		if err := bindExpr(item.Expr, env, true); err != nil {
			return nil, err
		}
		if exprHasAggregate(item.Expr) {
			aggregated = true
		}
	}
	if s.Where != nil {
		if err := bindExpr(s.Where, env, false); err != nil {
			return nil, err
		}
	}
	for _, g := range s.GroupBy {
		if err := bindExpr(g, env, false); err != nil {
			return nil, err
		}
	}
	if s.Having != nil {
		if err := bindExpr(s.Having, env, true); err != nil {
			return nil, err
		}
		aggregated = true
	}
	// ORDER BY may reference either source columns or projection aliases;
	// try the environment first and fall back to aliases at sort time.
	orderBound := make([]bool, len(s.OrderBy))
	for i, o := range s.OrderBy {
		if err := bindExpr(o.Expr, env, true); err == nil {
			orderBound[i] = true
			if exprHasAggregate(o.Expr) {
				aggregated = true
			}
		}
	}
	for i, fi := range s.From {
		if fi.JoinCond != nil {
			// ON may only reference tables joined so far.
			partial := &bindEnv{cols: env.cols[:tables[i].start+len(tables[i].schema.Cols)]}
			if err := bindExpr(fi.JoinCond, partial, false); err != nil {
				return nil, err
			}
		}
	}

	proj, labels, kinds, err := db.expandProjection(s, env)
	if err != nil {
		return nil, err
	}
	plan := &selectPlan{
		stmt:       s,
		tables:     tables,
		env:        env,
		aggregated: aggregated,
		orderBound: orderBound,
		proj:       proj,
		labels:     labels,
		kinds:      kinds,
	}
	plan.order, plan.orderErr = resolveOrderBy(s.OrderBy, orderBound, proj, labels)
	plan.storedRows = !aggregated && len(tables) == 1 && storedOrder(proj, len(env.cols))
	// Access-path selection for the first FROM table. DISTINCT keeps
	// the first occurrence of each row, so index order survives dedup
	// and ORDER BY satisfaction remains valid under it.
	plan.path = planAccess(tables[0].data, tables[0].alias, s.Where,
		s.OrderBy, orderBound, aggregated, len(tables) == 1)
	planIndexOnlyAgg(plan)
	collectAggCalls(plan)
	planJoinProbes(plan)
	plan.topK = len(s.OrderBy) > 0 && s.Limit >= 0 &&
		(plan.path == nil || !plan.path.satisfiesOrderBy)
	plan.cacheable = !planVolatile(plan)
	return plan, nil
}

// storedOrder reports whether proj is the bare column references 0 ..
// width-1, in order.
func storedOrder(proj []Expr, width int) bool {
	if len(proj) != width {
		return false
	}
	for i, e := range proj {
		if cr, ok := e.(*ColRef); !ok || cr.Index != i {
			return false
		}
	}
	return true
}

// resolveOrderBy turns the ORDER BY list into the expressions the sort
// evaluates: an item bound against the source columns is itself, an
// unbound one must name a projection label and becomes that item's
// expression.
func resolveOrderBy(orderBy []OrderItem, bound []bool, proj []Expr, labels []string) ([]Expr, error) {
	order := make([]Expr, len(orderBy))
	for oi, o := range orderBy {
		if bound[oi] {
			order[oi] = o.Expr
			continue
		}
		cr, ok := o.Expr.(*ColRef)
		if !ok {
			return nil, fmt.Errorf("sqldb: cannot resolve ORDER BY expression")
		}
		j := slices.IndexFunc(labels, func(l string) bool { return strings.EqualFold(l, cr.Col) })
		if j < 0 {
			return nil, fmt.Errorf("sqldb: unknown ORDER BY column %s", cr.Col)
		}
		order[oi] = proj[j]
	}
	return order, nil
}

// runSelect executes a bound plan against current state and materialises
// a fully detached result (Rows shares no mutable storage with the
// engine). It must not mutate the plan or its AST: concurrent readers
// share both. Caller holds db.mu (read suffices).
func (db *DB) runSelect(plan *selectPlan, params []sqltypes.Value) (*Rows, error) {
	// Pin the statement's snapshot: every scan, probe and index-only
	// aggregate below answers as of this commit stamp, no matter what
	// commits concurrently.
	return db.runSelectAt(plan, params, db.readSnapshot(), nil, nil)
}

// runSelectAt is runSelect at an explicit snapshot (snapLatest for the
// exclusive-lock transaction path). A non-nil tr collects per-node
// timings and heap-read counts for EXPLAIN ANALYZE. A non-nil ic makes
// the row source a cancellation checkpoint and charges buffered state
// against the memory budget.
//
// Every statement is one row source feeding one sink. The source is the
// filtered scan of a lone table (tableScan) or the join of several
// (joinRows); it hands each row over as it is produced and stops when
// the sink says so. The sink is the projection (OFFSET skip, LIMIT
// stop), or the sort in front of it when DISTINCT or an ORDER BY the
// access path did not serve has to see rows before any can be returned;
// an aggregated statement folds the source into groups first (agg.go)
// and the groups HAVING keeps take the rows' place. Nothing holds the
// complete row set of a scan or a join.
func (db *DB) runSelectAt(plan *selectPlan, params []sqltypes.Value, snap uint64, tr *execTrace, ic *interrupt) (*Rows, error) {
	if plan.noFrom {
		return db.runSelectNoFrom(plan, params)
	}
	s := plan.stmt
	// Computed result rows live in ar, owned by the returned Rows and
	// released on Rows.Close; a stored-order projection's rows are the
	// stored versions and need no arena. A join assembles its rows in
	// one buffer and copies each row it delivers, once, into scratch,
	// whose chunks go back to the pool as soon as the statement finishes
	// — whatever references them (a batch awaiting projection, a sort
	// entry, a group's first row) dies with this call; the projection
	// copies their values into ar.
	ctx := &evalCtx{params: params, now: db.nowFn(), snap: snap, intr: ic,
		ar: &rowArena{}, scratch: &rowArena{}}
	defer ctx.scratch.release()

	// A join's WHERE may name any table, so it waits for the assembled
	// row and the driving scan tests nothing.
	where := s.Where
	if len(plan.tables) > 1 {
		where = nil
	}
	scan := db.openScan(plan.tables[0].data, plan.path, where, ctx)
	// Index-only aggregation: COUNT/MIN/MAX over a residual-free path
	// answered from its keys without materialising candidate rows.
	if plan.aggItems != nil && scan.path != nil {
		endAgg := tr.span("index-only-agg")
		out, err := db.runIndexOnlyAgg(plan, ctx, scan)
		if err != nil {
			return nil, err
		}
		endAgg(int64(len(out.Data)))
		return out, nil
	}

	// The result owns its Columns and Kinds slices: the kind backfill
	// below writes to Kinds, and the plan (with its labels and kinds) is
	// shared across concurrent executions. A result cache entry adopts
	// them once the statement completes.
	out := &Rows{Columns: slices.Clone(plan.labels), Kinds: slices.Clone(plan.kinds)}
	if s.Limit == 0 {
		return out, nil
	}

	// An ORDER BY the access path serves needs no sort — and, like no
	// ORDER BY at all, lets the projection stop the source at
	// OFFSET+LIMIT. DISTINCT keeps the first occurrence of each row, so
	// it preserves the path's order but must still see rows first.
	sorting := s.Distinct || (len(s.OrderBy) > 0 && (scan.path == nil || !scan.path.satisfiesOrderBy))
	var sink rowSink
	if sorting {
		sink = newSortSink(plan, ctx, out)
	} else {
		sink = newProjectSink(plan, ctx, out, s.Offset, s.Limit)
	}

	node := "scan"
	switch {
	case plan.aggregated:
		node = "fold-agg"
	case len(plan.tables) > 1:
		node = "join"
	}
	end := tr.span(node)
	var fed int64 // rows (groups) handed to the sink
	var err error
	if plan.aggregated {
		fed, err = db.foldInto(plan, ctx, scan, sink)
	} else {
		err = db.streamRows(plan, ctx, scan, func(row []sqltypes.Value) bool {
			fed++
			return sink.add(row, nil)
		})
	}
	if err != nil {
		return nil, err
	}
	if sorting && len(s.OrderBy) > 0 {
		end(fed)
		end = tr.span("sort")
	}
	if err := sink.finish(); err != nil {
		return nil, err
	}
	end(int64(len(out.Data)))
	if !ctx.ar.empty() {
		out.arena = ctx.ar
	}
	backfillKinds(out)
	return out, nil
}

// backfillKinds resolves statically unknown result kinds from the data.
func backfillKinds(out *Rows) {
	for ci, k := range out.Kinds {
		if k != sqltypes.KindNull {
			continue
		}
		for _, r := range out.Data {
			if !r[ci].IsNull() {
				out.Kinds[ci] = r[ci].Kind()
				break
			}
		}
	}
}

// streamRows drives the statement's row source into emit until emit
// returns false: the lone table's scan, which owns the WHERE, or the
// join. A lone table's rows alias storage, which is safe — the engine
// never mutates a row slice in place (updates swap in a fresh slice,
// deletes only tombstone), so a stored-order projection returns them
// as they are and every other sink copies values out; nothing mutable
// escapes into the result. Read-only on the plan.
func (db *DB) streamRows(plan *selectPlan, ctx *evalCtx, scan tableScan, emit func([]sqltypes.Value) bool) error {
	if len(plan.tables) == 1 {
		return scan.run(ctx, func(_ *rowSlot, vals []sqltypes.Value) bool { return emit(vals) })
	}
	return db.joinRows(plan, ctx, scan, emit)
}

// rowSink consumes a statement's candidates — source rows (gs nil) or,
// for an aggregated statement, folded groups (src nil) — and completes
// the result in finish. add returns false to stop the source: the sink
// has all it needs, or it failed and finish reports why.
type rowSink interface {
	add(src []sqltypes.Value, gs *groupState) bool
	finish() error
}

// evalOver evaluates e for one sink candidate: over the folded group
// when there is one, else against the source row.
func (plan *selectPlan) evalOver(e Expr, src []sqltypes.Value, gs *groupState, ctx *evalCtx) (sqltypes.Value, error) {
	if gs != nil {
		return evalAggFold(e, plan, gs, ctx)
	}
	ctx.vals = src
	return evalExpr(e, ctx)
}

// projectSink is the projection: it skips OFFSET candidates, projects
// the next LIMIT and stops the source there, and finish makes out.Data
// at the exact row count. A stored-order projection returns each source
// row itself, clipped so an append cannot reach storage; other source
// rows go through the columnar batch into the arena (arena.go); groups,
// few and evaluated through their accumulators, a row at a time.
type projectSink struct {
	plan  *selectPlan
	ctx   *evalCtx
	out   *Rows
	rows  rowList
	cb    *colBatch // made by the first source row a projection copies
	skip  int       // OFFSET candidates still to drop
	limit int       // rows wanted; -1 = all
	err   error
}

func newProjectSink(plan *selectPlan, ctx *evalCtx, out *Rows, skip, limit int) *projectSink {
	return &projectSink{plan: plan, ctx: ctx, out: out, skip: skip, limit: limit}
}

func (p *projectSink) add(src []sqltypes.Value, gs *groupState) bool {
	if p.skip > 0 {
		p.skip--
		return true
	}
	proj, ctx := p.plan.proj, p.ctx
	// Projected rows are retained in the result: charge the budget.
	if p.err = ctx.intr.charge(rowFootprint(len(proj))); p.err != nil {
		return false
	}
	switch {
	case gs != nil:
		vals := ctx.ar.alloc(len(proj))
		for i, e := range proj {
			if vals[i], p.err = evalAggFold(e, p.plan, gs, ctx); p.err != nil {
				return false
			}
		}
		p.rows.add(vals)
	case p.plan.storedRows:
		p.rows.add(src[:len(proj):len(proj)])
	default:
		if p.cb == nil {
			p.cb = newColBatch(proj)
		}
		if p.cb.push(&p.rows, src) {
			if p.err = p.cb.flush(ctx, ctx.ar, &p.rows); p.err != nil {
				return false
			}
		}
	}
	if p.limit > 0 {
		p.limit--
	}
	return p.limit != 0
}

func (p *projectSink) finish() error {
	if p.err == nil && p.cb != nil {
		p.err = p.cb.flush(p.ctx, p.ctx.ar, &p.rows)
	}
	if p.err != nil {
		p.rows.truncate(0)
		return p.err
	}
	p.out.Data = p.rows.take()
	return nil
}

// joinRows streams the join of a multi-table SELECT into emit, depth
// first in FROM order, assembling every combination in place in one
// row buffer: each level writes one candidate of its table into its own
// slots — only the columns the statement reads (planTable.reads) — and
// leaves its ancestors' prefix where it is, tests the pushed ON
// predicate and descends. A fully joined row that passes the
// statement's WHERE, applied here once, is copied into the scratch arena
// and reaches emit at once, in the order a level-by-level build would
// list it, and the loops unwind as soon as emit returns false. Inner
// tables whose join key is indexed are probed per outer row (index
// nested-loop) instead of re-scanned; unindexed equi-joins build a hash
// table over the inner table once, when its level is first reached, and
// probe it per outer row (hash join) instead of degrading to the cross
// product. The join always runs forward, driven by the first table.
// first is the first table's resolved scan. Read-only on the plan.
func (db *DB) joinRows(plan *selectPlan, ctx *evalCtx, first tableScan, emit func([]sqltypes.Value) bool) error {
	j := &joinRun{db: db, plan: plan, ctx: ctx, emit: emit,
		row: make([]sqltypes.Value, len(plan.env.cols)), probes: !db.fullScanOnly}
	j.hashers = make([]*hashProber, len(plan.tables))
	j.cands = make([][][]sqltypes.Value, len(plan.tables))
	// The planner's path narrows the outer loop's candidates; the WHERE
	// waits for the assembled row.
	matched := false
	if err := first.run(ctx, func(_ *rowSlot, vals []sqltypes.Value) bool {
		return j.extend(0, vals, &matched)
	}); err != nil {
		return err
	}
	return j.err
}

// joinRun is one execution of a join: what every level of the depth-
// first assembly shares.
type joinRun struct {
	db     *DB
	plan   *selectPlan
	ctx    *evalCtx
	emit   func([]sqltypes.Value) bool
	probes bool // index and hash probes allowed (not SetFullScanOnly)
	// row is the joined row being assembled. Level i owns the slots of
	// FROM item i; depth-first order keeps the slots of the levels
	// before it valid while it iterates its candidates.
	row     []sqltypes.Value
	cands   [][][]sqltypes.Value // per FROM item, the index probe's reused candidate buffer
	slots   []*rowSlot           // the index probes' reused slot lookup buffer
	hashers []*hashProber        // per FROM item, built when its level is first reached
	err     error                // the first failure; it unwinds every level
}

// deliver applies the statement's WHERE to the fully joined row and
// hands a match to the sink as a copy in the scratch arena, which the
// sink may keep until the statement ends: the copy is what holds
// memory, so it is what the budget is charged for.
func (j *joinRun) deliver() bool {
	ok, err := j.ctx.holds(j.plan.stmt.Where, j.row)
	if !ok {
		j.err = err
		return err == nil
	}
	if j.err = j.ctx.intr.charge(rowFootprint(len(j.row))); j.err != nil {
		return false
	}
	out := j.ctx.scratch.alloc(len(j.row))
	copy(out, j.row)
	return j.emit(out)
}

// fill writes the columns of FROM item i the statement reads from
// vals, one of the item's rows, into the item's slots of the joined
// row.
func (j *joinRun) fill(i int, vals []sqltypes.Value) {
	t := &j.plan.tables[i]
	row := j.row[t.start:]
	for _, c := range t.reads {
		row[c] = vals[c]
	}
}

// extend places one candidate row of FROM item i in the joined row and,
// when the ON condition holds, descends to the next level. Every
// candidate is a cancellation checkpoint. false unwinds the join.
func (j *joinRun) extend(i int, vals []sqltypes.Value, matched *bool) bool {
	if j.err = j.ctx.intr.check(); j.err != nil {
		return false
	}
	j.fill(i, vals)
	if ok, err := j.ctx.holds(j.plan.stmt.From[i].JoinCond, j.row); !ok {
		j.err = err
		return err == nil
	}
	*matched = true
	return j.level(i + 1)
}

// level joins FROM item i onto the row assembled so far: through its
// index probe or hash table when the plan has one and it serves this
// outer row, else by scanning the table.
func (j *joinRun) level(i int) bool {
	plan, ctx := j.plan, j.ctx
	if i == len(plan.tables) {
		return j.deliver()
	}
	ft := plan.tables[i]
	var cands [][]sqltypes.Value
	probed := false
	if j.probes {
		switch probe, hj := plan.joins[i], plan.hashJoins[i]; {
		case probe != nil:
			j.cands[i], probed = j.probeJoin(j.cands[i][:0], ft.data, probe)
			cands = j.cands[i]
		case hj != nil:
			if j.hashers[i] == nil {
				if j.hashers[i], j.err = newHashProber(ft.data, hj, ctx); j.err != nil {
					return false
				}
			}
			ctx.vals = j.row
			cands, probed = j.hashers[i].probe(ctx)
		}
	}
	matched, more := false, true
	if probed {
		for _, vals := range cands {
			if more = j.extend(i, vals, &matched); !more {
				break
			}
		}
	} else {
		ft.data.scan(ctx.snap, func(_ *rowSlot, vals []sqltypes.Value) bool {
			more = j.extend(i, vals, &matched)
			return more
		})
	}
	if !more || matched || !plan.stmt.From[i].LeftJoin {
		return more
	}
	// LEFT JOIN with no match: the NULL-extended row.
	row := j.row[ft.start:]
	for _, c := range ft.reads {
		row[c] = sqltypes.Null
	}
	return j.level(i + 1)
}

// sortKeyCell is one ORDER BY key with its cross-kind coercions cached.
// SortCompare parses a textual operand every time it meets a TIMESTAMP
// or numeric on the other side; a cell performs each coercion at most
// once — on the first comparison that needs it — so a homogeneous column
// (the common case) never parses and costs no more than its value, and a
// mixed one parses each key once, with ordering semantics identical to
// SortCompare's.
type sortKeyCell struct {
	v    sqltypes.Value
	twin *sortTwins // made by the first mixed-kind comparison of a textual v
}

// sortTwins are a textual key's coerced images; a NULL twin (the zero
// Value) is one that was tried and does not parse.
type sortTwins struct {
	time, num           sqltypes.Value
	timeTried, numTried bool
}

func (c *sortKeyCell) twins() *sortTwins {
	if c.twin == nil {
		c.twin = &sortTwins{}
	}
	return c.twin
}

func (c *sortKeyCell) timeTwin() sqltypes.Value {
	t := c.twins()
	if !t.timeTried {
		t.timeTried = true
		if ts, err := sqltypes.ParseTimestamp(c.v.Str()); err == nil {
			t.time = sqltypes.NewTime(ts)
		}
	}
	return t.time
}

func (c *sortKeyCell) numTwin() sqltypes.Value {
	t := c.twins()
	if !t.numTried {
		t.numTried = true
		if f, ok := c.v.AsDouble(); ok {
			t.num = sqltypes.NewDouble(f)
		}
	}
	return t.num
}

// cmpSortCells mirrors sqltypes.SortCompare exactly, substituting the
// cached twins wherever SortCompare would coerce a textual operand.
func cmpSortCells(a, b *sortKeyCell) int {
	an, bn := a.v.IsNull(), b.v.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	// mixed compares a twin against the other side's value; a textual key
	// that does not parse (a NULL twin: Compare refuses it) is
	// incomparable and orders by kind.
	mixed := func(x, y sqltypes.Value) int {
		if c, ok := sqltypes.Compare(x, y); ok {
			return c
		}
		switch ak, bk := a.v.Kind(), b.v.Kind(); {
		case ak < bk:
			return -1
		case ak > bk:
			return 1
		}
		return 0
	}
	switch {
	case a.v.Kind() == sqltypes.KindTime && b.v.IsTextual():
		return mixed(a.v, b.timeTwin())
	case a.v.IsTextual() && b.v.Kind() == sqltypes.KindTime:
		return mixed(a.timeTwin(), b.v)
	case a.v.IsTextual() && b.v.IsNumeric():
		return mixed(a.numTwin(), b.v)
	case a.v.IsNumeric() && b.v.IsTextual():
		return mixed(a.v, b.numTwin())
	}
	return sqltypes.SortCompare(a.v, b.v)
}

// sortEntry is one candidate the sort holds: a reference to its source
// and its evaluated ORDER BY keys — not its projection, which only the
// survivors of OFFSET/LIMIT get.
type sortEntry struct {
	src  []sqltypes.Value // source row: aliases storage (scan) or is the join's delivered copy in the scratch arena
	gs   *groupState      // the folded group, for an aggregated statement
	vals []sqltypes.Value // DISTINCT only: the projected row (the source row itself under storedRows)
	keys []sortKeyCell
	seq  int // arrival order: the tie-break that makes the sort stable
}

// sortSink is the sink for statements whose rows cannot be returned as
// they arrive: DISTINCT (which projects each candidate first, to drop
// repeats of a row already seen) and/or an ORDER BY the access path did
// not serve. Under ORDER BY ... LIMIT it holds only the OFFSET+LIMIT
// best candidates seen so far, in a bounded max-heap whose root is the
// worst of them — O(n log k) and O(k) memory — and a later arrival never
// displaces an equal earlier one, so the selection is the stable sort's.
// finish sorts what is held and projects the OFFSET/LIMIT window.
type sortSink struct {
	plan  *selectPlan
	ctx   *evalCtx
	out   *Rows
	bound int // candidates worth holding: OFFSET+LIMIT, or -1 for all

	entries []sortEntry
	seq     int
	cand    []sortKeyCell // the arriving candidate's keys
	cells   []sortKeyCell // block the held entries' keys are carved from

	// DISTINCT state: projected rows seen, keyed exactly (key.go).
	seen   map[string]struct{}
	row    []sqltypes.Value
	keyBuf []byte

	err error
}

func newSortSink(plan *selectPlan, ctx *evalCtx, out *Rows) *sortSink {
	st := plan.stmt
	s := &sortSink{plan: plan, ctx: ctx, out: out, bound: -1, cand: make([]sortKeyCell, len(plan.order))}
	if st.Limit >= 0 {
		s.bound = st.Offset + st.Limit
	}
	if st.Distinct {
		s.seen = make(map[string]struct{})
		s.row = make([]sqltypes.Value, len(plan.proj))
	}
	return s
}

// before reports whether candidate a sorts ahead of b: by the ORDER BY
// keys, then by arrival, which makes the order total.
func (s *sortSink) before(ak []sortKeyCell, aseq int, bk []sortKeyCell, bseq int) bool {
	for oi, o := range s.plan.stmt.OrderBy {
		c := cmpSortCells(&ak[oi], &bk[oi])
		if c == 0 {
			continue
		}
		if o.Desc {
			return c > 0
		}
		return c < 0
	}
	return aseq < bseq
}

func (s *sortSink) add(src []sqltypes.Value, gs *groupState) bool {
	plan, ctx := s.plan, s.ctx
	if s.err = plan.orderErr; s.err != nil {
		return false
	}
	held := rowFootprint(len(s.cand))
	if s.seen != nil {
		s.keyBuf = s.keyBuf[:0]
		for i, e := range plan.proj {
			if s.row[i], s.err = plan.evalOver(e, src, gs, ctx); s.err != nil {
				return false
			}
			s.keyBuf = appendKey(s.keyBuf, s.row[i])
		}
		if _, dup := s.seen[string(s.keyBuf)]; dup {
			return true
		}
		s.seen[string(s.keyBuf)] = struct{}{}
		held += rowFootprint(len(s.row)) + int64(len(s.keyBuf))
	}
	for i, e := range plan.order {
		v, err := plan.evalOver(e, src, gs, ctx)
		if err != nil {
			s.err = err
			return false
		}
		s.cand[i] = sortKeyCell{v: v}
	}
	e := sortEntry{src: src, gs: gs, seq: s.seq}
	s.seq++
	ordered := len(s.cand) > 0
	full := len(s.entries) == s.bound
	if full {
		// A full heap (only an ORDER BY fills one: without it the source
		// was stopped): the candidate replaces the worst held one or goes.
		worst := &s.entries[0]
		if !s.before(s.cand, e.seq, worst.keys, worst.seq) {
			return true
		}
		e.keys = worst.keys
	} else {
		// Held candidates buffer until finish: charge the memory budget.
		if s.err = ctx.intr.charge(held); s.err != nil {
			return false
		}
		e.keys = s.newKeys()
	}
	copy(e.keys, s.cand)
	if s.seen != nil {
		if plan.storedRows {
			e.vals = src[:len(s.row):len(s.row)]
		} else {
			e.vals = ctx.ar.alloc(len(s.row))
			copy(e.vals, s.row)
		}
	}
	switch {
	case full:
		s.entries[0] = e
		s.siftDown(0)
	case ordered && s.bound >= 0:
		s.entries = append(s.entries, e)
		s.siftUp(len(s.entries) - 1)
	default:
		s.entries = append(s.entries, e)
	}
	// With no ORDER BY the first OFFSET+LIMIT distinct rows are the result.
	return ordered || len(s.entries) != s.bound
}

// newKeys carves one entry's key cells out of the current block; each
// new block is as large as everything held so far (never larger than
// what a bounded heap will still admit), so the cells of n entries cost
// at most 2n and are never copied.
func (s *sortSink) newKeys() []sortKeyCell {
	n := len(s.cand)
	if len(s.cells) < n {
		block := max(len(s.entries), 16)
		if s.bound >= 0 {
			block = min(block, s.bound-len(s.entries))
		}
		s.cells = make([]sortKeyCell, n*block)
	}
	keys := s.cells[:n:n]
	s.cells = s.cells[n:]
	return keys
}

// worse reports whether entry i sorts after entry j (the heap's order).
func (s *sortSink) worse(i, j int) bool {
	a, b := &s.entries[i], &s.entries[j]
	return s.before(b.keys, b.seq, a.keys, a.seq)
}

func (s *sortSink) siftUp(c int) {
	for c > 0 {
		p := (c - 1) / 2
		if !s.worse(c, p) {
			return
		}
		s.entries[p], s.entries[c] = s.entries[c], s.entries[p]
		c = p
	}
}

func (s *sortSink) siftDown(p int) {
	for {
		c := 2*p + 1
		if c >= len(s.entries) {
			return
		}
		if c+1 < len(s.entries) && s.worse(c+1, c) {
			c++
		}
		if !s.worse(c, p) {
			return
		}
		s.entries[p], s.entries[c] = s.entries[c], s.entries[p]
		p = c
	}
}

func (s *sortSink) finish() error {
	if s.err != nil {
		return s.err
	}
	if len(s.cand) > 0 {
		sort.Slice(s.entries, func(i, j int) bool { return s.worse(j, i) })
	}
	st := s.plan.stmt
	window := s.entries[min(st.Offset, len(s.entries)):]
	if st.Limit >= 0 {
		window = window[:min(st.Limit, len(window))]
	}
	if s.seen != nil {
		s.out.Data = make([][]sqltypes.Value, len(window))
		for i := range window {
			s.out.Data[i] = window[i].vals
		}
		return nil
	}
	p := newProjectSink(s.plan, s.ctx, s.out, 0, -1)
	for i := range window {
		if !p.add(window[i].src, window[i].gs) {
			break
		}
	}
	return p.finish()
}

// runSelectNoFrom evaluates a FROM-less SELECT once against an empty
// row. Binding already happened at plan time; this path is read-only on
// the plan like runSelect.
func (db *DB) runSelectNoFrom(plan *selectPlan, params []sqltypes.Value) (*Rows, error) {
	ctx := &evalCtx{params: params, now: db.nowFn()}
	vals := make([]sqltypes.Value, len(plan.proj))
	kinds := make([]sqltypes.Kind, len(plan.proj))
	for i, e := range plan.proj {
		v, err := evalExpr(e, ctx)
		if err != nil {
			return nil, err
		}
		vals[i] = v
		kinds[i] = v.Kind()
	}
	columns := make([]string, len(plan.labels))
	copy(columns, plan.labels)
	out := &Rows{Columns: columns, Kinds: kinds}
	out.Data = [][]sqltypes.Value{vals}
	return out, nil
}

// expandProjection turns SELECT items into a flat expression list with
// labels and static kinds where known. The ColRefs it creates for stars
// are plan-owned and never rebound.
func (db *DB) expandProjection(s *SelectStmt, env *bindEnv) ([]Expr, []string, []sqltypes.Kind, error) {
	var (
		proj   []Expr
		labels []string
		kinds  []sqltypes.Kind
	)
	addCol := func(i int) {
		qc := env.cols[i]
		proj = append(proj, &ColRef{Table: qc.table, Col: qc.col, Index: i})
		labels = append(labels, qc.col)
		kinds = append(kinds, db.colKind(qc))
	}
	for _, item := range s.Items {
		switch {
		case item.Star && item.Table == "":
			for i := range env.cols {
				addCol(i)
			}
		case item.Star:
			t := strings.ToUpper(item.Table)
			found := false
			for i, qc := range env.cols {
				if qc.table == t {
					addCol(i)
					found = true
				}
			}
			if !found {
				return nil, nil, nil, fmt.Errorf("sqldb: unknown table %s in %s.*", item.Table, item.Table)
			}
		default:
			proj = append(proj, item.Expr)
			label := item.Alias
			if label == "" {
				label = exprLabel(item.Expr)
			}
			labels = append(labels, label)
			if cr, ok := item.Expr.(*ColRef); ok && cr.Index >= 0 {
				kinds = append(kinds, db.colKind(env.cols[cr.Index]))
			} else {
				kinds = append(kinds, sqltypes.KindNull)
			}
		}
	}
	return proj, labels, kinds, nil
}

// colKind resolves the declared kind of a qualified column; the alias may
// differ from the table name, so search all tables for the column.
func (db *DB) colKind(qc qualCol) sqltypes.Kind {
	if t, ok := db.cat.Table(qc.table); ok {
		if c, ok := t.Col(qc.col); ok {
			return c.Type.Kind
		}
	}
	for _, name := range db.cat.TableNames() {
		t, _ := db.cat.Table(name)
		if c, ok := t.Col(qc.col); ok {
			return c.Type.Kind
		}
	}
	return sqltypes.KindNull
}
