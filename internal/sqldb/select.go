package sqldb

import (
	"fmt"
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
	proj       []Expr
	labels     []string
	kinds      []sqltypes.Kind
	noFrom     bool

	// path is the planner's access-path choice for the first FROM
	// table (nil = heap scan); see planner.go. It is immutable after
	// planning and shared by concurrent executions.
	path *accessPath

	// aggItems, when non-nil, plans the whole query as index-only
	// aggregation (see aggplan.go): the projection is COUNT/MIN/MAX
	// answered from path's exact key range without materialising rows.
	aggItems []aggItem

	// joins holds the index nested-loop probe per FROM item (nil =
	// exhaustive scan); revProbe is the two-table swap candidate that
	// probes the FIRST table instead. See joinplan.go. Both immutable
	// after planning.
	joins    []*joinProbe
	revProbe *joinProbe

	// hashJoins holds the hash-join fallback per FROM item (only where
	// equi-join conjuncts exist but no index serves them); revHash is
	// the two-table candidate that builds the hash table on the FIRST
	// table instead. See joinplan.go. Immutable after planning.
	hashJoins []*hashJoinPlan
	revHash   *hashJoinPlan

	// Fold-based aggregation state (see agg.go): every aggregate call
	// in the projection/HAVING/ORDER BY gets an accumulator slot, keyed
	// by AST node identity. groupCols names the GROUP BY columns when
	// they are plain single-table column references; streamGroups marks
	// that path emits rows clustered by them (planner.go), so the
	// executor folds one group at a time instead of hashing.
	aggCalls     []aggCall
	aggSlots     map[*FuncCall]int
	groupCols    []string
	streamGroups bool

	// groupIdxFold, when non-nil, answers the grouped aggregate from
	// index keys alone — zero heap fetches (see aggplan.go).
	groupIdxFold *groupIdxFoldPlan

	// groupStop, when positive, bounds a streaming (group-ordered)
	// grouped fold at OFFSET+LIMIT groups: with no HAVING to drop
	// groups, no ORDER BY to reorder them and no DISTINCT to reshape
	// the rows, groups past the limit cannot reach the result, so the
	// scan stops as soon as the last wanted group closes.
	groupStop int

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

// outRow is one projected output row awaiting DISTINCT/ORDER BY/LIMIT.
// Exactly one of group (legacy aggregated), gs (fold aggregated) or src
// (non-aggregated) carries the source context ORDER BY may still need.
type outRow struct {
	vals  []sqltypes.Value
	group [][]sqltypes.Value
	gs    *groupState
	src   []sqltypes.Value
}

// execSelectLocked plans and runs a SELECT in one step (the uncached
// path). The caller holds db.mu exclusively — this is the explicit-Tx /
// script path — so the query runs in latest-mode visibility: it must
// see the enclosing transaction's own uncommitted writes, and no other
// writer can be in flight under the exclusive lock.
func (db *DB) execSelectLocked(s *SelectStmt, params []sqltypes.Value, ic *interrupt) (*Rows, error) {
	plan, err := db.planSelect(s)
	if err != nil {
		return nil, err
	}
	return db.runSelectAt(plan, params, snapLatest, nil, ic)
}

// planSelect resolves FROM items against the catalogue, binds every
// expression and runs the access-path planner (planner.go) over the
// first FROM table. Execution remains deliberately simple — nested-loop
// joins in FROM order with pushed ON predicates, hash aggregation, then
// sort/limit — but the initial table access is index-driven whenever the
// WHERE conjuncts or ORDER BY allow: hash lookups for equalities,
// ordered-index scans for ranges and in-order reads. Caller holds db.mu
// (read suffices; binding of a shared statement is serialised by
// Stmt.mu).
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
	// Access-path selection for the first FROM table. DISTINCT keeps
	// the first occurrence of each row, so index order survives dedup
	// and ORDER BY satisfaction remains valid under it.
	plan.path = planAccess(tables[0].data, tables[0].alias, s.Where,
		s.OrderBy, orderBound, aggregated, len(tables) == 1)
	planIndexOnlyAgg(plan)
	collectAggCalls(plan)
	planGroupAgg(plan)
	planGroupIndexFold(plan)
	planJoinProbes(plan)
	if plan.streamGroups && s.Limit >= 0 && s.Having == nil &&
		len(s.OrderBy) == 0 && !s.Distinct {
		plan.groupStop = s.Offset + s.Limit
	}
	plan.topK = len(s.OrderBy) > 0 && s.Limit >= 0 &&
		(plan.path == nil || !plan.path.satisfiesOrderBy)
	plan.cacheable = !planVolatile(plan)
	return plan, nil
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
// every streaming loop below a cancellation checkpoint and charges
// buffered state against the memory budget.
func (db *DB) runSelectAt(plan *selectPlan, params []sqltypes.Value, snap uint64, tr *execTrace, ic *interrupt) (*Rows, error) {
	if plan.noFrom {
		return db.runSelectNoFrom(plan, params)
	}
	s := plan.stmt
	aggregated := plan.aggregated
	orderBound := plan.orderBound

	ctx := &evalCtx{params: params, now: db.nowFn(), snap: snap, intr: ic}
	if !db.legacyResults {
		// Result rows live in ar, owned by the returned Rows and released
		// on Rows.Close. Intermediate joined rows live in scratch, whose
		// chunks go back to the pool as soon as the statement finishes —
		// everything that references them (outRow.src/group, groupState
		// first rows) dies with this call; the projection copied their
		// values out into ar. A nil arena (legacy mode) makes every arena
		// alloc an ordinary make — see arena.go.
		ctx.ar = &rowArena{}
		ctx.scratch = &rowArena{}
		defer ctx.scratch.release()
	}

	// Index-only aggregation: COUNT/MIN/MAX over a residual-free path
	// answered from the index without materialising candidate rows.
	if plan.aggItems != nil && !db.fullScanOnly {
		endAgg := tr.span("index-only-agg")
		out, handled, err := db.runIndexOnlyAgg(plan, ctx)
		if err != nil {
			return nil, err
		}
		if handled {
			endAgg(int64(len(out.Data)))
			return out, nil
		}
	}

	proj, labels := plan.proj, plan.labels
	// The result owns its Columns and Kinds slices: the kind backfill
	// below writes to Kinds, Columns is an exported field callers may
	// touch, and the plan (with its labels and kinds) is shared across
	// concurrent executions.
	kinds := make([]sqltypes.Kind, len(plan.kinds))
	copy(kinds, plan.kinds)
	columns := make([]string, len(labels))
	copy(columns, labels)
	out := newRows(columns, kinds)
	out.arena = ctx.ar

	// Streaming columnar projection: a plain single-table SELECT with no
	// DISTINCT/ORDER BY to reshape the row set projects straight from
	// the scan through per-column batches into arena rows — no outRow
	// buffering, no per-row allocation, and an early stop at
	// OFFSET+LIMIT (legal: with no ORDER BY the row order is whatever
	// the scan delivers, and both paths scan in the same order).
	if !aggregated && !s.Distinct && len(s.OrderBy) == 0 &&
		len(plan.tables) == 1 && ctx.ar != nil {
		endScan := tr.span("scan")
		if err := db.projectSingleTable(plan, ctx, out); err != nil {
			return nil, err
		}
		endScan(int64(len(out.Data)))
		backfillKinds(out)
		return out, nil
	}

	var outRows []outRow
	orderApplied := false

	// Aggregated queries fold rows into per-group accumulators as they
	// stream out of the scan (agg.go) — no row set is retained. The
	// legacy materialise-then-group executor below survives behind
	// SetLegacyAggregation as the ablation baseline and property oracle.
	if aggregated && !db.legacyAggregation {
		endFold := tr.span("fold-agg")
		var err error
		outRows, err = db.runFoldAggregate(plan, ctx)
		if err != nil {
			return nil, err
		}
		endFold(int64(len(outRows)))
	} else {
		scanNode := "scan"
		if len(plan.tables) > 1 {
			scanNode = "join"
		}
		endScan := tr.span(scanNode)
		rows, whereApplied, oa, err := db.materialiseRows(plan, ctx)
		if err != nil {
			return nil, err
		}
		endScan(int64(len(rows)))
		orderApplied = oa

		// WHERE (already fused into the single-table scan).
		if s.Where != nil && !whereApplied {
			filtered := rows[:0]
			for _, r := range rows {
				ctx.vals = r
				v, err := evalExpr(s.Where, ctx)
				if err != nil {
					return nil, err
				}
				if !v.IsNull() && truthy(v) {
					filtered = append(filtered, r)
				}
			}
			rows = filtered
		}

		if aggregated {
			groups, err := groupRows(rows, s.GroupBy, ctx)
			if err != nil {
				return nil, err
			}
			for _, g := range groups {
				if s.Having != nil {
					v, err := evalAgg(s.Having, g, ctx)
					if err != nil {
						return nil, err
					}
					if v.IsNull() || !truthy(v) {
						continue
					}
				}
				vals := ctx.ar.alloc(len(proj))
				for i, e := range proj {
					v, err := evalAgg(e, g, ctx)
					if err != nil {
						return nil, err
					}
					vals[i] = v
				}
				outRows = append(outRows, outRow{vals: vals, group: g})
			}
		} else {
			outRows = make([]outRow, 0, len(rows))
			for _, r := range rows {
				if err := ctx.intr.check(); err != nil {
					return nil, err
				}
				ctx.vals = r
				vals := ctx.ar.alloc(len(proj))
				for i, e := range proj {
					v, err := evalExpr(e, ctx)
					if err != nil {
						return nil, err
					}
					vals[i] = v
				}
				outRows = append(outRows, outRow{vals: vals, src: r})
			}
		}
	}

	// DISTINCT.
	if s.Distinct {
		seen := make(map[string]bool, len(outRows))
		dedup := outRows[:0]
		for _, r := range outRows {
			k := encodeKey(r.vals...)
			if !seen[k] {
				seen[k] = true
				dedup = append(dedup, r)
			}
		}
		outRows = dedup
	}

	// ORDER BY (skipped when the access path already delivered rows in
	// order — the index scan replaces the sort).
	if len(s.OrderBy) > 0 && !orderApplied {
		endSort := tr.span("sort")
		keys := make([][]sqltypes.Value, len(outRows))
		// One flat backing for the whole key set instead of a slice per
		// row: the keys are transient (dead once the sort returns), so
		// they stay off the arena — plain heap, but a single allocation.
		nOrd := len(s.OrderBy)
		flatKeys := make([]sqltypes.Value, len(outRows)*nOrd)
		for ri, r := range outRows {
			// Sort-key assembly is both a cancellation checkpoint and a
			// sort-buffer charge: the key set is O(rows × order cols).
			if err := ctx.intr.check(); err != nil {
				return nil, err
			}
			if err := ctx.intr.charge(rowFootprint(nOrd)); err != nil {
				return nil, err
			}
			ks := flatKeys[ri*nOrd : (ri+1)*nOrd : (ri+1)*nOrd]
			for oi, o := range s.OrderBy {
				var v sqltypes.Value
				var err error
				switch {
				case orderBound[oi] && aggregated && r.gs != nil:
					v, err = evalAggFold(o.Expr, plan, r.gs, ctx)
				case orderBound[oi] && aggregated:
					v, err = evalAgg(o.Expr, r.group, ctx)
				case orderBound[oi]:
					ctx.vals = r.src
					v, err = evalExpr(o.Expr, ctx)
				default:
					// Alias reference into the projection.
					cr, ok := o.Expr.(*ColRef)
					if !ok {
						return nil, fmt.Errorf("sqldb: cannot resolve ORDER BY expression")
					}
					j := -1
					for li, l := range labels {
						if strings.EqualFold(l, cr.Col) {
							j = li
							break
						}
					}
					if j < 0 {
						return nil, fmt.Errorf("sqldb: unknown ORDER BY column %s", cr.Col)
					}
					v = r.vals[j]
				}
				if err != nil {
					return nil, err
				}
				ks[oi] = v
			}
			keys[ri] = ks
		}
		// Coerce sort keys once per row: mixed time-vs-text and
		// numeric-vs-text comparisons would otherwise re-parse the
		// textual operand on every SortCompare call inside the sort.
		cells := annotateSortKeys(keys, len(s.OrderBy))
		less := func(a, b int) bool {
			for oi, o := range s.OrderBy {
				c := cmpSortCells(&cells[a][oi], &cells[b][oi])
				if c == 0 {
					continue
				}
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
			// Equal keys order by original position, which both makes
			// the comparator total (sort.Slice == stable sort) and lets
			// the top-K heap preserve first-appearance order on ties.
			return a < b
		}
		var idx []int
		if k := s.Offset + s.Limit; s.Limit >= 0 && k < len(outRows) {
			// ORDER BY ... LIMIT: only the k best rows survive the
			// OFFSET/LIMIT slice below, so select them with a bounded
			// heap — O(n log k) — instead of sorting everything.
			idx = topKIndices(len(outRows), k, less)
		} else {
			idx = make([]int, len(outRows))
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
		}
		sorted := make([]outRow, len(idx))
		for i, j := range idx {
			sorted[i] = outRows[j]
		}
		outRows = sorted
		endSort(int64(len(outRows)))
	}

	// OFFSET / LIMIT.
	if s.Offset > 0 {
		if s.Offset >= len(outRows) {
			outRows = nil
		} else {
			outRows = outRows[s.Offset:]
		}
	}
	if s.Limit >= 0 && s.Limit < len(outRows) {
		outRows = outRows[:s.Limit]
	}

	out.Data = make([][]sqltypes.Value, len(outRows))
	for i, r := range outRows {
		out.Data[i] = r.vals
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

// projectSingleTable is the streaming columnar projection fast path:
// scan the single FROM table with the WHERE fused in, skip OFFSET kept
// rows, stop after LIMIT projected rows, and project through colBatch
// into arena-backed rows appended to out.Data. Requires ctx.ar != nil;
// only reached for non-aggregated, non-DISTINCT, unordered plans.
func (db *DB) projectSingleTable(plan *selectPlan, ctx *evalCtx, out *Rows) error {
	s := plan.stmt
	if s.Limit == 0 {
		return nil
	}
	ft := plan.tables[0]
	// Row-pointer estimate for a result that outgrows the first batch
	// (append-doubling over 100k rows is itself a measurable share of
	// the legacy path's bytes/op); a smaller result is sized exactly.
	est := min(ft.data.live.Load(), 1<<20)
	if s.Limit >= 0 && int64(s.Limit) < est {
		est = int64(s.Limit)
	}
	cb := newColBatch(plan.proj, int(est))
	skip := s.Offset
	kept := 0
	charge := rowFootprint(len(plan.proj))
	var scanErr error
	visit := func(vals []sqltypes.Value) bool {
		// Per-row cancellation checkpoint for both scan flavours below.
		if err := ctx.intr.check(); err != nil {
			scanErr = err
			return false
		}
		if s.Where != nil {
			ctx.vals = vals
			v, err := evalExpr(s.Where, ctx)
			if err != nil {
				scanErr = err
				return false
			}
			if v.IsNull() || !truthy(v) {
				return true
			}
		}
		if skip > 0 {
			skip--
			return true
		}
		// Projected rows are retained in the result: charge the budget.
		if err := ctx.intr.charge(charge); err != nil {
			scanErr = err
			return false
		}
		if cb.push(vals) {
			if err := cb.flush(ctx, ctx.ar, out); err != nil {
				scanErr = err
				return false
			}
		}
		kept++
		return s.Limit < 0 || kept < s.Limit
	}
	handled := false
	if plan.path != nil && !db.fullScanOnly {
		handled = scanAccessPath(ft.data, plan.path, ctx, func(_ *rowSlot, vals []sqltypes.Value) bool {
			return visit(vals)
		})
	}
	if !handled && scanErr == nil {
		ft.data.scan(ctx.snap, func(_ *rowSlot, vals []sqltypes.Value) bool {
			return visit(vals)
		})
	}
	if scanErr != nil {
		return scanErr
	}
	return cb.flush(ctx, ctx.ar, out)
}

// materialiseRows collects the candidate row set for the non-folding
// executor paths (non-aggregated queries and the legacy aggregation
// oracle): the single-table fast path with the WHERE fused into the
// scan, or the nested-loop join. whereApplied reports whether the WHERE
// clause has already been enforced; orderApplied whether rows arrived
// in ORDER BY order. Read-only on the plan.
func (db *DB) materialiseRows(plan *selectPlan, ctx *evalCtx) (rows [][]sqltypes.Value, whereApplied, orderApplied bool, err error) {
	s := plan.stmt
	tables := plan.tables
	if len(tables) == 1 {
		// Single-table fast path: no joined row to assemble, so reference
		// the stored row slices directly and fuse the WHERE filter into
		// the scan. Aliasing storage is safe — the engine never mutates a
		// row slice in place (updates swap in a fresh slice, deletes only
		// tombstone) and the projection copies values out, so nothing
		// mutable escapes into the result.
		whereApplied = true
		ft := tables[0]
		var scanErr error
		keep := func(vals []sqltypes.Value) (bool, error) {
			// Per-row cancellation checkpoint for both the access-path
			// and heap scans below.
			if err := ctx.intr.check(); err != nil {
				return false, err
			}
			if s.Where == nil {
				return true, nil
			}
			ctx.vals = vals
			v, err := evalExpr(s.Where, ctx)
			if err != nil {
				return false, err
			}
			return !v.IsNull() && truthy(v), nil
		}
		// When the access path delivers rows already in ORDER BY order
		// and no DISTINCT reshapes the set, the scan can stop as soon
		// as OFFSET+LIMIT kept rows are collected.
		stopAt := -1
		if plan.path != nil && plan.path.satisfiesOrderBy && !s.Distinct && !plan.aggregated && s.Limit >= 0 {
			stopAt = s.Offset + s.Limit
		}
		handled := false
		if plan.path != nil && !db.fullScanOnly {
			handled = scanAccessPath(ft.data, plan.path, ctx, func(_ *rowSlot, vals []sqltypes.Value) bool {
				ok, err := keep(vals)
				if err == nil && ok {
					// Retained rows buffer until projection/sort: charge
					// them against the memory budget.
					err = ctx.intr.charge(rowFootprint(len(vals)))
				}
				if err != nil {
					scanErr = err
					return false
				}
				if ok {
					rows = append(rows, vals)
				}
				return stopAt < 0 || len(rows) < stopAt
			})
			orderApplied = handled && plan.path.satisfiesOrderBy
		}
		if !handled {
			ft.data.scan(ctx.snap, func(_ *rowSlot, vals []sqltypes.Value) bool {
				ok, err := keep(vals)
				if err == nil && ok {
					err = ctx.intr.charge(rowFootprint(len(vals)))
				}
				if err != nil {
					scanErr = err
					return false
				}
				if ok {
					rows = append(rows, vals)
				}
				return true
			})
		}
		if scanErr != nil {
			return nil, false, false, scanErr
		}
	} else {
		var joinErr error
		rows, joinErr = db.joinRows(plan, ctx)
		if joinErr != nil {
			return nil, false, false, joinErr
		}
	}

	return rows, whereApplied, orderApplied, nil
}

// joinRows materialises the nested-loop join for multi-table SELECTs,
// building joined rows incrementally in FROM order with pushed ON
// predicates. Inner tables whose join key is indexed are probed per
// outer row (index nested-loop) instead of re-scanned; unindexed
// equi-joins build a hash table over the inner table once and probe it
// per outer row (hash join) instead of degrading to the cross product.
// For a two-table inner join the probed side is chosen at run time
// (see chooseSwap / chooseHashSwap). Read-only on the plan.
func (db *DB) joinRows(plan *selectPlan, ctx *evalCtx) ([][]sqltypes.Value, error) {
	s := plan.stmt
	if rev := db.chooseSwap(plan); rev != nil {
		t0 := plan.tables[0]
		return db.joinRowsSwapped(plan, ctx, func(c *evalCtx) ([][]sqltypes.Value, bool) {
			return probeJoin(t0.data, rev, c)
		})
	}
	if hj := db.chooseHashSwap(plan); hj != nil {
		hp, err := newHashProber(plan.tables[0].data, hj, ctx)
		if err != nil {
			return nil, err
		}
		return db.joinRowsSwapped(plan, ctx, hp.probe)
	}
	width := len(plan.env.cols)
	rows := make([][]sqltypes.Value, 1)
	rows[0] = make([]sqltypes.Value, 0, width)
	for i, ft := range plan.tables {
		cond := s.From[i].JoinCond
		left := s.From[i].LeftJoin
		var probe *joinProbe
		if plan.joins != nil && !db.fullScanOnly {
			probe = plan.joins[i]
		}
		// Hash-join fallback: equi-join conjuncts exist but no index
		// serves them. The table is built once per FROM item — O(|inner|)
		// — then probed per outer row, replacing the per-outer-row scan.
		var hashP *hashProber
		if plan.hashJoins != nil && probe == nil && !db.fullScanOnly {
			if hj := plan.hashJoins[i]; hj != nil && len(rows) > 0 {
				var err error
				hashP, err = newHashProber(ft.data, hj, ctx)
				if err != nil {
					return nil, err
				}
			}
		}
		var next [][]sqltypes.Value

		// Access-path fast path for the first table: the planner's
		// choice narrows the outer loop's candidates (the full WHERE is
		// still applied after the join, so over-approximation is safe).
		var candidates [][]sqltypes.Value
		haveCandidates := false
		if i == 0 && plan.path != nil && !db.fullScanOnly {
			haveCandidates = scanAccessPath(ft.data, plan.path, ctx, func(_ *rowSlot, vals []sqltypes.Value) bool {
				candidates = append(candidates, vals)
				return true
			})
		}
		scanInto := func(base []sqltypes.Value) error {
			matched := false
			appendRow := func(vals []sqltypes.Value) error {
				// Per-row checkpoint + joined-row buffer charge: the
				// nested loop assembles and retains every combined row.
				if err := ctx.intr.check(); err != nil {
					return err
				}
				if err := ctx.intr.charge(rowFootprint(width)); err != nil {
					return err
				}
				// Joined rows are statement-lifetime intermediates: they
				// live in the scratch arena (released when the statement
				// finishes), never in the result arena — the projection
				// copies values out of them.
				combined := ctx.scratch.allocCap(len(base), width)
				copy(combined, base)
				combined = append(combined, vals...)
				if cond != nil {
					ctx.vals = combined
					v, err := evalExpr(cond, ctx)
					if err != nil {
						return err
					}
					if v.IsNull() || !truthy(v) {
						return nil
					}
				}
				matched = true
				next = append(next, combined)
				return nil
			}
			var scanErr error
			probed := false
			switch {
			case haveCandidates:
				probed = true
				for _, vals := range candidates {
					if scanErr = appendRow(vals); scanErr != nil {
						break
					}
				}
			case probe != nil:
				// Index nested-loop: evaluate the outer-side probe
				// expressions against the accumulated row and look the
				// candidates up instead of scanning.
				ctx.vals = base
				if cands, handled := probeJoin(ft.data, probe, ctx); handled {
					probed = true
					for _, vals := range cands {
						if scanErr = appendRow(vals); scanErr != nil {
							break
						}
					}
				}
			case hashP != nil:
				// Hash join: look the candidates up in the prebuilt table.
				ctx.vals = base
				if cands, handled := hashP.probe(ctx); handled {
					probed = true
					for _, vals := range cands {
						if scanErr = appendRow(vals); scanErr != nil {
							break
						}
					}
				}
			}
			if !probed && scanErr == nil {
				ft.data.scan(ctx.snap, func(_ *rowSlot, vals []sqltypes.Value) bool {
					scanErr = appendRow(vals)
					return scanErr == nil
				})
			}
			if scanErr != nil {
				return scanErr
			}
			if left && !matched {
				combined := ctx.scratch.allocCap(len(base), width)
				copy(combined, base)
				for range ft.schema.Cols {
					combined = append(combined, sqltypes.Null)
				}
				next = append(next, combined)
			}
			return nil
		}
		for _, base := range rows {
			if err := scanInto(base); err != nil {
				return nil, err
			}
		}
		rows = next
	}
	return rows, nil
}

// chooseSwap decides whether a two-table inner join should run with the
// second table as the outer loop probing the first: when only the first
// table's join key is indexed, or when both are and the first table is
// larger (the smaller table should drive the outer loop).
func (db *DB) chooseSwap(plan *selectPlan) *joinProbe {
	if db.fullScanOnly || plan.revProbe == nil || len(plan.tables) != 2 {
		return nil
	}
	if fwd := plan.joins[1]; fwd != nil && plan.tables[0].data.live.Load() <= plan.tables[1].data.live.Load() {
		return nil
	}
	return plan.revProbe
}

// chooseHashSwap decides whether a fully-unindexed two-table inner
// equi-join should build its hash table on the FIRST table: when only
// that side has usable equi-conjuncts, or when both do and the first
// table is smaller (the hash table belongs on the smaller side, the
// larger one drives the outer loop). Index probes, when any exist,
// already won in chooseSwap / the forward loop.
func (db *DB) chooseHashSwap(plan *selectPlan) *hashJoinPlan {
	if db.fullScanOnly || plan.revHash == nil || len(plan.tables) != 2 {
		return nil
	}
	if plan.joins[1] != nil || plan.revProbe != nil {
		return nil // an index serves this join
	}
	if fwd := plan.hashJoins[1]; fwd != nil && plan.tables[1].data.live.Load() <= plan.tables[0].data.live.Load() {
		return nil // forward hash already builds on the smaller (inner) side
	}
	return plan.revHash
}

// joinRowsSwapped is the reversed two-table nested loop: scan table 1
// as the outer side and probe table 0 (via an index probe or a prebuilt
// hash table — probeFn encapsulates the lookup), assembling each
// combined row in declared column order so every bound expression keeps
// its slot. Only inner joins reach here (LEFT JOIN is direction-bound).
func (db *DB) joinRowsSwapped(plan *selectPlan, ctx *evalCtx, probeFn func(*evalCtx) ([][]sqltypes.Value, bool)) ([][]sqltypes.Value, error) {
	s := plan.stmt
	t0, t1 := plan.tables[0], plan.tables[1]
	width := len(plan.env.cols)
	start1 := t1.start
	cond := s.From[1].JoinCond
	var rows [][]sqltypes.Value
	var outerErr error
	// Scratch row for probe evaluation: the probe's expressions only
	// reference table 1 slots, so the table 0 prefix can stay stale.
	scratch := make([]sqltypes.Value, width)
	t1.data.scan(ctx.snap, func(_ *rowSlot, v1 []sqltypes.Value) bool {
		// Outer-row checkpoint: probes that match nothing still visit
		// every outer row.
		if err := ctx.intr.check(); err != nil {
			outerErr = err
			return false
		}
		copy(scratch[start1:], v1)
		ctx.vals = scratch
		cands, handled := probeFn(ctx)
		emit := func(v0 []sqltypes.Value) bool {
			gerr := ctx.intr.check()
			if gerr == nil {
				gerr = ctx.intr.charge(rowFootprint(width))
			}
			if gerr != nil {
				outerErr = gerr
				return false
			}
			combined := ctx.scratch.alloc(width)
			copy(combined, v0)
			copy(combined[start1:], v1)
			if cond != nil {
				ctx.vals = combined
				cv, err := evalExpr(cond, ctx)
				if err != nil {
					outerErr = err
					return false
				}
				if cv.IsNull() || !truthy(cv) {
					return true
				}
			}
			rows = append(rows, combined)
			return true
		}
		if handled {
			for _, v0 := range cands {
				if !emit(v0) {
					return false
				}
			}
			return true
		}
		keep := true
		t0.data.scan(ctx.snap, func(_ *rowSlot, v0 []sqltypes.Value) bool {
			keep = emit(v0)
			return keep
		})
		return keep
	})
	return rows, outerErr
}

// sortKeyCell is one ORDER BY key with its cross-kind coercions
// precomputed. SortCompare parses a textual operand every time it meets
// a TIMESTAMP or numeric on the other side; annotateSortKeys performs
// that coercion once per row so the O(n log n) comparisons are parse
// free, with ordering semantics identical to SortCompare's.
type sortKeyCell struct {
	v       sqltypes.Value
	timeVal sqltypes.Value // parsed-timestamp twin of a textual v
	timeOK  bool
	numVal  sqltypes.Value // numeric twin of a textual v
	numOK   bool
}

// annotateSortKeys builds the coerced cells column by column: twins are
// only computed when the column actually mixes kinds, so homogeneous
// sorts (the common case) pay one kind sweep and nothing else.
func annotateSortKeys(keys [][]sqltypes.Value, ncols int) [][]sortKeyCell {
	cells := make([][]sortKeyCell, len(keys))
	flat := make([]sortKeyCell, len(keys)*ncols) // one backing, not one per row
	for ri, ks := range keys {
		row := flat[ri*ncols : (ri+1)*ncols : (ri+1)*ncols]
		for oi := 0; oi < ncols; oi++ {
			row[oi].v = ks[oi]
		}
		cells[ri] = row
	}
	for oi := 0; oi < ncols; oi++ {
		hasTime, hasNum, hasText := false, false, false
		for _, ks := range keys {
			switch ks[oi].Kind() {
			case sqltypes.KindTime:
				hasTime = true
			case sqltypes.KindInt, sqltypes.KindDouble:
				hasNum = true
			case sqltypes.KindString, sqltypes.KindClob:
				hasText = true
			}
		}
		if !hasText || (!hasTime && !hasNum) {
			continue
		}
		for ri := range cells {
			c := &cells[ri][oi]
			if !c.v.IsTextual() {
				continue
			}
			if hasTime {
				if t, err := sqltypes.ParseTimestamp(c.v.Str()); err == nil {
					c.timeVal = sqltypes.NewTime(t)
					c.timeOK = true
				}
			}
			if hasNum {
				if f, ok := c.v.AsDouble(); ok {
					c.numVal = sqltypes.NewDouble(f)
					c.numOK = true
				}
			}
		}
	}
	return cells
}

// cmpSortCells mirrors sqltypes.SortCompare exactly, substituting the
// precomputed twins wherever SortCompare would coerce a textual operand.
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
	kindOrder := func() int {
		ak, bk := int64(a.v.Kind()), int64(b.v.Kind())
		switch {
		case ak < bk:
			return -1
		case ak > bk:
			return 1
		default:
			return 0
		}
	}
	switch {
	case a.v.Kind() == sqltypes.KindTime && b.v.IsTextual():
		if b.timeOK {
			if c, ok := sqltypes.Compare(a.v, b.timeVal); ok {
				return c
			}
		}
		return kindOrder()
	case a.v.IsTextual() && b.v.Kind() == sqltypes.KindTime:
		if a.timeOK {
			if c, ok := sqltypes.Compare(a.timeVal, b.v); ok {
				return c
			}
		}
		return kindOrder()
	case a.v.IsTextual() && b.v.IsNumeric():
		if a.numOK {
			if c, ok := sqltypes.Compare(a.numVal, b.v); ok {
				return c
			}
		}
		return kindOrder()
	case a.v.IsNumeric() && b.v.IsTextual():
		if b.numOK {
			if c, ok := sqltypes.Compare(a.v, b.numVal); ok {
				return c
			}
		}
		return kindOrder()
	}
	return sqltypes.SortCompare(a.v, b.v)
}

// topKIndices returns the indices of the k least rows under less, in
// sorted order, without sorting the rest: a size-k max-heap (root =
// worst kept candidate) admits each row in O(log k), then the k
// survivors sort among themselves. less must be total (topKIndices is
// used with the position tiebreaker above), which also keeps the
// selection stable: a later row never displaces an equal earlier one.
func topKIndices(n, k int, less func(a, b int) bool) []int {
	if k <= 0 {
		return nil
	}
	h := make([]int, 0, k)
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			// Pick the worse child (max-heap on "sorts after").
			if c+1 < len(h) && less(h[c], h[c+1]) {
				c++
			}
			if !less(h[i], h[c]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := 0; i < n; i++ {
		if len(h) < k {
			h = append(h, i)
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if !less(h[p], h[c]) {
					break
				}
				h[p], h[c] = h[c], h[p]
				c = p
			}
			continue
		}
		if less(i, h[0]) {
			h[0] = i
			siftDown(0)
		}
	}
	sort.Slice(h, func(a, b int) bool { return less(h[a], h[b]) })
	return h
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
	out := newRows(columns, kinds)
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

// groupRows partitions rows by the GROUP BY key expressions. With no
// GROUP BY the whole input is one group (aggregate-only query) — even
// when empty, per SQL (COUNT(*) over no rows is 0).
func groupRows(rows [][]sqltypes.Value, groupBy []Expr, ctx *evalCtx) ([][][]sqltypes.Value, error) {
	if len(groupBy) == 0 {
		return [][][]sqltypes.Value{rows}, nil
	}
	var order []string
	groups := make(map[string][][]sqltypes.Value)
	for _, r := range rows {
		ctx.vals = r
		key := make([]sqltypes.Value, len(groupBy))
		for i, g := range groupBy {
			v, err := evalExpr(g, ctx)
			if err != nil {
				return nil, err
			}
			key[i] = v
		}
		k := encodeKey(key...)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([][][]sqltypes.Value, len(order))
	for i, k := range order {
		out[i] = groups[k]
	}
	return out, nil
}

// evalAgg evaluates an expression over a group: aggregate calls consume
// the whole group; everything else is evaluated against the group's
// first row (the GROUP BY key columns are constant within a group).
func evalAgg(e Expr, group [][]sqltypes.Value, ctx *evalCtx) (sqltypes.Value, error) {
	switch n := e.(type) {
	case *FuncCall:
		if isAggregate(n.Name) {
			return computeAggregate(n, group, ctx)
		}
		// Scalar function: evaluate args in aggregate mode.
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			v, err := evalAgg(a, group, ctx)
			if err != nil {
				return sqltypes.Null, err
			}
			args[i] = &Literal{Val: v}
		}
		return evalFunc(&FuncCall{Name: n.Name, Args: args}, ctx)
	case *Binary:
		if n.Op == "AND" || n.Op == "OR" {
			// Preserve three-valued logic by substituting evaluated sides.
			l, err := evalAgg(n.L, group, ctx)
			if err != nil {
				return sqltypes.Null, err
			}
			r, err := evalAgg(n.R, group, ctx)
			if err != nil {
				return sqltypes.Null, err
			}
			return evalBinary(&Binary{Op: n.Op, L: &Literal{Val: l}, R: &Literal{Val: r}}, ctx)
		}
		l, err := evalAgg(n.L, group, ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		r, err := evalAgg(n.R, group, ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		return evalBinary(&Binary{Op: n.Op, L: &Literal{Val: l}, R: &Literal{Val: r}}, ctx)
	case *Unary:
		v, err := evalAgg(n.X, group, ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		return evalUnary(&Unary{Op: n.Op, X: &Literal{Val: v}}, ctx)
	default:
		if len(group) == 0 {
			// Aggregate query over an empty input: scalar parts are NULL.
			if _, ok := e.(*Literal); ok {
				return evalExpr(e, ctx)
			}
			return sqltypes.Null, nil
		}
		ctx.vals = group[0]
		return evalExpr(e, ctx)
	}
}

func computeAggregate(n *FuncCall, group [][]sqltypes.Value, ctx *evalCtx) (sqltypes.Value, error) {
	if n.Star {
		return sqltypes.NewInt(int64(len(group))), nil
	}
	if len(n.Args) != 1 {
		return sqltypes.Null, fmt.Errorf("sqldb: %s expects exactly one argument", n.Name)
	}
	var (
		count   int64
		sumF    float64
		allInt  = true
		sumI    int64
		minV    = sqltypes.Null
		maxV    = sqltypes.Null
		started bool
	)
	for _, r := range group {
		ctx.vals = r
		v, err := evalExpr(n.Args[0], ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() {
			continue
		}
		count++
		switch n.Name {
		case "COUNT":
		case "SUM", "AVG":
			f, ok := v.AsDouble()
			if !ok {
				return sqltypes.Null, fmt.Errorf("sqldb: %s over non-numeric value", n.Name)
			}
			sumF += f
			if v.Kind() == sqltypes.KindInt {
				sumI += v.Int()
			} else {
				allInt = false
			}
		case "MIN", "MAX":
			if !started {
				minV, maxV = v, v
				started = true
				continue
			}
			if c, ok := sqltypes.Compare(v, minV); ok && c < 0 {
				minV = v
			}
			if c, ok := sqltypes.Compare(v, maxV); ok && c > 0 {
				maxV = v
			}
		}
	}
	switch n.Name {
	case "COUNT":
		return sqltypes.NewInt(count), nil
	case "SUM":
		if count == 0 {
			return sqltypes.Null, nil
		}
		if allInt {
			return sqltypes.NewInt(sumI), nil
		}
		return sqltypes.NewDouble(sumF), nil
	case "AVG":
		if count == 0 {
			return sqltypes.Null, nil
		}
		return sqltypes.NewDouble(sumF / float64(count)), nil
	case "MIN":
		return minV, nil
	case "MAX":
		return maxV, nil
	}
	return sqltypes.Null, fmt.Errorf("sqldb: unknown aggregate %s", n.Name)
}
