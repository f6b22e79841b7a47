package sqldb

import (
	"bytes"
	"fmt"

	"repro/internal/sqltypes"
)

// The fold-based aggregation pipeline.
//
// The legacy executor (kept behind DB.SetLegacyAggregation as the
// ablation baseline and property-test oracle) materialises every source
// row, partitions the materialised set into groups via a string-keyed
// map of row slices, and then walks each group once per aggregate call
// (groupRows/evalAgg/computeAggregate in select.go). That costs O(rows)
// memory for the retained groups plus one key-string allocation per
// input row.
//
// The fold pipeline replaces that with per-group accumulator structs:
// every aggregate call in the query gets one slot (aggCall), every
// group one accumulator per slot (aggAccum), and each source row is
// folded into its group's accumulators as it streams out of the scan —
// no row is retained beyond the fold. Two grouping strategies share the
// fold:
//
//   - streaming ("group-ordered" in Stmt.AccessPath): when the chosen
//     ordered index emits rows clustered by the GROUP BY columns
//     (pathClustersGroups in planner.go — equality-constant columns are
//     skipped exactly like ORDER BY satisfaction does), consecutive
//     equal group keys form one run, so the folder keeps a single open
//     group and O(groups) total state, never a hash table.
//
//   - hash aggregation ("hash-agg"): arbitrary input order; groups live
//     in a map keyed by the canonical tuple encoding (key.go). The
//     per-row lookup converts the scratch key buffer with a
//     no-allocation map access; a key string is allocated only when a
//     new group first appears.
//
// Group identity is the canonical encoding of the evaluated GROUP BY
// expressions, so NULL, '' and 0 vs '0' land in distinct groups (class
// tags differ) in every strategy. The one shared caveat is the numeric
// collision window: integers beyond ±2^53 that share a float64 image
// group together — in the legacy path, the hash folder and the
// streaming folder alike (the ordered index clusters by the same
// encoding), so all strategies stay result-identical.

// aggCall is one aggregate invocation appearing in the projection,
// HAVING or bound ORDER BY of an aggregated SELECT. Collected once at
// plan time; the slot index into groupState.accs is recorded in
// selectPlan.aggSlots keyed by AST node identity.
type aggCall struct {
	fn   string
	star bool // COUNT(*)
	arg  Expr // nil for COUNT(*) and for mis-arity calls (error at finalize)
}

// aggAccum is the running state of one aggregate call within one group.
// One struct serves every aggregate kind; fold and finalize only touch
// the fields their function reads. Evaluation errors met during the
// fold are DEFERRED into err and surfaced by finalize: the legacy
// executor only evaluates aggregates for groups that survive HAVING,
// so a group the HAVING clause discards must not fail the query just
// because its rows were folded.
type aggAccum struct {
	count   int64
	sumF    float64
	sumI    int64
	allInt  bool
	minV    sqltypes.Value
	maxV    sqltypes.Value
	started bool
	err     error
}

// groupState is one group's accumulators plus its first source row:
// scalar (non-aggregate) parts of the projection evaluate against it,
// exactly as the legacy evaluator uses group[0]. firstRow == nil marks
// the empty group of an aggregate-only query over no rows.
type groupState struct {
	firstRow []sqltypes.Value
	accs     []aggAccum
}

func (plan *selectPlan) newGroupState() *groupState {
	gs := &groupState{accs: make([]aggAccum, len(plan.aggCalls))}
	for i := range gs.accs {
		gs.accs[i].allInt = true
		gs.accs[i].minV = sqltypes.Null
		gs.accs[i].maxV = sqltypes.Null
	}
	return gs
}

// collectAggCalls records every aggregate call the fold evaluator can
// reach, mirroring evalAggFold's traversal exactly: aggregates under
// scalar function arguments and binary/unary operators are reachable;
// anything under other node kinds (IN, BETWEEN, IS NULL) is evaluated
// row-wise against the group's first row, where an aggregate errors in
// the legacy path too, so it needs no slot. Runs once per plan build.
func collectAggCalls(plan *selectPlan) {
	if !plan.aggregated {
		return
	}
	plan.aggSlots = make(map[*FuncCall]int)
	add := func(n *FuncCall) {
		if _, ok := plan.aggSlots[n]; ok {
			return
		}
		c := aggCall{fn: n.Name, star: n.Star}
		if !n.Star && len(n.Args) == 1 {
			c.arg = n.Args[0]
		}
		plan.aggSlots[n] = len(plan.aggCalls)
		plan.aggCalls = append(plan.aggCalls, c)
	}
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case *FuncCall:
			if isAggregate(n.Name) {
				add(n)
				return
			}
			for _, a := range n.Args {
				walk(a)
			}
		case *Binary:
			walk(n.L)
			walk(n.R)
		case *Unary:
			walk(n.X)
		}
	}
	for _, e := range plan.proj {
		walk(e)
	}
	if plan.stmt.Having != nil {
		walk(plan.stmt.Having)
	}
	for i, o := range plan.stmt.OrderBy {
		if plan.orderBound[i] {
			walk(o.Expr)
		}
	}
}

// foldRow folds one source row into the group's accumulators, matching
// computeAggregate's per-row semantics exactly: NULL arguments are
// skipped, SUM/AVG demand numeric operands, MIN/MAX use
// sqltypes.Compare and keep the incumbent on incomparable pairs.
// Evaluation errors defer into the accumulator (see aggAccum.err) so
// HAVING-excluded groups never surface them.
func (plan *selectPlan) foldRow(gs *groupState, row []sqltypes.Value, ctx *evalCtx) {
	if gs.firstRow == nil {
		gs.firstRow = row
	}
	for i := range plan.aggCalls {
		c := &plan.aggCalls[i]
		acc := &gs.accs[i]
		if c.star {
			acc.count++
			continue
		}
		if c.arg == nil {
			continue // arity error surfaces at finalize
		}
		ctx.vals = row
		v, err := evalExpr(c.arg, ctx)
		if err != nil {
			if acc.err == nil {
				acc.err = err
			}
			continue
		}
		if v.IsNull() {
			continue
		}
		foldValue(acc, c.fn, v, 1)
	}
}

// foldValue folds one non-NULL argument value, repeated n times (n > 1
// only for the index-key fold, where one key stands for n identical
// rows), into the accumulator. Shared by the row fold and the
// index-only grouped fold so their semantics cannot drift. SUM/AVG add
// the double image n times rather than multiplying — floating-point
// addition is what the legacy executor does per row, and f*n rounds
// differently (e.g. ten rows of 0.1).
func foldValue(acc *aggAccum, fn string, v sqltypes.Value, n int64) {
	acc.count += n
	switch fn {
	case "COUNT":
	case "SUM", "AVG":
		f, ok := v.AsDouble()
		if !ok {
			if acc.err == nil {
				acc.err = fmt.Errorf("sqldb: %s over non-numeric value", fn)
			}
			return
		}
		for i := int64(0); i < n; i++ {
			acc.sumF += f
		}
		if v.Kind() == sqltypes.KindInt {
			acc.sumI += v.Int() * n
		} else {
			acc.allInt = false
		}
	case "MIN":
		// fn is fixed per slot, so only the extremum finalize reads is
		// maintained (one Compare per row, not two).
		if !acc.started {
			acc.minV = v
			acc.started = true
			return
		}
		if cmp, ok := sqltypes.Compare(v, acc.minV); ok && cmp < 0 {
			acc.minV = v
		}
	case "MAX":
		if !acc.started {
			acc.maxV = v
			acc.started = true
			return
		}
		if cmp, ok := sqltypes.Compare(v, acc.maxV); ok && cmp > 0 {
			acc.maxV = v
		}
	}
}

// finalize extracts the aggregate's value from a folded accumulator,
// mirroring computeAggregate's result rules (SUM/AVG over an empty or
// all-NULL group are NULL; integer SUM stays integer).
func (c *aggCall) finalize(acc *aggAccum) (sqltypes.Value, error) {
	if c.star {
		return sqltypes.NewInt(acc.count), nil
	}
	if c.arg == nil {
		return sqltypes.Null, fmt.Errorf("sqldb: %s expects exactly one argument", c.fn)
	}
	if acc.err != nil {
		return sqltypes.Null, acc.err
	}
	switch c.fn {
	case "COUNT":
		return sqltypes.NewInt(acc.count), nil
	case "SUM":
		if acc.count == 0 {
			return sqltypes.Null, nil
		}
		if acc.allInt {
			return sqltypes.NewInt(acc.sumI), nil
		}
		return sqltypes.NewDouble(acc.sumF), nil
	case "AVG":
		if acc.count == 0 {
			return sqltypes.Null, nil
		}
		return sqltypes.NewDouble(acc.sumF / float64(acc.count)), nil
	case "MIN":
		return acc.minV, nil
	case "MAX":
		return acc.maxV, nil
	}
	return sqltypes.Null, fmt.Errorf("sqldb: unknown aggregate %s", c.fn)
}

// evalAggFold evaluates an expression over a folded group: aggregate
// calls read their accumulator slot, everything else mirrors evalAgg —
// scalar functions and operators recurse with evaluated operands
// (preserving three-valued logic), and leaf expressions evaluate
// against the group's first row.
func evalAggFold(e Expr, plan *selectPlan, gs *groupState, ctx *evalCtx) (sqltypes.Value, error) {
	switch n := e.(type) {
	case *FuncCall:
		if isAggregate(n.Name) {
			slot, ok := plan.aggSlots[n]
			if !ok {
				return sqltypes.Null, fmt.Errorf("sqldb: aggregate %s outside GROUP BY context", n.Name)
			}
			return plan.aggCalls[slot].finalize(&gs.accs[slot])
		}
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			v, err := evalAggFold(a, plan, gs, ctx)
			if err != nil {
				return sqltypes.Null, err
			}
			args[i] = &Literal{Val: v}
		}
		return evalFunc(&FuncCall{Name: n.Name, Args: args}, ctx)
	case *Binary:
		l, err := evalAggFold(n.L, plan, gs, ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		r, err := evalAggFold(n.R, plan, gs, ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		return evalBinary(&Binary{Op: n.Op, L: &Literal{Val: l}, R: &Literal{Val: r}}, ctx)
	case *Unary:
		v, err := evalAggFold(n.X, plan, gs, ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		return evalUnary(&Unary{Op: n.Op, X: &Literal{Val: v}}, ctx)
	default:
		if gs.firstRow == nil {
			// Aggregate query over an empty input: scalar parts are NULL.
			if _, ok := e.(*Literal); ok {
				return evalExpr(e, ctx)
			}
			return sqltypes.Null, nil
		}
		ctx.vals = gs.firstRow
		return evalExpr(e, ctx)
	}
}

// groupFolder routes source rows into group accumulators. streaming
// mode trusts the input to arrive clustered by group key (consecutive
// equal keys) and keeps one open group; hash mode accepts any order.
type groupFolder struct {
	plan      *selectPlan
	streaming bool
	keyBuf    []byte
	curKey    []byte
	cur       *groupState
	byKey     map[string]*groupState
	groups    []*groupState // first-seen (streaming: scan) order

	// maxGroups > 0 (streaming only) stops the fold once that many
	// groups have closed: with a group-ordered scan, LIMIT k and no
	// HAVING/ORDER BY/DISTINCT reshaping the group list, rows beyond the
	// (k+1)th group key can never appear in the result, so the index
	// walk halts there (grouped-fold early-stop).
	maxGroups int
	stopped   bool
}

// groupFootprint estimates the retained bytes of one hash-agg group:
// the groupState shell plus one accumulator per aggregate slot.
func groupFootprint(slots int) int64 { return 64 + 48*int64(slots) }

func newGroupFolder(plan *selectPlan, streaming bool) *groupFolder {
	f := &groupFolder{plan: plan, streaming: streaming}
	if streaming {
		f.maxGroups = plan.groupStop
	} else {
		f.byKey = make(map[string]*groupState)
	}
	return f
}

// add folds one kept source row into its group.
func (f *groupFolder) add(row []sqltypes.Value, ctx *evalCtx) error {
	plan := f.plan
	groupBy := plan.stmt.GroupBy
	if len(groupBy) == 0 {
		if f.cur == nil {
			f.cur = plan.newGroupState()
			f.groups = append(f.groups, f.cur)
		}
		plan.foldRow(f.cur, row, ctx)
		return nil
	}
	f.keyBuf = f.keyBuf[:0]
	ctx.vals = row
	for _, g := range groupBy {
		v, err := evalExpr(g, ctx)
		if err != nil {
			return err
		}
		f.keyBuf = appendKey(f.keyBuf, v)
	}
	var gs *groupState
	if f.streaming {
		if f.cur != nil && bytes.Equal(f.keyBuf, f.curKey) {
			gs = f.cur
		} else {
			if f.maxGroups > 0 && len(f.groups) >= f.maxGroups {
				// The limit-th group just closed; ignore this row and
				// tell the scan to stop.
				f.stopped = true
				return nil
			}
			gs = plan.newGroupState()
			f.groups = append(f.groups, gs)
			f.cur = gs
			f.curKey = append(f.curKey[:0], f.keyBuf...)
		}
	} else {
		gs = f.byKey[string(f.keyBuf)] // no-allocation map lookup
		if gs == nil {
			// A new hash-agg group retains its key and accumulators for
			// the statement's lifetime: charge the memory budget.
			if err := ctx.intr.charge(int64(len(f.keyBuf)) + groupFootprint(len(plan.aggCalls))); err != nil {
				return err
			}
			gs = plan.newGroupState()
			f.byKey[string(f.keyBuf)] = gs
			f.groups = append(f.groups, gs)
		}
	}
	plan.foldRow(gs, row, ctx)
	return nil
}

// finish returns the folded groups. With no GROUP BY the whole input is
// one group even when empty, per SQL (COUNT(*) over no rows is 0).
func (f *groupFolder) finish() []*groupState {
	if len(f.plan.stmt.GroupBy) == 0 && len(f.groups) == 0 {
		f.groups = append(f.groups, f.plan.newGroupState())
	}
	return f.groups
}

// runFoldAggregate executes an aggregated SELECT through the fold
// pipeline: scan (or join), fold rows into group accumulators, then
// evaluate HAVING and the projection per group. It returns the
// projected output rows; the caller applies DISTINCT/ORDER BY/LIMIT.
// Read-only on the plan like the rest of runSelect.
func (db *DB) runFoldAggregate(plan *selectPlan, ctx *evalCtx) ([]outRow, error) {
	s := plan.stmt
	var groups []*groupState
	if len(plan.tables) == 1 {
		g, err := db.foldSingleTable(plan, ctx)
		if err != nil {
			return nil, err
		}
		groups = g
	} else {
		rows, err := db.joinRows(plan, ctx)
		if err != nil {
			return nil, err
		}
		folder := newGroupFolder(plan, false)
		for _, r := range rows {
			if err := ctx.intr.check(); err != nil {
				return nil, err
			}
			if s.Where != nil {
				ctx.vals = r
				v, err := evalExpr(s.Where, ctx)
				if err != nil {
					return nil, err
				}
				if v.IsNull() || !truthy(v) {
					continue
				}
			}
			if err := folder.add(r, ctx); err != nil {
				return nil, err
			}
		}
		groups = folder.finish()
	}

	out := make([]outRow, 0, len(groups))
	for _, gs := range groups {
		if s.Having != nil {
			v, err := evalAggFold(s.Having, plan, gs, ctx)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !truthy(v) {
				continue
			}
		}
		vals := ctx.ar.alloc(len(plan.proj))
		for i, e := range plan.proj {
			v, err := evalAggFold(e, plan, gs, ctx)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out = append(out, outRow{vals: vals, gs: gs})
	}
	return out, nil
}

// foldSingleTable scans the single FROM table (through the planned
// access path when it serves this execution) folding kept rows as they
// stream by — no row set is materialised. Streaming grouping is used
// only when the plan marked the path as group-clustered AND the path
// actually handled the scan; a probe-misalignment fallback to the heap
// scan loses the clustering, so it folds through the hash strategy.
func (db *DB) foldSingleTable(plan *selectPlan, ctx *evalCtx) ([]*groupState, error) {
	s := plan.stmt
	ft := plan.tables[0]
	var foldErr error
	emit := func(f *groupFolder) func(*rowSlot, []sqltypes.Value) bool {
		return func(_ *rowSlot, vals []sqltypes.Value) bool {
			// Per-row cancellation checkpoint for the fold scans.
			if err := ctx.intr.check(); err != nil {
				foldErr = err
				return false
			}
			if s.Where != nil {
				ctx.vals = vals
				v, err := evalExpr(s.Where, ctx)
				if err != nil {
					foldErr = err
					return false
				}
				if v.IsNull() || !truthy(v) {
					return true
				}
			}
			if err := f.add(vals, ctx); err != nil {
				foldErr = err
				return false
			}
			return !f.stopped
		}
	}
	// Index-only grouped fold: whole groups answered from index keys,
	// zero heap fetches (aggplan.go). handled=false — probe misalignment
	// or inexact keys — falls to the scan-and-fold paths below.
	if plan.groupIdxFold != nil && !db.fullScanOnly {
		groups, handled, err := db.runGroupIndexFold(plan, ctx)
		if err != nil {
			return nil, err
		}
		if handled {
			return groups, nil
		}
	}
	if plan.path != nil && !db.fullScanOnly {
		folder := newGroupFolder(plan, plan.streamGroups)
		handled := scanAccessPath(ft.data, plan.path, ctx, emit(folder))
		if foldErr != nil {
			return nil, foldErr
		}
		if handled {
			return folder.finish(), nil
		}
		// handled=false emits nothing: fall through with a fresh folder.
	}
	folder := newGroupFolder(plan, false)
	ft.data.scan(ctx.snap, emit(folder))
	if foldErr != nil {
		return nil, foldErr
	}
	return folder.finish(), nil
}
