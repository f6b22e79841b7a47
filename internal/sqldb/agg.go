package sqldb

import (
	"fmt"
	"math/bits"

	"repro/internal/sqltypes"
)

// The fold-based aggregation pipeline.
//
// An aggregated SELECT never retains its source rows: every aggregate
// call in the query gets one slot (aggCall), every group one accumulator
// per slot (aggAccum), and each source row — of a scan or of a join — is
// folded into its group's accumulators as the row source hands it over
// (runSelectAt). The groups HAVING keeps then take the rows' place in
// front of the statement's sink.
//
// One strategy reaches the groups of every GROUP BY ("hash-agg" in
// Stmt.AccessPath), whatever order the source emits rows in: groups live
// in a map keyed by the tuple's index-key encoding (key.go). The per-row
// lookup converts the scratch key buffer with a no-allocation map
// access; a key string is allocated only when a new group first appears.
// Groups come out in first-seen order, which SQL leaves unspecified, and
// the fold reads every source row even under a LIMIT.
//
// Group identity is that encoding of the evaluated GROUP BY expressions,
// so NULL, '' and 0 vs '0' land in distinct groups (class tags differ)
// and INTEGER 1 and DOUBLE 1 in one (sqltypes.Compare calls them equal).

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
// fold are DEFERRED into err and surfaced by finalize: an aggregate is
// only asked for in groups that survive HAVING, so a group the HAVING
// clause discards must not fail the query just because its rows were
// folded.
type aggAccum struct {
	count   int64
	sumF    float64
	sumI    int64
	allInt  bool
	sumHi   int64 // high word of the 128-bit integer sum; sumI is the low word
	minV    sqltypes.Value
	maxV    sqltypes.Value
	started bool
	err     error
}

// groupState is one group's accumulators plus its first source row:
// scalar (non-aggregate) parts of the projection evaluate against it
// (the GROUP BY columns are constant within a group). firstRow == nil
// marks the empty group of an aggregate-only query over no rows.
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
// row-wise against the group's first row, where an aggregate is an
// error, so it needs no slot. Runs once per plan build.
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

// foldRow folds one source row into the group's accumulators: NULL
// arguments are skipped, SUM/AVG demand numeric operands, MIN/MAX use
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
		acc.count++
		switch c.fn {
		case "SUM", "AVG":
			f, ok := v.AsDouble()
			if !ok {
				if acc.err == nil {
					acc.err = fmt.Errorf("sqldb: %s over non-numeric value", c.fn)
				}
				continue
			}
			acc.sumF += f
			if v.Kind() != sqltypes.KindInt {
				acc.allInt = false
				continue
			}
			// Add in 128 bits, so whether the sum fits int64 depends on
			// the rows, not on the order the source emits them in.
			x := v.Int()
			lo, carry := bits.Add64(uint64(acc.sumI), uint64(x), 0)
			acc.sumI = int64(lo)
			acc.sumHi += int64(carry) + x>>63
		case "MIN":
			// fn is fixed per slot, so only the extremum finalize reads is
			// maintained (one Compare per row, not two).
			if !acc.started {
				acc.minV = v
				acc.started = true
			} else if cmp, ok := sqltypes.Compare(v, acc.minV); ok && cmp < 0 {
				acc.minV = v
			}
		case "MAX":
			if !acc.started {
				acc.maxV = v
				acc.started = true
			} else if cmp, ok := sqltypes.Compare(v, acc.maxV); ok && cmp > 0 {
				acc.maxV = v
			}
		}
	}
}

// finalize extracts the aggregate's value from a folded accumulator
// (SUM/AVG over an empty or all-NULL group are NULL; integer SUM stays
// integer, and fails once it leaves the int64 range — a DOUBLE operand
// makes the SUM a DOUBLE, and AVG never reads the integer sum).
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
			if acc.sumHi != acc.sumI>>63 {
				return sqltypes.Null, outOfBigint("SUM")
			}
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
// calls read their accumulator slot, scalar functions and operators
// recurse with evaluated operands (preserving three-valued logic), and
// leaf expressions evaluate against the group's first row.
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

// groupFolder routes source rows into group accumulators: through the
// hash table with GROUP BY, into the one group without.
type groupFolder struct {
	plan   *selectPlan
	ctx    *evalCtx
	keyBuf []byte
	cur    *groupState // the one group of a statement with no GROUP BY
	byKey  map[string]*groupState
	groups []*groupState // first-seen order

	err error // a failure that stopped the fold
}

// add folds one source row into its group. false stops the source: the
// fold failed.
func (f *groupFolder) add(row []sqltypes.Value) bool {
	plan, ctx := f.plan, f.ctx
	groupBy := plan.stmt.GroupBy
	if len(groupBy) == 0 {
		if f.cur == nil {
			f.cur = plan.newGroupState()
			f.groups = append(f.groups, f.cur)
		}
		plan.foldRow(f.cur, row, ctx)
		return true
	}
	f.keyBuf = f.keyBuf[:0]
	ctx.vals = row
	for _, g := range groupBy {
		v, err := evalExpr(g, ctx)
		if err != nil {
			f.err = err
			return false
		}
		f.keyBuf = appendKey(f.keyBuf, v)
	}
	gs := f.byKey[string(f.keyBuf)] // no-allocation map lookup
	if gs == nil {
		gs = plan.newGroupState()
		f.byKey[string(f.keyBuf)] = gs
		f.groups = append(f.groups, gs)
	}
	plan.foldRow(gs, row, ctx)
	return true
}

// foldGroups folds the statement's rows into groups, in first-seen
// order. With no GROUP BY the whole input is one group even when empty,
// per SQL (COUNT(*) over no rows is 0).
func (db *DB) foldGroups(plan *selectPlan, ctx *evalCtx, scan tableScan) ([]*groupState, error) {
	f := &groupFolder{plan: plan, ctx: ctx}
	if len(plan.stmt.GroupBy) > 0 {
		f.byKey = make(map[string]*groupState)
	}
	err := db.streamRows(plan, ctx, scan, f.add)
	if err == nil {
		err = f.err
	}
	if err != nil {
		return nil, err
	}
	if len(plan.stmt.GroupBy) == 0 && len(f.groups) == 0 {
		f.groups = append(f.groups, plan.newGroupState())
	}
	return f.groups, nil
}

// foldInto runs an aggregated SELECT's source through the fold and
// hands the groups HAVING keeps to sink, counting them.
func (db *DB) foldInto(plan *selectPlan, ctx *evalCtx, scan tableScan, sink rowSink) (kept int64, err error) {
	groups, err := db.foldGroups(plan, ctx, scan)
	if err != nil {
		return 0, err
	}
	for _, gs := range groups {
		if having := plan.stmt.Having; having != nil {
			v, err := evalAggFold(having, plan, gs, ctx)
			if err != nil {
				return 0, err
			}
			if v.IsNull() || !truthy(v) {
				continue
			}
		}
		kept++
		if !sink.add(nil, gs) {
			break
		}
	}
	return kept, nil
}
