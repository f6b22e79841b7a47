package sqldb

import (
	"cmp"
	"slices"

	"repro/internal/sqltypes"
)

// Index-only aggregates.
//
// A single-table aggregate query whose WHERE clause is consumed exactly
// by the access path (accessPath.residualFree) and whose projection is
// made only of COUNT/MIN/MAX calls the path can serve is answered from
// the index without materialising candidate rows:
//
//	COUNT(*) / COUNT(col)  — sum the row-ID list lengths under the
//	                         path's key range: zero heap reads.
//	MIN(col) / MAX(col)    — walk the key range in (reverse) order and
//	                         decode the answer straight off the boundary
//	                         KEY (key.go decode support): zero heap
//	                         reads, but for a DOUBLE zero key (±0.0
//	                         share it), which one boundary row answers.
//
// Both walk the key range the statement's tableScan resolved, the one a
// row-fetching scan would walk. An aligned probe's key is exact
// (key.go), so a residual-free path's range holds exactly the matching
// rows, strict bounds included.

// aggItem is one projection item of an index-only aggregate plan.
type aggItem struct {
	fn     string // "COUNT", "MIN", "MAX"
	colPos int    // schema position of the argument; -1 for COUNT(*)
}

// planIndexOnlyAgg decides whether the bound SELECT qualifies for
// index-only aggregation and records the per-item plan. Called once per
// plan build; the schema epoch invalidates it with the rest of the plan.
func planIndexOnlyAgg(plan *selectPlan) {
	s := plan.stmt
	if plan.noFrom || len(plan.tables) != 1 || !plan.aggregated ||
		len(s.GroupBy) > 0 || s.Having != nil || s.Distinct || len(s.OrderBy) > 0 {
		return
	}
	path := plan.path
	if path == nil {
		if s.Where != nil {
			return
		}
	} else if !path.residualFree {
		return
	}
	items := make([]aggItem, 0, len(plan.proj))
	for _, e := range plan.proj {
		fc, ok := e.(*FuncCall)
		if !ok || !isAggregate(fc.Name) {
			return
		}
		if fc.Name == "COUNT" && fc.Star {
			items = append(items, aggItem{fn: "COUNT", colPos: -1})
			continue
		}
		if len(fc.Args) != 1 {
			return
		}
		cr, ok := fc.Args[0].(*ColRef)
		if !ok || cr.Index < 0 {
			return
		}
		// Single-table plan: the bound index IS the schema position.
		colPos := cr.Index
		switch fc.Name {
		case "COUNT":
			// COUNT(col) counts non-NULL values; equal to the key count
			// only when the path guarantees col is non-NULL in every
			// match.
			if !pathGuaranteesNotNull(path, colPos) {
				return
			}
		case "MIN", "MAX":
			if !pathServesMinMax(path, colPos) {
				return
			}
		default:
			return
		}
		items = append(items, aggItem{fn: fc.Name, colPos: colPos})
	}
	plan.aggItems = items
}

// pathGuaranteesNotNull reports whether every row the path emits has a
// non-NULL value in colPos: equality columns (a NULL probe matches
// nothing), and the scan column under a range bound or IS NOT NULL.
func pathGuaranteesNotNull(path *accessPath, colPos int) bool {
	if path == nil {
		return false
	}
	for i := 0; i < path.nEq; i++ {
		if path.colPos[i] == colPos {
			return true
		}
	}
	if path.nEq < len(path.cols) && path.colPos[path.nEq] == colPos {
		switch path.kind {
		case pathOrderedRange:
			return path.lo != nil || path.hi != nil
		case pathOrderedNull:
			return path.notNull
		}
	}
	return false
}

// pathServesMinMax reports whether the path can find MIN/MAX(colPos) at
// a key-range boundary: equality columns are constant over every match,
// and the ordered scan column is emitted in value order.
func pathServesMinMax(path *accessPath, colPos int) bool {
	if path == nil {
		return false
	}
	for i := 0; i < path.nEq; i++ {
		if path.colPos[i] == colPos {
			return true
		}
	}
	if path.nEq < len(path.cols) && path.colPos[path.nEq] == colPos {
		switch path.kind {
		case pathOrderedRange:
			return true
		case pathOrderedNull:
			return path.notNull
		}
	}
	return false
}

// ---------- per-group index-only folding ----------
//
// The grouped counterpart of the single-row index-only aggregates: when
// a residual-free path's index clusters the GROUP BY columns AND every
// aggregate argument is itself an index column, whole groups fold from
// the index KEYS — each key names its full column tuple, so COUNT adds
// the row-ID list length, SUM folds the decoded value once per row the
// key stands for (see foldValue), MIN/MAX compare the decoded component
// once per key — and no heap row is ever fetched.
// A key whose aggregate-argument component does not round-trip (a DOUBLE
// zero) folds that one key's rows through the ordinary row fetch,
// keeping results exact. Scalar (non-aggregate) expression parts are
// restricted at plan time to index columns and evaluate against a
// synthetic row decoded from the group's first key.

// idxFoldSlot is the per-aggregate-call decode recipe, parallel to
// selectPlan.aggCalls.
type idxFoldSlot struct {
	star      bool
	tupleSlot int // index tuple position of the argument column; -1 for *
	kind      sqltypes.Kind
	fn        string
}

// groupIdxFoldPlan is the plan for answering a grouped aggregate from
// index keys alone (see planGroupIndexFold).
type groupIdxFoldPlan struct {
	prefixComponents int // leading key components that identify a group
	slots            []idxFoldSlot
	synth            []int // tuple slots decoded into the synthetic first row

	// Single-pass decode recipe: the executor walks each key's
	// components once, decoding tuple slot j when needed[j]. walkLen
	// covers both the group prefix and the deepest needed slot.
	needed  []bool
	kinds   []sqltypes.Kind // parallel to needed
	walkLen int
}

// planGroupIndexFold decides whether the grouped fold can run off the
// index keys and records the decode recipe. Requires the streaming
// qualification (plan.streamGroups: the path clusters the group
// columns) plus a residual-free path, aggregate arguments that are bare
// index-column references, and scalar parts confined to index columns.
// Runs once per plan build.
func planGroupIndexFold(plan *selectPlan) {
	s := plan.stmt
	path := plan.path
	if !plan.streamGroups || plan.groupCols == nil || path == nil || !path.residualFree {
		return
	}
	td := plan.tables[0].data
	slotOf := func(pos int) int {
		for j, p := range path.colPos {
			if p == pos {
				return j
			}
		}
		return -1
	}
	slots := make([]idxFoldSlot, len(plan.aggCalls))
	for i := range plan.aggCalls {
		c := &plan.aggCalls[i]
		if c.star {
			slots[i] = idxFoldSlot{star: true, tupleSlot: -1}
			continue
		}
		cr, ok := c.arg.(*ColRef) // nil arg (arity error) fails here too
		if !ok || cr.Index < 0 {
			return
		}
		j := slotOf(cr.Index)
		if j < 0 {
			return
		}
		slots[i] = idxFoldSlot{tupleSlot: j, kind: td.schema.Cols[cr.Index].Type.Kind, fn: c.fn}
	}
	// Scalar parts evaluate against a synthetic row holding only the
	// decoded index columns, so they may reference nothing else.
	// Aggregate subtrees are pruned (their arguments were vetted above).
	synthSet := make(map[int]bool)
	ok := true
	checkScalars := func(e Expr) {
		walkExpr(e, func(x Expr) bool {
			if !ok {
				return false
			}
			if fc, isFunc := x.(*FuncCall); isFunc && isAggregate(fc.Name) {
				return false
			}
			if cr, isCol := x.(*ColRef); isCol {
				j := -1
				if cr.Index >= 0 {
					j = slotOf(cr.Index)
				}
				if j < 0 {
					ok = false
					return false
				}
				synthSet[j] = true
			}
			return true
		})
	}
	for _, e := range plan.proj {
		checkScalars(e)
	}
	if s.Having != nil {
		checkScalars(s.Having)
	}
	for i, o := range s.OrderBy {
		if plan.orderBound[i] {
			checkScalars(o.Expr)
		}
	}
	if !ok {
		return
	}
	// Group identity: the equality prefix (constant) plus the leading
	// run of distinct non-equality group columns — the same count the
	// streaming qualification proved sits right after it
	// (pathNonEqGroupCols, shared with pathClustersGroups).
	gp := &groupIdxFoldPlan{
		prefixComponents: path.nEq + pathNonEqGroupCols(path, plan.groupCols),
		slots:            slots,
	}
	for j := range path.cols {
		if synthSet[j] {
			gp.synth = append(gp.synth, j)
		}
	}
	// Per-key decode walk: every aggregate-argument slot, plus enough
	// components to delimit the group prefix.
	gp.needed = make([]bool, len(path.cols))
	gp.kinds = make([]sqltypes.Kind, len(path.cols))
	gp.walkLen = gp.prefixComponents
	for i := range slots {
		sl := &slots[i]
		if sl.star {
			continue
		}
		gp.needed[sl.tupleSlot] = true
		gp.kinds[sl.tupleSlot] = sl.kind
		if sl.tupleSlot+1 > gp.walkLen {
			gp.walkLen = sl.tupleSlot + 1
		}
	}
	plan.groupIdxFold = gp
}

// runGroupIndexFold folds the grouped aggregate from the index keys of
// scan's key range. Evaluation errors defer into the accumulators and
// surface at finalize, exactly like the row-wise fold (same messages,
// same HAVING-aware timing). Governance errors (cancellation, deadline,
// memory budget) surface immediately.
func (db *DB) runGroupIndexFold(plan *selectPlan, ctx *evalCtx, scan tableScan) ([]*groupState, error) {
	gp := plan.groupIdxFold
	path, td := scan.path, scan.td
	reads := int64(0)
	defer func() { td.heapReads.Add(reads) }()

	var (
		groups    []*groupState
		cur       *groupState
		curPrefix string
		chargeErr error
		decoded   = make([]sqltypes.Value, gp.walkLen) // per-slot scratch, reused per key
	)
	// fetchRows folds one key's rows through the heap fetch (the decode
	// refused); nothing of this key has been folded yet.
	fetchRows := func(rows []*rowSlot) {
		for _, r := range rows {
			if vals, live := r.fetch(ctx.snap); live {
				reads++
				plan.foldRow(cur, vals, ctx)
			}
		}
	}
	// startGroup opens the group identified by prefix, building the
	// synthetic first row for the scalar parts from the group's first
	// key; a non-round-tripping component falls back to one real row.
	startGroup := func(k, prefix string, rows []*rowSlot) {
		cur = plan.newGroupState()
		groups = append(groups, cur)
		curPrefix = prefix
		row := make([]sqltypes.Value, len(td.schema.Cols))
		for _, j := range gp.synth {
			v, ok := decodeKeyColumn(k, j, td.schema.Cols[path.colPos[j]].Type.Kind)
			if !ok {
				for _, r := range rows {
					if vals, live := r.fetch(ctx.snap); live {
						reads++
						cur.firstRow = vals
						return
					}
				}
				return
			}
			row[path.colPos[j]] = v
		}
		cur.firstRow = row
	}
	walkErr := scan.keys(ctx, path.desc, func(k string, rows []*rowSlot) bool {
		// One forward walk per key: delimit the group prefix and decode
		// the aggregate-argument components. Any refusal (malformed key,
		// non-round-tripping component) folds this key's rows through
		// the heap fetch instead.
		rest, prefix, decodeOK := k, k, true
		for j := 0; j < gp.walkLen; j++ {
			if decodeOK && gp.needed[j] {
				decoded[j], decodeOK = decodeKeyValue(rest, gp.kinds[j])
			}
			var okc bool
			if rest, okc = skipKeyComponent(rest); !okc {
				// Malformed key (cannot happen for keys the engine
				// built); the row fetch below still folds it exactly.
				decodeOK = false
				break
			}
			if j == gp.prefixComponents-1 {
				prefix = k[:len(k)-len(rest)]
				if !decodeOK {
					break // prefix delimited; nothing left to decode
				}
			}
		}
		if cur == nil || prefix != curPrefix {
			if plan.groupStop > 0 && len(groups) >= plan.groupStop {
				// Grouped-fold early-stop: the LIMIT-th group just
				// closed, so the rest of the key walk cannot contribute.
				return false
			}
			// Each open group retains its state for the statement's
			// lifetime: charge the memory budget.
			if chargeErr = ctx.intr.charge(int64(len(prefix)) + groupFootprint(len(plan.aggCalls))); chargeErr != nil {
				return false
			}
			startGroup(k, prefix, rows)
		}
		if !decodeOK {
			fetchRows(rows)
			return true
		}
		n := int64(len(rows))
		for i := range gp.slots {
			sl := &gp.slots[i]
			acc := &cur.accs[i]
			if sl.star {
				acc.count += n
				continue
			}
			v := decoded[sl.tupleSlot]
			if v.IsNull() {
				continue
			}
			// One key stands for n identical rows; foldValue (shared
			// with the row fold) keeps the per-value semantics — and
			// double SUM rounding — bit-identical to folding each row.
			// Errors defer into the accumulator and surface at finalize,
			// so HAVING-discarded groups never raise them.
			foldValue(acc, sl.fn, v, n)
		}
		return true
	})
	if err := cmp.Or(chargeErr, walkErr); err != nil {
		return nil, err
	}
	return groups, nil
}

// runIndexOnlyAgg answers the planned aggregate items from scan's key
// range — or, for a bare COUNT(*) with no path, from the live-row count.
// COUNT items read zero heap rows; MIN/MAX at most one boundary row.
// Governance errors (cancellation, deadline) surface immediately.
func (db *DB) runIndexOnlyAgg(plan *selectPlan, ctx *evalCtx, scan tableScan) (*Rows, error) {
	s := plan.stmt
	var err error
	count := int64(-1)
	countRows := func() int64 {
		switch {
		case count >= 0:
		case scan.path == nil:
			// COUNT(*) with no WHERE: the committed live-count history
			// answers exactly for this statement's snapshot even while
			// writers keep committing.
			count = scan.td.liveAt(ctx.snap)
		default:
			count = 0
			err = scan.keys(ctx, false, func(_ string, rows []*rowSlot) bool {
				count += int64(len(rows))
				return true
			})
		}
		return count
	}
	vals := make([]sqltypes.Value, len(plan.aggItems))
	for i, it := range plan.aggItems {
		if it.fn == "COUNT" {
			vals[i] = sqltypes.NewInt(countRows())
		} else {
			vals[i], err = boundaryAgg(&scan, it.colPos, it.fn == "MAX", ctx)
		}
		if err != nil {
			return nil, err
		}
	}

	// Assemble the single aggregate row exactly like runSelect would.
	kinds := make([]sqltypes.Kind, len(plan.kinds))
	copy(kinds, plan.kinds)
	columns := make([]string, len(plan.labels))
	copy(columns, plan.labels)
	out := newRows(columns, kinds)
	if s.Offset == 0 && s.Limit != 0 {
		out.Data = [][]sqltypes.Value{vals}
	}
	backfillKinds(out)
	return out, nil
}

// boundaryAgg finds MIN (desc=false) or MAX (desc=true) of colPos —
// one of the path's columns (pathServesMinMax) — by walking scan's key
// range in order: the first key whose colPos component is not NULL
// holds the answer, decoded straight off the key (decodeKeyColumn) —
// zero heap rows — or, for a DOUBLE zero key, whose sign the key cannot
// name, read from one of its rows.
func boundaryAgg(scan *tableScan, colPos int, desc bool, ctx *evalCtx) (sqltypes.Value, error) {
	slot := slices.Index(scan.path.colPos, colPos)
	colKind := scan.td.schema.Cols[colPos].Type.Kind
	best := sqltypes.Null
	err := scan.keys(ctx, desc, func(k string, rows []*rowSlot) bool {
		if v, ok := decodeKeyColumn(k, slot, colKind); ok {
			best = v
			return v.IsNull() // keep scanning past the NULL key
		}
		for _, r := range rows {
			if vals, live := r.fetch(ctx.snap); live {
				scan.td.heapReads.Add(1)
				best = vals[colPos]
				return false
			}
		}
		return true
	})
	return best, err
}
