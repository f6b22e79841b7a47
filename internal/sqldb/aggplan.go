package sqldb

import (
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
//	                         path's exact key range: zero heap reads.
//	MIN(col) / MAX(col)    — walk the key range in (reverse) order and
//	                         decode the answer straight off the boundary
//	                         KEY (key.go decode support): zero heap
//	                         reads for every kind whose encoding
//	                         round-trips. Components that do not
//	                         round-trip — integers in the ±2^53 float
//	                         collision window, a DOUBLE zero key (±0.0
//	                         share it) — fall back to materialising the
//	                         boundary key's rows, as every key did
//	                         before decode support existed.
//
// Because encoded keys can over-approximate value equality (the float64
// image of integers beyond ±2^53), the executor re-verifies at each
// execution that every probe is exact (exactProbe); when it is not, it
// falls back to the ordinary row-materialising path, which re-applies
// the residual predicate. Strict range bounds, which the ordinary path
// widens to inclusive scans, are honoured exactly here for the same
// reason.

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
// A key whose aggregate-argument component does not round-trip (a far
// integer, a DOUBLE zero) folds that one key's rows through the ordinary
// row fetch, keeping results exact; one whose GROUP-KEY component does
// not may share its image with another group's (key.go), so the whole
// execution is declined to the row fold. Scalar (non-aggregate)
// expression parts are restricted at plan time to index columns and
// evaluate against a synthetic row decoded from the group's first key.

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
	// Per-key decode walk: every aggregate-argument slot and every
	// numeric group-key component (the executor declines on one that does
	// not round-trip), plus enough components to delimit the group prefix.
	gp.needed = make([]bool, len(path.cols))
	gp.kinds = make([]sqltypes.Kind, len(path.cols))
	gp.walkLen = gp.prefixComponents
	for j := 0; j < gp.prefixComponents; j++ {
		if k := td.schema.Cols[path.colPos[j]].Type.Kind; k == sqltypes.KindInt || k == sqltypes.KindDouble {
			gp.needed[j], gp.kinds[j] = true, k
		}
	}
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

// runGroupIndexFold folds the grouped aggregate from index keys.
// handled=false (probe misalignment, an inexact probe or an inexact
// group key) sends the caller to the row fold, whatever was folded
// here discarded. Evaluation errors defer into
// the accumulators and surface at finalize, exactly like the row-wise
// fold (same messages, same HAVING-aware timing). Governance errors
// (cancellation, deadline, memory budget) surface immediately.
func (db *DB) runGroupIndexFold(plan *selectPlan, ctx *evalCtx) (groups []*groupState, handled bool, err error) {
	gp := plan.groupIdxFold
	path := plan.path
	td := plan.tables[0].data
	idx := td.index(path.idx)
	if idx == nil {
		return nil, false, nil
	}
	er, ok := pathKeyRange(td, path, ctx, true)
	if !ok {
		return nil, false, nil
	}
	if er.empty {
		return nil, true, nil
	}

	reads := int64(0)
	defer func() { td.heapReads.Add(reads) }()

	var (
		cur       *groupState
		curPrefix string
		foldErr   error
		declined  bool
		decoded   = make([]sqltypes.Value, gp.walkLen) // per-slot scratch, reused per key
	)
	// foldRowsFallback folds one key's rows through the heap fetch (the
	// decode refused); nothing of this key has been folded yet.
	foldRowsFallback := func(rows []*rowSlot) bool {
		for _, r := range rows {
			vals, live := r.fetch(ctx.snap)
			if !live {
				continue
			}
			reads++
			plan.foldRow(cur, vals, ctx)
		}
		return true
	}
	// startGroup opens the group identified by prefix, building the
	// synthetic first row for the scalar parts from the group's first
	// key; a non-round-tripping component falls back to one real row.
	startGroup := func(k, prefix string, rows []*rowSlot) {
		// Each open group retains its state for the statement's lifetime:
		// charge the memory budget (surfaces through foldErr on the next
		// visit, since this path cannot abort mid-key).
		if gerr := ctx.intr.charge(int64(len(prefix)) + groupFootprint(len(plan.aggCalls))); gerr != nil {
			foldErr = gerr
		}
		cur = plan.newGroupState()
		groups = append(groups, cur)
		curPrefix = prefix
		row := make([]sqltypes.Value, len(td.schema.Cols))
		okSynth := true
		for _, j := range gp.synth {
			v, okd := decodeKeyColumn(k, j, td.schema.Cols[path.colPos[j]].Type.Kind)
			if !okd {
				okSynth = false
				break
			}
			row[path.colPos[j]] = v
		}
		if okSynth {
			cur.firstRow = row
		} else {
			for _, r := range rows {
				if vals, live := r.fetch(ctx.snap); live {
					reads++
					cur.firstRow = vals
					break
				}
			}
		}
	}
	visit := func(k string, rows []*rowSlot) bool {
		// Per-key cancellation checkpoint for the index-key fold.
		if gerr := ctx.intr.check(); gerr != nil {
			foldErr = gerr
			return false
		}
		// One forward walk per key: delimit the group prefix and decode
		// the aggregate-argument components. Any refusal (malformed key,
		// non-round-tripping component) folds this key's rows through
		// the heap fetch instead — nothing has been folded yet.
		rest := k
		prefix := k
		decodeOK := true
		for j := 0; j < gp.walkLen; j++ {
			if decodeOK && gp.needed[j] {
				v, okd := decodeKeyValue(rest, gp.kinds[j])
				switch {
				case okd:
					decoded[j] = v
				case j < gp.prefixComponents:
					declined = true
					return false
				default:
					decodeOK = false
				}
			}
			var okc bool
			rest, okc = skipKeyComponent(rest)
			if !okc {
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
			startGroup(k, prefix, rows)
		}
		if !decodeOK {
			return foldRowsFallback(rows)
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
	}

	if er.useLookup {
		rows := lookupVisible(td, idx, er.lookup, ctx.snap)
		if len(rows) > 0 {
			visit(er.lookup, rows)
		}
	} else {
		scanVisibleRange(td, idx, er.lo, er.hi, false, ctx.snap, visit)
	}
	if foldErr != nil {
		return nil, true, foldErr
	}
	return groups, !declined, nil
}

// runIndexOnlyAgg answers the planned aggregate items from the index.
// handled=false falls back to the row-materialising executor (probe
// misalignment or inexact keys). COUNT items read zero heap rows;
// MIN/MAX materialise only the boundary key's rows. Governance errors
// (cancellation, deadline) surface immediately.
func (db *DB) runIndexOnlyAgg(plan *selectPlan, ctx *evalCtx) (*Rows, bool, error) {
	s := plan.stmt
	td := plan.tables[0].data
	path := plan.path

	var idx *orderedIndex
	var er keyRange
	if path == nil {
		// COUNT(*) with no WHERE: the live-row counter is the answer.
	} else {
		idx = td.index(path.idx)
		if idx == nil {
			return nil, false, nil
		}
		var ok bool
		er, ok = pathKeyRange(td, path, ctx, true)
		if !ok {
			return nil, false, nil
		}
	}

	var govErr error
	count := int64(-1)
	countRows := func() int64 {
		if count >= 0 {
			return count
		}
		switch {
		case path == nil:
			// COUNT(*) with no WHERE: the committed live-count history
			// answers exactly for this statement's snapshot even while
			// writers keep committing.
			count = td.liveAt(ctx.snap)
		case er.empty:
			count = 0
		case er.useLookup:
			count = int64(len(lookupVisible(td, idx, er.lookup, ctx.snap)))
		default:
			count = 0
			scanVisibleRange(td, idx, er.lo, er.hi, false, ctx.snap, func(_ string, rows []*rowSlot) bool {
				if err := ctx.intr.check(); err != nil {
					govErr = err
					return false
				}
				count += int64(len(rows))
				return true
			})
		}
		return count
	}

	vals := make([]sqltypes.Value, len(plan.aggItems))
	for i, it := range plan.aggItems {
		switch it.fn {
		case "COUNT":
			vals[i] = sqltypes.NewInt(countRows())
		case "MIN":
			vals[i] = boundaryAgg(td, idx, er, it.colPos, false, ctx)
		case "MAX":
			vals[i] = boundaryAgg(td, idx, er, it.colPos, true, ctx)
		}
		if govErr == nil {
			govErr = ctx.intr.check()
		}
		if govErr != nil {
			return nil, false, govErr
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
	return out, true, nil
}

// boundaryAgg finds MIN (desc=false) or MAX (desc=true) of colPos by
// walking the exact key range in order. Whenever the column's component
// of the boundary key round-trips (decodeKeyColumn), the answer is read
// straight off the key — zero heap rows. Otherwise the boundary key's
// rows are materialised and compared: distinct values can share a key
// in the far-integer collision window, so that key is a tiny candidate
// set, not a single row, and the fetch resolves the exact extremum.
func boundaryAgg(td *tableData, idx *orderedIndex, er keyRange, colPos int, desc bool, ctx *evalCtx) sqltypes.Value {
	snap := ctx.snap
	if idx == nil || er.empty {
		return sqltypes.Null
	}
	// Locate colPos inside the index tuple so the key component can be
	// decoded; colKind materialises the decoded value in the column's
	// declared kind (stored values were coerced to it).
	slot := -1
	for i, p := range idx.pos {
		if p == colPos {
			slot = i
			break
		}
	}
	colKind := td.schema.Cols[colPos].Type.Kind
	best := sqltypes.Null
	reads := int64(0)
	defer func() { td.heapReads.Add(reads) }()
	visit := func(rows []*rowSlot) bool {
		for _, r := range rows {
			vals, live := r.fetch(snap)
			if !live {
				continue
			}
			reads++
			if vals[colPos].IsNull() {
				continue
			}
			v := vals[colPos]
			if best.IsNull() {
				best = v
				continue
			}
			if c, ok := sqltypes.Compare(v, best); ok && ((desc && c > 0) || (!desc && c < 0)) {
				best = v
			}
		}
		return best.IsNull() // stop after the first key with a value
	}
	// visitKey serves one key: decoded when possible, fetched when not.
	// A cancellation mid-walk stops the scan; the sticky interrupt error
	// is picked up by the caller's checkpoint right after the walk.
	visitKey := func(k string, rows []*rowSlot) bool {
		if ctx.intr.check() != nil {
			return false
		}
		if slot >= 0 {
			if v, ok := decodeKeyColumn(k, slot, colKind); ok {
				if v.IsNull() {
					return true // keep scanning past the NULL key
				}
				best = v
				return false
			}
		}
		return visit(rows)
	}
	if er.useLookup {
		rows := lookupVisible(td, idx, er.lookup, snap)
		if len(rows) > 0 {
			visitKey(er.lookup, rows)
		}
		return best
	}
	scanVisibleRange(td, idx, er.lo, er.hi, desc, snap, visitKey)
	return best
}
