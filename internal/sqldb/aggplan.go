package sqldb

import "repro/internal/sqltypes"

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
//	                         read the first live row whose value is not
//	                         NULL: one heap read when the path excludes
//	                         NULLs.
//
// Both walk the key range the statement's tableScan resolved, the one a
// row-fetching scan walks, under the same rule (planner.go): a
// residual-free path's range is the predicate, holding exactly the
// matching rows, strict bounds included. A GROUP BY, any other
// aggregate, and an aggregate with no path (an unfiltered COUNT(*)
// included) fold fetched rows (agg.go).

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
	if path == nil || !path.residualFree {
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

// runIndexOnlyAgg answers the planned aggregate items from scan's key
// range. COUNT items read zero heap rows; MIN/MAX read the rows up to
// the first non-NULL value. Governance errors (cancellation, deadline)
// surface immediately.
func (db *DB) runIndexOnlyAgg(plan *selectPlan, ctx *evalCtx, scan tableScan) (*Rows, error) {
	s := plan.stmt
	var err error
	count := int64(-1)
	countRows := func() int64 {
		if count < 0 {
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
	out := &Rows{Columns: columns, Kinds: kinds}
	if s.Offset == 0 && s.Limit != 0 {
		out.Data = [][]sqltypes.Value{vals}
	}
	backfillKinds(out)
	return out, nil
}

// boundaryAgg finds MIN (desc=false) or MAX (desc=true) of colPos —
// one of the path's columns (pathServesMinMax) — by walking scan's key
// range in order: the first live row whose colPos value is not NULL
// holds the answer. Rows under one key share their colPos value, so a
// NULL skips the rest of its key.
func boundaryAgg(scan *tableScan, colPos int, desc bool, ctx *evalCtx) (sqltypes.Value, error) {
	best := sqltypes.Null
	err := scan.keys(ctx, desc, func(_ string, rows []*rowSlot) bool {
		for _, r := range rows {
			if vals, live := r.fetch(ctx.snap); live {
				scan.td.heapReads.Add(1)
				best = vals[colPos]
				return best.IsNull()
			}
		}
		return true
	})
	return best, err
}
