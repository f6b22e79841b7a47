package sqldb

import "repro/internal/sqltypes"

// Index-only COUNT.
//
// A single-table aggregate query whose WHERE clause is consumed exactly
// by the access path (accessPath.residualFree) and whose projection is
// made only of COUNT(*) and COUNT(col) calls the path can serve is
// answered from the index without materialising candidate rows: the
// count is the sum of the row-ID list lengths under the path's key
// range, with zero heap reads.
//
// It walks the key range the statement's tableScan resolved, the one a
// row-fetching scan walks, under the same rule (planner.go): a
// residual-free path's range is the predicate, holding exactly the
// matching rows, strict bounds included. A GROUP BY, any other
// aggregate (MIN and MAX included), and an aggregate with no path (an
// unfiltered COUNT(*) included) fold fetched rows (agg.go).

// planIndexOnlyAgg decides whether the bound SELECT qualifies for
// index-only aggregation and records it in plan.indexOnly. Called once
// per plan build; the schema epoch invalidates it with the rest of the
// plan.
func planIndexOnlyAgg(plan *selectPlan) {
	s := plan.stmt
	if len(plan.tables) != 1 || !plan.aggregated ||
		len(s.GroupBy) > 0 || s.Having != nil || s.Distinct || len(s.OrderBy) > 0 {
		return
	}
	path := plan.path
	if path == nil || !path.residualFree {
		return
	}
	for _, e := range plan.proj {
		fc, ok := e.(*FuncCall)
		if !ok || fc.Name != "COUNT" {
			return
		}
		if fc.Star {
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
		// COUNT(col) counts non-NULL values; equal to the key count only
		// when the path guarantees col is non-NULL in every match.
		if !pathGuaranteesNotNull(path, cr.Index) {
			return
		}
	}
	plan.indexOnly = true
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

// runIndexOnlyAgg answers the planned COUNTs from scan's key range,
// counted once. A posting of a row with one version is counted by its
// stamps alone; only a row written since the last vacuum has its values
// read, to recheck its key, and counts as a heap read. Governance
// errors (cancellation, deadline) surface immediately.
func (db *DB) runIndexOnlyAgg(plan *selectPlan, ctx *evalCtx, scan tableScan) (*Rows, error) {
	s := plan.stmt
	var count int64
	rechecks, err := scan.keys(ctx, false, func(_ string, rows []visibleRow) bool {
		count += int64(len(rows))
		return true
	})
	scan.td.heapReads.Add(rechecks)
	if err != nil {
		return nil, err
	}
	vals := make([]sqltypes.Value, len(plan.proj))
	for i := range vals {
		vals[i] = sqltypes.NewInt(count)
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
