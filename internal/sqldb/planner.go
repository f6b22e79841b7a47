package sqldb

import (
	"cmp"
	"strings"

	"repro/internal/sqltypes"
)

// The access-path planner.
//
// planAccess inspects the WHERE conjuncts (and, for single-table
// queries, the ORDER BY) of a bound SELECT and picks how the executor
// reaches the first FROM table's rows. Indexes may be declared over one
// column or a tuple (composite); matching is leading-prefix based:
//
//	full-tuple equality                      → O(log n) point lookup
//	equality on a leading prefix, plus an
//	optional range / IS [NOT] NULL predicate
//	on the next column                       → prefix/range scan
//	ORDER BY a leading prefix of an index
//	(after any equality columns)             → in-order scan (no sort)
//	otherwise                                → heap scan
//
// PRIMARY KEY and UNIQUE constraint indexes are candidates like any
// CREATE INDEX (index.go: there is one index structure).
//
// The chosen path is stored inside the cached selectPlan, so prepared
// statements re-run it without re-analysis; the schema epoch invalidates
// plans when indexes are created or dropped. Probe values are aligned
// with the indexed column's type at execution time (parameters are
// unknown at plan time); when a probe fails to evaluate or align the
// executor falls back to a heap scan with identical semantics.
//
// The planner also records whether the path consumes the WHERE clause
// exactly (residualFree): every conjunct claimed by exactly one used
// predicate slot. A residual-free path's key range is the predicate: an
// aligned probe's keys are exact (key.go) and a posting is visible at a
// snapshot exactly when a visible version of its row has that key
// (idxEntry), so the range holds exactly the matching rows and nothing
// re-tests them — neither the row executor (tableScan) nor the
// index-only aggregates (aggplan.go). Everything else — a path that
// leaves conjuncts, and the heap fallback — applies the full WHERE.
// TestPlannerPropertyIndexVsScan, TestPlannerPropertyDML,
// FuzzIndexPathMatchesScan, TestFarKeysMatchReference and
// TestReferenceEvaluatorProperty pin the rule against forced scans and
// the reference evaluator.

// accessPathKind enumerates the executor strategies.
type accessPathKind uint8

const (
	pathOrderedEq    accessPathKind = iota // point lookup (full tuple)
	pathOrderedRange                       // prefix + range scan
	pathOrderedNull                        // prefix + IS NULL / IS NOT NULL
	pathOrderedScan                        // full in-order scan (ORDER BY only)
)

// accessPath is the planner's decision for one table. All expression
// fields are row-independent (literals, parameters, constant function
// calls) and are evaluated once per execution.
type accessPath struct {
	kind   accessPathKind
	table  string   // table name (diagnostics)
	idx    string   // index name (key into tableData.indexes)
	cols   []string // index columns, upper-cased, index order
	colPos []int    // schema positions, parallel to cols

	nEq int    // leading columns constrained by equality
	eqs []Expr // equality probes, len nEq

	lo, hi         Expr // range bounds on cols[nEq]; nil = open end
	loIncl, hiIncl bool // bound strictness as written
	notNull        bool // pathOrderedNull: true = IS NOT NULL

	desc             bool // scan direction (ordered paths)
	satisfiesOrderBy bool // rows arrive in ORDER BY order; skip the sort

	// residualFree records that the WHERE clause is entirely and exactly
	// consumed by this path's predicate slots: once its probes resolve,
	// the key range alone decides which rows match.
	residualFree bool
}

// String renders the path for EXPLAIN-style introspection and tests.
// Single-column paths keep the PR-2 format ("range(T.N)"); composite
// paths join the used columns with '+' ("eq(T.A+B)").
func (p *accessPath) String() string {
	if p == nil {
		return "full-scan"
	}
	used := p.cols[:p.nEq]
	switch p.kind {
	case pathOrderedRange:
		if p.lo != nil || p.hi != nil {
			used = p.cols[:p.nEq+1]
		}
	case pathOrderedNull:
		used = p.cols[:p.nEq+1]
	case pathOrderedScan:
		used = p.cols
	}
	target := p.table + "." + strings.Join(used, "+")
	suffix := ""
	if p.satisfiesOrderBy {
		suffix = " order"
		if p.desc {
			suffix = " order-desc"
		}
	}
	switch p.kind {
	case pathOrderedEq:
		return "eq(" + target + ")" + suffix
	case pathOrderedRange:
		if p.lo == nil && p.hi == nil {
			return "prefix(" + target + ")" + suffix
		}
		return "range(" + target + ")" + suffix
	case pathOrderedNull:
		if p.notNull {
			return "not-null(" + target + ")" + suffix
		}
		return "null(" + target + ")" + suffix
	case pathOrderedScan:
		return "ordered-scan(" + target + ")" + suffix
	}
	return "full-scan"
}

// colPred accumulates the indexable predicates on one column, plus how
// many conjuncts claimed each slot (first claim keeps the expression;
// extra claims make the column residual-bearing).
type colPred struct {
	eq  Expr
	eqN int

	lo     Expr
	loIncl bool
	loN    int

	hi     Expr
	hiIncl bool
	hiN    int

	isNull    bool
	isNotNull bool
	nullN     int

	// betweenPair marks lo+hi as claimed together by one BETWEEN
	// conjunct (they count as one conjunct in the residual-free sum).
	betweenPair bool
}

// predSet is the WHERE analysis: per-column predicates plus conjunct
// accounting for the residual-free decision.
type predSet struct {
	byCol     map[string]*colPred
	conjuncts int // top-level AND conjuncts in WHERE
	unclaimed int // conjuncts no colPred slot absorbed
}

// planAccess picks the access path for the first FROM table of a bound
// SELECT (or for a DML statement's target table). orderBy/orderBound
// are consulted only when single is true — ORDER BY satisfaction makes
// no sense once rows are joined or grouped.
func planAccess(td *tableData, alias string, where Expr, orderBy []OrderItem, orderBound []bool, aggregated, single bool) *accessPath {
	preds := collectColPreds(where, alias, td.schema)

	// Score the candidates per index, preferring the path that bounds the
	// most leading columns — the equality prefix plus the scan column
	// when a range bound narrows it — then the cheapest shape: equality,
	// bounded range, half range, null test, bare prefix. Indexes are
	// visited in name order so the choice is deterministic.
	var best *accessPath
	bestScore := 0
	for _, idx := range td.indexes {
		cols := idx.cols

		nEq := 0
		var eqs []Expr
		for nEq < len(cols) {
			p := preds.byCol[cols[nEq]]
			if p == nil || p.eq == nil {
				break
			}
			eqs = append(eqs, p.eq)
			nEq++
		}

		var cand *accessPath
		score := 0
		switch {
		case nEq == len(cols):
			cand = &accessPath{kind: pathOrderedEq, nEq: nEq, eqs: eqs}
			score = nEq*10 + 4
		default:
			p := preds.byCol[cols[nEq]]
			switch {
			case p != nil && p.lo != nil && p.hi != nil:
				cand = &accessPath{kind: pathOrderedRange, nEq: nEq, eqs: eqs,
					lo: p.lo, hi: p.hi, loIncl: p.loIncl, hiIncl: p.hiIncl}
				score = (nEq+1)*10 + 3
			case p != nil && (p.lo != nil || p.hi != nil):
				cand = &accessPath{kind: pathOrderedRange, nEq: nEq, eqs: eqs,
					lo: p.lo, hi: p.hi, loIncl: p.loIncl, hiIncl: p.hiIncl}
				score = (nEq+1)*10 + 2
			case p != nil && (p.isNull || p.isNotNull):
				cand = &accessPath{kind: pathOrderedNull, nEq: nEq, eqs: eqs, notNull: p.isNotNull}
				score = nEq*10 + 1
			case nEq > 0:
				// Bare prefix: equality on the leading columns only.
				cand = &accessPath{kind: pathOrderedRange, nEq: nEq, eqs: eqs}
				score = nEq * 10
			}
		}
		if cand != nil && score > bestScore {
			cand.table = td.schema.Name
			cand.idx = idx.name
			cand.cols = cols
			cand.colPos = idx.pos
			cand.residualFree = preds.residualFree(cand)
			best = cand
			bestScore = score
		}
	}

	// ORDER BY satisfaction: the scanning paths emit rows sorted by the
	// index columns after the equality prefix (the prefix is constant),
	// so an ORDER BY whose keys — skipping equality-constant columns —
	// walk the index columns in order, all in one direction, needs no
	// sort. With no predicate path at all, a full in-order scan of an
	// index whose leading columns match the ORDER BY replaces scan+sort.
	if single && !aggregated && len(orderBy) > 0 {
		if ocols, odesc, ok := orderByColumns(orderBy, orderBound, alias, td.schema); ok {
			switch {
			case best != nil:
				if pathSatisfiesOrder(best, ocols) {
					if best.kind == pathOrderedEq {
						// Every candidate shares the ORDER BY columns'
						// values, so any emission order is sorted.
						best.satisfiesOrderBy = true
					} else {
						best.desc = odesc
						best.satisfiesOrderBy = true
					}
				}
			case best == nil:
				for _, idx := range td.indexes {
					cols := idx.cols
					if !isPrefix(ocols, cols) {
						continue
					}
					best = &accessPath{
						kind:             pathOrderedScan,
						table:            td.schema.Name,
						idx:              idx.name,
						cols:             cols,
						colPos:           idx.pos,
						desc:             odesc,
						satisfiesOrderBy: true,
					}
					break
				}
			}
		}
	}
	return best
}

// pathSatisfiesOrder reports whether the path's emission order sorts by
// ocols: columns inside the equality prefix are constant and skippable,
// the rest must walk the index columns in order starting at the scan
// column.
func pathSatisfiesOrder(p *accessPath, ocols []string) bool {
	inEq := func(c string) bool {
		for _, e := range p.cols[:p.nEq] {
			if e == c {
				return true
			}
		}
		return false
	}
	if p.kind == pathOrderedEq {
		for _, oc := range ocols {
			if !inEq(oc) {
				return false
			}
		}
		return true
	}
	j := p.nEq
	for _, oc := range ocols {
		if inEq(oc) {
			continue
		}
		if j < len(p.cols) && p.cols[j] == oc {
			j++
			continue
		}
		return false
	}
	return true
}

// isPrefix reports whether want is a leading prefix of cols.
func isPrefix(want, cols []string) bool {
	if len(want) > len(cols) {
		return false
	}
	for i, w := range want {
		if cols[i] != w {
			return false
		}
	}
	return true
}

// orderByColumns recognises an ORDER BY list made of plain references to
// this table's columns, all sorting in one direction.
func orderByColumns(orderBy []OrderItem, orderBound []bool, alias string, schema *TableSchema) ([]string, bool, bool) {
	if len(orderBound) != len(orderBy) {
		return nil, false, false
	}
	cols := make([]string, len(orderBy))
	desc := orderBy[0].Desc
	for i, o := range orderBy {
		if !orderBound[i] || o.Desc != desc {
			return nil, false, false
		}
		col, ok := orderByColumn(o.Expr, alias, schema)
		if !ok {
			return nil, false, false
		}
		cols[i] = col
	}
	return cols, desc, true
}

// orderByColumn recognises an ORDER BY key that is a plain reference to
// one of this table's columns.
func orderByColumn(e Expr, alias string, schema *TableSchema) (string, bool) {
	cr, ok := e.(*ColRef)
	if !ok {
		return "", false
	}
	if cr.Table != "" && !strings.EqualFold(cr.Table, alias) {
		return "", false
	}
	col := strings.ToUpper(cr.Col)
	if schema.ColIndex(col) < 0 {
		return "", false
	}
	return col, true
}

// residualFree reports whether the path consumes the entire WHERE
// clause exactly: no unclaimed conjuncts, every claimed predicate slot
// used by the path, and no slot claimed more than once (first-claim-wins
// keeps only one expression, so a second claim needs the residual).
func (ps *predSet) residualFree(p *accessPath) bool {
	if ps.unclaimed > 0 {
		return false
	}
	used := 0
	for col, cp := range ps.byCol {
		claims := cp.eqN + cp.loN + cp.hiN + cp.nullN
		if claims == 0 {
			continue
		}
		slot := -1 // index-column position of col in the path, if any
		for i, pc := range p.cols {
			if pc == col {
				slot = i
				break
			}
		}
		switch {
		case slot >= 0 && slot < p.nEq:
			// Equality column: only its eq slot is consumed.
			if cp.eqN != 1 || cp.loN+cp.hiN+cp.nullN != 0 {
				return false
			}
		case slot == p.nEq && p.kind == pathOrderedRange:
			if cp.eqN != 0 || cp.nullN != 0 {
				return false
			}
			if (cp.loN > 0) != (p.lo != nil) || (cp.hiN > 0) != (p.hi != nil) {
				return false
			}
			if cp.loN > 1 || cp.hiN > 1 {
				return false
			}
		case slot == p.nEq && p.kind == pathOrderedNull:
			if cp.eqN+cp.loN+cp.hiN != 0 || cp.nullN != 1 {
				return false
			}
		default:
			return false // predicate on a column the path does not serve
		}
		used += cp.eqN + cp.loN + cp.hiN + cp.nullN
	}
	// A BETWEEN conjunct claims both range slots; count it once.
	if p.kind == pathOrderedRange && p.nEq < len(p.cols) {
		if cp := ps.byCol[p.cols[p.nEq]]; cp != nil && cp.betweenPair {
			used--
		}
	}
	return used == ps.conjuncts
}

// collectColPreds walks the top-level AND tree gathering indexable
// predicates per column of the target table, counting conjuncts for the
// residual-free decision.
func collectColPreds(where Expr, alias string, schema *TableSchema) *predSet {
	ps := &predSet{byCol: make(map[string]*colPred)}
	at := func(col string) *colPred {
		p, ok := ps.byCol[col]
		if !ok {
			p = &colPred{}
			ps.byCol[col] = p
		}
		return p
	}
	colOf := func(e Expr) (string, bool) {
		cr, ok := e.(*ColRef)
		if !ok {
			return "", false
		}
		if cr.Table != "" && !strings.EqualFold(cr.Table, alias) {
			return "", false
		}
		col := strings.ToUpper(cr.Col)
		if schema.ColIndex(col) < 0 {
			return "", false
		}
		return col, true
	}
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case *Binary:
			if n.Op == "AND" {
				walk(n.L)
				walk(n.R)
				return
			}
			ps.conjuncts++
			col, l2r := colOf(n.L)
			val := n.R
			op := n.Op
			if !l2r {
				var ok bool
				col, ok = colOf(n.R)
				if !ok {
					ps.unclaimed++
					return
				}
				val = n.L
				// Flip the comparison for "const op col".
				switch op {
				case "<":
					op = ">"
				case "<=":
					op = ">="
				case ">":
					op = "<"
				case ">=":
					op = "<="
				}
			}
			if !isRowIndependent(val) {
				ps.unclaimed++
				return
			}
			p := at(col)
			switch op {
			case "=":
				if p.eq == nil {
					p.eq = val
				}
				p.eqN++
			case ">", ">=":
				if p.lo == nil {
					p.lo = val
					p.loIncl = op == ">="
				}
				p.loN++
			case "<", "<=":
				if p.hi == nil {
					p.hi = val
					p.hiIncl = op == "<="
				}
				p.hiN++
			default:
				ps.unclaimed++
			}
		case *BetweenExpr:
			ps.conjuncts++
			if n.Not {
				ps.unclaimed++
				return
			}
			col, ok := colOf(n.X)
			if !ok || !isRowIndependent(n.Lo) || !isRowIndependent(n.Hi) {
				ps.unclaimed++
				return
			}
			p := at(col)
			if p.lo == nil && p.hi == nil {
				p.betweenPair = true
			}
			if p.lo == nil {
				p.lo = n.Lo
				p.loIncl = true
			}
			if p.hi == nil {
				p.hi = n.Hi
				p.hiIncl = true
			}
			p.loN++
			p.hiN++
		case *IsNullExpr:
			ps.conjuncts++
			if col, ok := colOf(n.X); ok {
				p := at(col)
				if n.Not {
					p.isNotNull = true
				} else {
					p.isNull = true
				}
				p.nullN++
			} else {
				ps.unclaimed++
			}
		default:
			ps.conjuncts++
			ps.unclaimed++
		}
	}
	if where != nil {
		walk(where)
	}
	return ps
}

// isRowIndependent reports whether e can be evaluated without a row:
// no column references, no aggregates. Such expressions (literals,
// parameters, DLVALUE(?), NOW()) are usable as index probes.
func isRowIndependent(e Expr) bool {
	ok := true
	walkExpr(e, func(x Expr) bool {
		switch n := x.(type) {
		case *ColRef:
			ok = false
			return false
		case *FuncCall:
			if isAggregate(n.Name) {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// evalProbe evaluates a row-independent probe expression.
func evalProbe(e Expr, ctx *evalCtx) (sqltypes.Value, error) {
	saved := ctx.vals
	ctx.vals = nil
	v, err := evalExpr(e, ctx)
	ctx.vals = saved
	return v, err
}

// keyRangeHiSentinel is appended to a prefix to form the upper bound of
// "every key extending this prefix": every canonical encoding starts
// with a class tag in 0x01..0x07, so prefix+0xFF is greater than every
// continuation of prefix and smaller than every key diverging above it.
const keyRangeHiSentinel = "\xff"

// eqPrefix evaluates and aligns the path's equality probes into a
// concatenated key prefix. nullProbe means a probe was NULL (the path
// matches no rows, and the prefix is meaningless); ok=false means a
// probe failed to evaluate or align and the caller must fall back to
// the ordinary heap-scan semantics. Every probe is evaluated and
// aligned even after a NULL one: the heap scan's AND goes on past an
// UNKNOWN conjunct, so a later probe's failure is the heap's answer.
// span reports that the last probe spans keys (appendProbe). Equal
// values under a span are not one value, so a span serves only a
// full-tuple path that no ORDER BY relies on being constant.
func eqPrefix(td *tableData, path *accessPath, ctx *evalCtx) (prefix []byte, span, nullProbe, ok bool) {
	for i := 0; i < path.nEq; i++ {
		v, err := evalProbe(path.eqs[i], ctx)
		if err != nil {
			return nil, false, false, false
		}
		if v.IsNull() {
			nullProbe = true // col = NULL is UNKNOWN: no rows
			continue
		}
		if span {
			return nil, false, false, false
		}
		prefix, span, ok = appendProbe(prefix, td.schema.Cols[path.colPos[i]].Type.Kind, v)
		if !ok || span && (path.kind != pathOrderedEq || path.satisfiesOrderBy) {
			return nil, false, false, false
		}
	}
	return prefix, span, nullProbe, true
}

// pathBound is one evaluated range bound on the path's scan column: the
// first and last keys equal to it — one key unless the probe spans
// (appendProbe).
type pathBound struct {
	first, last string // prefix + the bound's encoding
	null        bool   // the bound evaluated to NULL: the range matches nothing
}

// encodePathBound evaluates and aligns one range bound on the path's
// scan column (cols[nEq]) and appends its encoding to a copy of
// prefix; an absent bound (e == nil) is the zero pathBound. ok=false
// (evaluation or alignment failure) forces the heap-scan fallback.
func encodePathBound(td *tableData, path *accessPath, prefix []byte, e Expr, ctx *evalCtx) (b pathBound, ok bool) {
	if e == nil {
		return b, true
	}
	v, err := evalProbe(e, ctx)
	if err != nil {
		return b, false
	}
	if v.IsNull() {
		return pathBound{null: true}, true
	}
	k, span, okp := appendProbe(append([]byte(nil), prefix...), td.schema.Cols[path.colPos[path.nEq]].Type.Kind, v)
	if !okp {
		return b, false
	}
	b.first = string(k)
	b.last = b.first
	if span {
		b.last = spanLast(b.first)
	}
	return b, true
}

// prefixUpper bounds a scan to keys extending prefix; nil when the
// prefix is empty (single-column ranges scan to the index end).
func prefixUpper(prefix []byte) *keyBound {
	if len(prefix) == 0 {
		return nil
	}
	return &keyBound{key: string(prefix) + keyRangeHiSentinel, incl: true}
}

// keyRange is a path's probes resolved into a key window over its index.
type keyRange struct {
	useLookup bool   // point lookup of lookup instead of a scan
	lookup    string // full-tuple key (useLookup)
	lo, hi    *keyBound
	empty     bool // a probe was NULL: no rows match
}

// pathKeyRange resolves the path's probes into the key window the
// executors walk. ok=false means a probe failed to evaluate or align
// with the indexed column's type, and the caller must fall back to the
// heap scan, which preserves exact comparison semantics. An aligned
// probe's keys are exact (key.go), so strict bounds and the NULL
// boundary key are excluded from the window directly.
func pathKeyRange(td *tableData, path *accessPath, ctx *evalCtx) (keyRange, bool) {
	var kr keyRange
	prefix, span, nullProbe, ok := eqPrefix(td, path, ctx)
	if !ok {
		return kr, false
	}
	// Both range bounds are evaluated before any probe decides anything,
	// so an evaluation or alignment error always reaches the fallback,
	// where the WHERE surfaces it with full-scan semantics.
	var lo, hi pathBound
	if path.kind == pathOrderedRange {
		var loOK, hiOK bool
		lo, loOK = encodePathBound(td, path, prefix, path.lo, ctx)
		hi, hiOK = encodePathBound(td, path, prefix, path.hi, ctx)
		if !loOK || !hiOK {
			return kr, false
		}
	}
	if nullProbe || lo.null || hi.null {
		kr.empty = true // comparison with NULL matches nothing
		return kr, true
	}
	// pastNull skips the NULL key of the scan column and, with the
	// sentinel, its composite continuations.
	pastNull := func() *keyBound {
		return &keyBound{key: string(prefix) + nullKey + keyRangeHiSentinel, incl: false}
	}

	switch path.kind {
	case pathOrderedEq:
		if span {
			kr.lo = &keyBound{key: string(prefix), incl: true}
			kr.hi = &keyBound{key: spanLast(string(prefix)), incl: true}
			break
		}
		kr.useLookup = true
		kr.lookup = string(prefix)

	case pathOrderedRange:
		switch {
		case path.lo != nil && path.loIncl:
			kr.lo = &keyBound{key: lo.first, incl: true}
		case path.lo != nil:
			kr.lo = &keyBound{key: lo.last + keyRangeHiSentinel, incl: false}
		case path.hi != nil:
			// Half range open below still excludes NULLs in the scan
			// column: col < x is UNKNOWN for NULL.
			kr.lo = pastNull()
		default:
			// Bare prefix: everything extending the equality columns,
			// NULLs in trailing columns included.
			kr.lo = &keyBound{key: string(prefix), incl: true}
		}
		switch {
		case path.hi != nil && path.hiIncl:
			kr.hi = &keyBound{key: hi.last + keyRangeHiSentinel, incl: true}
		case path.hi != nil:
			kr.hi = &keyBound{key: hi.first, incl: false}
		default:
			kr.hi = prefixUpper(prefix)
		}

	case pathOrderedNull:
		if path.notNull {
			kr.lo, kr.hi = pastNull(), prefixUpper(prefix)
		} else {
			// All NULLs in the scan column share the prefix+NULL key;
			// trailing index columns extend it, so scan the NULL-key
			// continuation range (degenerates to the exact key when the
			// index ends at the scan column).
			kr.lo = &keyBound{key: string(prefix) + nullKey, incl: true}
			kr.hi = &keyBound{key: string(prefix) + nullKey + keyRangeHiSentinel, incl: true}
		}

	case pathOrderedScan:
		// The whole index, in order.
	}
	return kr, true
}

// tableScan is one table's row stream, resolved for one execution: the
// planned access path when it serves this execution, else the heap in
// insertion order. Every statement-level reader of a table — the SELECT
// source, a join's driving table, UPDATE/DELETE row matching — goes
// through it, so the path-else-heap choice, the per-row interrupt poll
// and the decision of which predicate still needs testing are made once.
type tableScan struct {
	td    *tableData
	path  *accessPath // nil: heap scan
	idx   *orderedIndex
	kr    keyRange
	where Expr // what the scan still tests per row; nil: nothing
}

// openScan resolves path's probes against this execution's parameters
// and decides what the scan still has to test of where, the statement's
// predicate on this table (nil: none). A path that cannot serve the
// execution — none planned, SetFullScanOnly, or a probe that fails to
// evaluate or align (see pathKeyRange) — leaves the heap scan, so
// whether rows will arrive in the path's order is known before the
// first one is emitted. A resolved residual-free path's key range is
// the predicate and the scan tests nothing; the heap scan and a path
// that leaves conjuncts test all of where.
func (db *DB) openScan(td *tableData, path *accessPath, where Expr, ctx *evalCtx) tableScan {
	ts := tableScan{td: td, where: where}
	if path == nil || db.fullScanOnly {
		return ts
	}
	idx := td.index(path.idx)
	if idx == nil {
		return ts
	}
	kr, ok := pathKeyRange(td, path, ctx)
	if !ok {
		return ts
	}
	ts.path, ts.idx, ts.kr = path, idx, kr
	if path.residualFree {
		ts.where = nil
	}
	return ts
}

// keys walks the resolved key window — one point lookup, or a batched
// range scan, in reverse index order when desc — handing f each key with
// its rows visible at ctx.snap until f returns false. Every key is an
// interrupt checkpoint; the returned error is the interrupt's. Only a
// path scan has keys: callers walk when ts.path != nil.
func (ts *tableScan) keys(ctx *evalCtx, desc bool, f func(k string, rows []*rowSlot) bool) error {
	var err error
	visit := func(k string, rows []*rowSlot) bool {
		if err = ctx.intr.check(); err != nil {
			return false
		}
		return f(k, rows)
	}
	switch {
	case ts.kr.empty:
	case ts.kr.useLookup:
		if rows := lookupVisible(nil, ts.td, ts.idx, ts.kr.lookup, ctx.snap); len(rows) > 0 {
			visit(ts.kr.lookup, rows)
		}
	default:
		scanVisibleRange(ts.td, ts.idx, ts.kr.lo, ts.kr.hi, desc, ctx.snap, visit)
	}
	return err
}

// run visits, in scan order, the rows visible at ctx.snap that satisfy
// the statement's predicate until visit returns false: the rows of the
// resolved key range, tested against ts.where when openScan left one.
// The returned error is the scan's own — a governance failure or a
// WHERE evaluation error; a visitor that stops on an error of its own
// keeps it.
func (ts *tableScan) run(ctx *evalCtx, visit func(s *rowSlot, vals []sqltypes.Value) bool) error {
	var err error
	each := func(s *rowSlot, vals []sqltypes.Value) bool {
		if err = ctx.intr.check(); err != nil {
			return false
		}
		var ok bool
		if ok, err = ctx.holds(ts.where, vals); !ok {
			return err == nil
		}
		return visit(s, vals)
	}
	if ts.path == nil {
		ts.td.scan(ctx.snap, each)
		return err
	}
	reads := int64(0)
	defer func() { ts.td.heapReads.Add(reads) }()
	walkErr := ts.keys(ctx, ts.path.desc, func(_ string, rows []*rowSlot) bool {
		for _, r := range rows {
			vals, live := r.fetch(ctx.snap)
			if !live {
				continue
			}
			reads++
			if !each(r, vals) {
				return false
			}
		}
		return true
	})
	return cmp.Or(walkErr, err)
}
