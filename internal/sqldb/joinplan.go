package sqldb

import (
	"sort"
	"strings"

	"repro/internal/sqltypes"
)

// Index nested-loop joins.
//
// The executor joins FROM items left to right, and historically scanned
// the whole inner table once per accumulated outer row — a cross
// product narrowed only afterwards by the ON/WHERE predicates. The join
// planner recognises equality conjuncts of the form
//
//	inner.col = <expression over earlier tables (or constants)>
//
// in the joining ON condition and in the WHERE clause, matches them
// against the inner table's indexes (longest leading prefix — a join
// onto a declared key probes its constraint index), and records a
// joinProbe in the cached plan. At
// execution each outer row evaluates the outer-side expressions and
// probes the index instead of scanning — O(probe) per outer row instead
// of O(|inner|). Probes only narrow the candidate set: the ON condition
// is still evaluated on every candidate and the WHERE clause is applied
// after the join, so results are identical to the scanning path (which
// remains both the fallback when a probe cannot be aligned with the
// indexed column's type and the SetFullScanOnly oracle).
//
// LEFT JOIN keeps its semantics: a probe that finds no candidates
// produces the NULL-extended row, exactly as an exhaustive scan with no
// ON match would. WHERE-derived probes are safe there too — an
// equality conjunct on an inner column evaluates UNKNOWN on the
// NULL-extended row, so the post-join WHERE drops exactly the rows the
// scanning path would drop.
//
// When equi-join conjuncts exist but NO index covers them, the planner
// records a hash-join fallback instead (hashJoinPlan below): the
// executor hashes the probed table once on the canonical join-key
// encoding and probes the map per outer row, replacing the cross
// product. Either way the first table drives the outer loop.
type joinProbe struct {
	idx    string   // index name on the probed (inner) table
	cols   []string // index columns
	colPos []int    // schema positions, parallel to cols
	nEq    int      // leading columns with join-equality probes
	eqs    []Expr   // outer-side expressions, len nEq
}

// hashJoinPlan is the hash-join fallback for a probed table whose
// equi-join conjuncts no index serves: at execution the table's rows
// are hashed once on the canonical encoding of the join columns
// (buildJoinHash) and each outer row probes the map (probeJoinHash) —
// O(|inner| + |outer|·probe) instead of the cross product's
// O(|inner|·|outer|). The ON condition is still evaluated on every
// candidate and the WHERE applied after the join, so results are
// identical to the scanning path — including LEFT JOIN NULL extension
// and the WHERE-derived probe argument spelled out above for index
// probes.
type hashJoinPlan struct {
	cols   []string        // join columns on the probed table, sorted
	colPos []int           // schema positions, parallel to cols
	kinds  []sqltypes.Kind // declared column kinds, for probe alignment
	eqs    []Expr          // outer-side expressions, parallel to cols
}

// planJoinProbes fills plan.joins (index probes, one per FROM item),
// plus the hash-join fallbacks (plan.hashJoins) wherever equi-conjuncts
// exist but no index covers them. Runs at plan build; the schema epoch
// invalidates it with the rest of the plan.
func planJoinProbes(plan *selectPlan) {
	s := plan.stmt
	if len(plan.tables) < 2 {
		return
	}
	planJoinReads(plan)
	plan.joins = make([]*joinProbe, len(plan.tables))
	plan.hashJoins = make([]*hashJoinPlan, len(plan.tables))
	for i := 1; i < len(plan.tables); i++ {
		t := plan.tables[i]
		innerLo, innerHi := t.start, t.start+len(t.schema.Cols)
		eqs := make(map[string]Expr)
		outerOK := func(e Expr) bool { return exprRefsWithin(e, 0, innerLo) }
		collectJoinEqs(s.From[i].JoinCond, t.schema, innerLo, innerHi, outerOK, eqs)
		collectJoinEqs(s.Where, t.schema, innerLo, innerHi, outerOK, eqs)
		plan.joins[i] = bestJoinProbe(t.data, eqs)
		if plan.joins[i] == nil {
			plan.hashJoins[i] = newHashJoinPlan(t.schema, eqs)
		}
	}
}

// planJoinReads records in each FROM table's reads the columns some
// bound expression of the statement references: the projection, ORDER
// BY, WHERE, HAVING, GROUP BY and every JOIN condition (which also hold
// every probe and hash-key expression). Those are the only columns the
// join copies into its row; the others stay NULL, and nothing reads
// them.
func planJoinReads(plan *selectPlan) {
	s := plan.stmt
	read := make([]bool, len(plan.env.cols))
	exprs := append(append([]Expr{s.Where, s.Having}, plan.proj...), s.GroupBy...)
	for _, o := range s.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, fi := range s.From {
		exprs = append(exprs, fi.JoinCond)
	}
	for _, e := range exprs {
		walkExpr(e, func(x Expr) bool {
			if cr, ok := x.(*ColRef); ok && cr.Index >= 0 {
				read[cr.Index] = true
			}
			return true
		})
	}
	for i := range plan.tables {
		t := &plan.tables[i]
		for c := range t.schema.Cols {
			if read[t.start+c] {
				t.reads = append(t.reads, c)
			}
		}
	}
}

// newHashJoinPlan builds the hash-join fallback over every collected
// equi-conjunct (more columns mean a more selective key). Columns are
// sorted so the plan — and its AccessPath rendering — is deterministic.
func newHashJoinPlan(schema *TableSchema, eqs map[string]Expr) *hashJoinPlan {
	if len(eqs) == 0 {
		return nil
	}
	cols := make([]string, 0, len(eqs))
	for c := range eqs {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	hp := &hashJoinPlan{cols: cols}
	for _, c := range cols {
		ci := schema.ColIndex(c)
		hp.colPos = append(hp.colPos, ci)
		hp.kinds = append(hp.kinds, schema.Cols[ci].Type.Kind)
		hp.eqs = append(hp.eqs, eqs[c])
	}
	return hp
}

// String renders the hash-join key for EXPLAIN-style introspection.
func (hp *hashJoinPlan) String() string {
	return strings.Join(hp.cols, "+")
}

// buildJoinHash hashes the probed table's live rows by the canonical
// encoding of the join columns. Rows with a NULL join column never
// match any probe (the equality is UNKNOWN) and are left out. The
// stored row slices are referenced, not copied — the join row assembly
// copies values out under the engine lock, like every probe path. The
// build is a cancellation checkpoint and charges every retained entry
// (key bytes + a row reference) against the statement memory budget.
func buildJoinHash(td *tableData, hp *hashJoinPlan, ctx *evalCtx) (map[string][][]sqltypes.Value, error) {
	m := make(map[string][][]sqltypes.Value)
	var buf []byte
	var buildErr error
	td.scan(ctx.snap, func(_ *rowSlot, vals []sqltypes.Value) bool {
		if buildErr = ctx.intr.check(); buildErr != nil {
			return false
		}
		buf = buf[:0]
		for _, p := range hp.colPos {
			if vals[p].IsNull() {
				return true // skip the row
			}
			buf = appendKey(buf, vals[p])
		}
		if buildErr = ctx.intr.charge(int64(len(buf)) + rowFootprint(0)); buildErr != nil {
			return false
		}
		k := string(buf)
		m[k] = append(m[k], vals)
		return true
	})
	if buildErr != nil {
		return nil, buildErr
	}
	return m, nil
}

// hashProber probes one prebuilt join hash table, reusing its key
// buffer across outer rows (one prober per executing join side — never
// shared between concurrent executions).
type hashProber struct {
	table map[string][][]sqltypes.Value
	hp    *hashJoinPlan
	buf   []byte
}

func newHashProber(td *tableData, hp *hashJoinPlan, ctx *evalCtx) (*hashProber, error) {
	table, err := buildJoinHash(td, hp, ctx)
	if err != nil {
		return nil, err
	}
	return &hashProber{table: table, hp: hp}, nil
}

// probe returns the candidate rows for the outer row currently in
// ctx.vals. Semantics mirror probeJoin: handled=false (evaluation or
// alignment failure) sends the caller to the exhaustive scan for this
// outer row; a NULL probe matches nothing.
func (p *hashProber) probe(ctx *evalCtx) (cands [][]sqltypes.Value, handled bool) {
	p.buf = p.buf[:0]
	for j, e := range p.hp.eqs {
		v, err := evalExpr(e, ctx)
		if err != nil {
			return nil, false
		}
		if v.IsNull() {
			return nil, true // inner.col = NULL is UNKNOWN: no matches
		}
		pv, ok := probeValue(p.hp.kinds[j], v)
		if !ok {
			return nil, false
		}
		p.buf = appendKey(p.buf, pv)
	}
	return p.table[string(p.buf)], true
}

// exprRefsWithin reports whether every column reference in e falls in
// [lo, hi) and no aggregate appears — i.e. e is evaluable against the
// outer side alone.
func exprRefsWithin(e Expr, lo, hi int) bool {
	ok := true
	walkExpr(e, func(x Expr) bool {
		switch n := x.(type) {
		case *ColRef:
			if n.Index < lo || n.Index >= hi {
				ok = false
				return false
			}
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

// collectJoinEqs walks the top-level AND conjuncts of e, recording
// inner.col = outerExpr equalities (either operand order) into eqs.
// The inner side must be a bare bound ColRef in [innerLo, innerHi);
// first claim per column wins.
func collectJoinEqs(e Expr, schema *TableSchema, innerLo, innerHi int, outerOK func(Expr) bool, eqs map[string]Expr) {
	if e == nil {
		return
	}
	b, ok := e.(*Binary)
	if !ok {
		return
	}
	if b.Op == "AND" {
		collectJoinEqs(b.L, schema, innerLo, innerHi, outerOK, eqs)
		collectJoinEqs(b.R, schema, innerLo, innerHi, outerOK, eqs)
		return
	}
	if b.Op != "=" {
		return
	}
	try := func(inner, outer Expr) {
		cr, ok := inner.(*ColRef)
		if !ok || cr.Index < innerLo || cr.Index >= innerHi {
			return
		}
		if !outerOK(outer) {
			return
		}
		col := strings.ToUpper(schema.Cols[cr.Index-innerLo].Name)
		if _, dup := eqs[col]; !dup {
			eqs[col] = outer
		}
	}
	try(b.L, b.R)
	try(b.R, b.L)
}

// bestJoinProbe matches the collected equalities against the table's
// indexes: the longest covered leading prefix wins. Indexes are visited
// in name order so the choice is deterministic.
func bestJoinProbe(td *tableData, eqs map[string]Expr) *joinProbe {
	if len(eqs) == 0 {
		return nil
	}
	var best *joinProbe
	for _, idx := range td.indexes {
		cols := idx.cols
		nEq := 0
		var probes []Expr
		for nEq < len(cols) {
			e := eqs[cols[nEq]]
			if e == nil {
				break
			}
			probes = append(probes, e)
			nEq++
		}
		if nEq > 0 && (best == nil || nEq > best.nEq) {
			best = &joinProbe{idx: idx.name, cols: cols, colPos: idx.pos, nEq: nEq, eqs: probes}
		}
	}
	return best
}

// String renders the probe for EXPLAIN-style introspection.
func (p *joinProbe) String() string {
	return strings.Join(p.cols[:p.nEq], "+")
}

// probeJoin appends to cands the probed table's candidate rows for the
// outer row currently in the joined row, looking a full key's row slots
// up into the join's reused slot buffer. handled=false means a probe
// value failed to evaluate or align with the indexed column's type; the
// caller must fall back to the exhaustive scan, which preserves exact
// semantics. Candidate slices alias live storage: callers must copy
// values out (the join row assembly does) and not hold them past the
// engine lock.
func (j *joinRun) probeJoin(cands [][]sqltypes.Value, td *tableData, p *joinProbe) ([][]sqltypes.Value, bool) {
	ctx := j.ctx
	ctx.vals = j.row
	idx := td.index(p.idx)
	if idx == nil {
		return cands, false
	}
	// One probe prefix is built per outer row: reuse the statement's key
	// buffer (the string conversions below copy) so the nested-loop probe
	// allocates nothing per row.
	prefix := ctx.keyBuf[:0]
	defer func() { ctx.keyBuf = prefix }()
	for j := 0; j < p.nEq; j++ {
		v, err := evalExpr(p.eqs[j], ctx)
		if err != nil {
			// Let the scanning path surface (or not surface) the
			// evaluation error exactly as before.
			return cands, false
		}
		if v.IsNull() {
			return cands, true // inner.col = NULL is UNKNOWN: no matches
		}
		pv, ok := probeValue(td.schema.Cols[p.colPos[j]].Type.Kind, v)
		if !ok {
			return cands, false
		}
		prefix = appendKey(prefix, pv)
	}
	n := len(cands)
	collect := func(rows []*rowSlot) bool {
		for _, r := range rows {
			if vals, live := r.fetch(ctx.snap); live {
				cands = append(cands, vals)
			}
		}
		return true
	}
	if p.nEq == len(p.cols) {
		j.slots = lookupVisible(j.slots[:0], td, idx, string(prefix), ctx.snap)
		collect(j.slots)
	} else {
		lo := &keyBound{key: string(prefix), incl: true}
		hi := &keyBound{key: string(prefix) + keyRangeHiSentinel, incl: true}
		scanVisibleRange(td, idx, lo, hi, false, ctx.snap, func(_ string, rows []*rowSlot) bool {
			return collect(rows)
		})
	}
	td.heapReads.Add(int64(len(cands) - n))
	return cands, true
}
