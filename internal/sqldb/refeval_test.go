package sqldb

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// The reference evaluator: a deliberately naive SELECT interpreter the
// engine's executors are checked against. It shares the parser, the
// binder and the scalar evalExpr with the product — those are what a
// statement MEANS — and nothing of how the product runs one: tables are
// `SELECT *` snapshots in heap order, a join is nested loops over them in
// FROM order, groups are found by comparing keys pairwise with
// sqltypes.Compare, aggregates walk their group's rows, DISTINCT compares
// rows pairwise, ORDER BY is sort.SliceStable over sqltypes.SortCompare.
// No index, no arena, no key encoding, no access path, no fold.
//
// That is also the product's row order whenever nothing reorders its
// scans: a plan that reads every table from its heap must equal the
// reference's result row for row. Where an index path or probe feeds
// it, rows arrive in another order, so ties and unordered results may
// differ in sequence: there the check is the ORDER BY key sequence, the
// row count, and membership in the reference's result before
// OFFSET/LIMIT (refEval.check).
//
// scanTwin is the other oracle: the same tables and rows with no index
// at all, so the engine itself runs every statement from the heap.

// scanTwin returns an in-memory copy of db's tables with no PRIMARY
// KEY, UNIQUE, FOREIGN KEY or index: each table has db's columns and
// types, and db's committed rows inserted in db's heap order. Every
// statement on the twin scans heaps, in the order a heap scan of db
// visits them, so an answer through db's index paths must equal the
// twin's. The twin is closed when the test ends.
func scanTwin(t testing.TB, db *DB) *DB {
	t.Helper()
	twin, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { twin.Close() }) //nolint:errcheck // idempotent
	for _, name := range db.Catalog().TableNames() {
		schema, _ := db.Catalog().Table(name)
		cols := make([]string, len(schema.Cols))
		for i, c := range schema.Cols {
			cols[i] = c.Name + " " + c.Type.String()
		}
		if _, err := twin.Exec(`CREATE TABLE ` + name + ` (` + strings.Join(cols, ", ") + `)`); err != nil {
			t.Fatal(err)
		}
		rows, err := heapRows(db, name)
		if err != nil {
			t.Fatal(err)
		}
		ins, err := twin.Prepare(`INSERT INTO ` + name + ` VALUES (?` + strings.Repeat(`, ?`, len(cols)-1) + `)`)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if _, err := ins.Exec(row...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return twin
}

// heapRows returns a table's rows in heap order, read in a transaction:
// its statements never consult the result cache, so an oracle built
// from them cannot inherit a cache fault.
func heapRows(db *DB, name string) ([][]sqltypes.Value, error) {
	tx, err := db.Begin()
	if err != nil {
		return nil, err
	}
	defer tx.Rollback() //nolint:errcheck // read-only
	res, err := tx.Query(`SELECT * FROM ` + name)
	if err != nil {
		return nil, err
	}
	return res.Data, nil
}

// refEval evaluates statements over one database's tables; snapshots are
// taken on first use and kept until reset.
type refEval struct {
	db    *DB
	snaps map[string][][]sqltypes.Value
}

func newRefEval(db *DB) *refEval {
	return &refEval{db: db, snaps: map[string][][]sqltypes.Value{}}
}

// reset forgets the table snapshots (call after the test writes).
func (r *refEval) reset() { clear(r.snaps) }

func (r *refEval) table(name string) ([][]sqltypes.Value, error) {
	if rows, ok := r.snaps[name]; ok {
		return rows, nil
	}
	rows, err := heapRows(r.db, name)
	if err != nil {
		return nil, err
	}
	r.snaps[name] = rows
	return rows, nil
}

// refResult is a reference answer: every output row in final order, and
// the window of them OFFSET/LIMIT returns.
type refResult struct {
	all    []*refOut
	lo, hi int
}

func (r *refResult) rows() []*refOut { return r.all[r.lo:r.hi] }

// refOut is one output row: the source rows behind it (one for a plain
// row, the whole group for an aggregated one), its projection and its
// ORDER BY keys.
type refOut struct {
	group [][]sqltypes.Value
	vals  []sqltypes.Value
	keys  []sqltypes.Value
}

func (r *refEval) eval(sql string, args ...sqltypes.Value) (*refResult, error) {
	parsed, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := parsed.(*SelectStmt)
	if !ok || len(sel.From) == 0 {
		return nil, fmt.Errorf("refeval: need a SELECT with a FROM clause")
	}
	ctx := &evalCtx{params: args, now: r.db.nowFn()}
	isTrue := func(e Expr, row []sqltypes.Value) (bool, error) {
		ctx.vals = row
		v, err := evalExpr(e, ctx)
		return err == nil && !v.IsNull() && truthy(v), err
	}

	// FROM: snapshot and name every table's columns, then join by nested
	// loops in FROM order.
	env := &bindEnv{}
	rows := [][]sqltypes.Value{nil}
	for _, fi := range sel.From {
		schema, ok := r.db.Catalog().Table(fi.Table)
		if !ok {
			return nil, fmt.Errorf("refeval: no table %s", fi.Table)
		}
		alias := strings.ToUpper(fi.Alias)
		if alias == "" {
			alias = schema.Name
		}
		for _, c := range schema.Cols {
			env.cols = append(env.cols, qualCol{table: alias, col: c.Name})
		}
		if fi.JoinCond != nil {
			if err := bindExpr(fi.JoinCond, env, false); err != nil {
				return nil, err
			}
		}
		inner, err := r.table(schema.Name)
		if err != nil {
			return nil, err
		}
		var next [][]sqltypes.Value
		for _, base := range rows {
			matched := false
			for _, in := range inner {
				joined := in // the first table's rows need no copy
				if len(base) > 0 {
					joined = append(append([]sqltypes.Value(nil), base...), in...)
				}
				if fi.JoinCond != nil {
					if ok, err := isTrue(fi.JoinCond, joined); err != nil {
						return nil, err
					} else if !ok {
						continue
					}
				}
				matched = true
				next = append(next, joined)
			}
			if fi.LeftJoin && !matched {
				joined := append([]sqltypes.Value(nil), base...)
				for range schema.Cols {
					joined = append(joined, sqltypes.Null)
				}
				next = append(next, joined)
			}
		}
		rows = next
	}

	// Bind the rest against the full namespace; expand stars.
	var proj []Expr
	var labels []string
	aggregated := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, item := range sel.Items {
		if item.Star {
			for i, qc := range env.cols {
				if item.Table == "" || qc.table == strings.ToUpper(item.Table) {
					proj = append(proj, &ColRef{Table: qc.table, Col: qc.col, Index: i})
					labels = append(labels, qc.col)
				}
			}
			continue
		}
		if err := bindExpr(item.Expr, env, true); err != nil {
			return nil, err
		}
		aggregated = aggregated || exprHasAggregate(item.Expr)
		proj = append(proj, item.Expr)
		label := item.Alias
		if label == "" {
			label = exprLabel(item.Expr)
		}
		labels = append(labels, label)
	}
	for _, e := range append([]Expr{sel.Where}, sel.GroupBy...) {
		if e != nil {
			if err := bindExpr(e, env, false); err != nil {
				return nil, err
			}
		}
	}
	if sel.Having != nil {
		if err := bindExpr(sel.Having, env, true); err != nil {
			return nil, err
		}
	}
	// An ORDER BY item is a source expression when it binds, else the
	// label of a projected column.
	order := make([]Expr, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		if bindExpr(o.Expr, env, true) == nil {
			order[i] = o.Expr
			aggregated = aggregated || exprHasAggregate(o.Expr)
			continue
		}
		cr, _ := o.Expr.(*ColRef)
		for j, l := range labels {
			if cr != nil && strings.EqualFold(l, cr.Col) {
				order[i] = proj[j]
			}
		}
		if order[i] == nil {
			return nil, fmt.Errorf("refeval: cannot resolve ORDER BY item %d", i)
		}
	}

	// WHERE.
	if sel.Where != nil {
		kept := rows[:0:0]
		for _, row := range rows {
			if ok, err := isTrue(sel.Where, row); err != nil {
				return nil, err
			} else if ok {
				kept = append(kept, row)
			}
		}
		rows = kept
	}

	// One refOut per row, or per group in first-seen order.
	var outs []*refOut
	if !aggregated {
		for _, row := range rows {
			outs = append(outs, &refOut{group: [][]sqltypes.Value{row}})
		}
	} else if len(sel.GroupBy) == 0 {
		outs = []*refOut{{group: rows}} // one group, even when empty
	} else {
		var groupKeys [][]sqltypes.Value
		for _, row := range rows {
			key := make([]sqltypes.Value, len(sel.GroupBy))
			ctx.vals = row
			for i, g := range sel.GroupBy {
				if key[i], err = evalExpr(g, ctx); err != nil {
					return nil, err
				}
			}
			gi := 0
			for gi < len(groupKeys) && !refSameRow(groupKeys[gi], key) {
				gi++
			}
			if gi == len(groupKeys) {
				groupKeys = append(groupKeys, key)
				outs = append(outs, &refOut{})
			}
			outs[gi].group = append(outs[gi].group, row)
		}
	}
	// over evaluates e for one output row: aggregate calls are computed
	// over its group and spliced in as literals, the rest reads the
	// group's first row (all NULLs when the group is empty).
	nulls := make([]sqltypes.Value, len(env.cols))
	over := func(e Expr, o *refOut) (sqltypes.Value, error) {
		if aggregated {
			if e, err = refSpliceAggregates(e, o.group, ctx); err != nil {
				return sqltypes.Null, err
			}
		}
		ctx.vals = nulls
		if len(o.group) > 0 {
			ctx.vals = o.group[0]
		}
		return evalExpr(e, ctx)
	}

	// HAVING, projection, DISTINCT, sort keys.
	kept := outs[:0:0]
	for _, o := range outs {
		if sel.Having != nil {
			if v, err := over(sel.Having, o); err != nil {
				return nil, err
			} else if v.IsNull() || !truthy(v) {
				continue
			}
		}
		for _, e := range proj {
			v, err := over(e, o)
			if err != nil {
				return nil, err
			}
			o.vals = append(o.vals, v)
		}
		if sel.Distinct && slices.ContainsFunc(kept, func(k *refOut) bool { return refSameRow(k.vals, o.vals) }) {
			continue
		}
		for _, e := range order {
			v, err := over(e, o)
			if err != nil {
				return nil, err
			}
			o.keys = append(o.keys, v)
		}
		kept = append(kept, o)
	}
	sort.SliceStable(kept, func(a, b int) bool {
		for i, o := range sel.OrderBy {
			if c := sqltypes.SortCompare(kept[a].keys[i], kept[b].keys[i]); c != 0 {
				return (c < 0) != o.Desc
			}
		}
		return false
	})

	res := &refResult{all: kept, lo: min(sel.Offset, len(kept)), hi: len(kept)}
	if sel.Limit >= 0 {
		res.hi = min(res.lo+sel.Limit, res.hi)
	}
	return res, nil
}

// refSpliceAggregates returns e with every aggregate call replaced by the
// literal it computes over group; scalar functions and operators are
// rebuilt around their spliced operands.
func refSpliceAggregates(e Expr, group [][]sqltypes.Value, ctx *evalCtx) (Expr, error) {
	var err error
	splice := func(x Expr) Expr {
		if err != nil {
			return x
		}
		x, err = refSpliceAggregates(x, group, ctx)
		return x
	}
	switch n := e.(type) {
	case *FuncCall:
		if isAggregate(n.Name) {
			v, err := refAggregate(n, group, ctx)
			return &Literal{Val: v}, err
		}
		out := &FuncCall{Name: n.Name, Star: n.Star}
		for _, a := range n.Args {
			out.Args = append(out.Args, splice(a))
		}
		return out, err
	case *Binary:
		return &Binary{Op: n.Op, L: splice(n.L), R: splice(n.R)}, err
	case *Unary:
		return &Unary{Op: n.Op, X: splice(n.X)}, err
	}
	return e, nil
}

// refAggregate computes one aggregate call over a group's rows.
func refAggregate(fc *FuncCall, group [][]sqltypes.Value, ctx *evalCtx) (sqltypes.Value, error) {
	if fc.Star {
		return sqltypes.NewInt(int64(len(group))), nil
	}
	if len(fc.Args) != 1 {
		return sqltypes.Null, fmt.Errorf("refeval: %s takes one argument", fc.Name)
	}
	var vals []sqltypes.Value // the non-NULL arguments, in row order
	for _, row := range group {
		ctx.vals = row
		v, err := evalExpr(fc.Args[0], ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	if fc.Name == "COUNT" {
		return sqltypes.NewInt(int64(len(vals))), nil
	}
	if len(vals) == 0 {
		return sqltypes.Null, nil
	}
	switch fc.Name {
	case "SUM", "AVG":
		ints, sumI, sumF := true, new(big.Int), 0.0
		for _, v := range vals {
			f, ok := v.AsDouble()
			if !ok {
				return sqltypes.Null, fmt.Errorf("refeval: %s of a non-number", fc.Name)
			}
			sumF += f
			if ints = ints && v.Kind() == sqltypes.KindInt; ints {
				sumI.Add(sumI, big.NewInt(v.Int()))
			}
		}
		switch {
		case fc.Name == "AVG":
			return sqltypes.NewDouble(sumF / float64(len(vals))), nil
		case ints && !sumI.IsInt64():
			return sqltypes.Null, fmt.Errorf("refeval: SUM out of BIGINT range")
		case ints:
			return sqltypes.NewInt(sumI.Int64()), nil
		}
		return sqltypes.NewDouble(sumF), nil
	case "MIN", "MAX":
		best := vals[0]
		for _, v := range vals[1:] {
			if c, ok := sqltypes.Compare(v, best); ok && (c < 0) == (fc.Name == "MIN") && c != 0 {
				best = v
			}
		}
		return best, nil
	}
	return sqltypes.Null, fmt.Errorf("refeval: unknown aggregate %s", fc.Name)
}

// refSameRow reports whether two key tuples name the same group (or two
// projected rows are DISTINCT-equal): NULLs match each other, values of
// one class — numbers, text, or one other kind — match when
// sqltypes.Compare says equal, and values of different classes never do
// (0 and '0' are two groups although they compare equal).
func refSameRow(a, b []sqltypes.Value) bool {
	class := func(v sqltypes.Value) int {
		switch {
		case v.IsNumeric():
			return -1
		case v.IsTextual():
			return -2
		}
		return int(v.Kind())
	}
	for i := range a {
		if a[i].IsNull() || b[i].IsNull() {
			if a[i].IsNull() != b[i].IsNull() {
				return false
			}
			continue
		}
		if c, ok := sqltypes.Compare(a[i], b[i]); class(a[i]) != class(b[i]) || !ok || c != 0 {
			return false
		}
	}
	return true
}

// refCanon renders a row so that equal strings mean equal rows. exact
// keeps kinds apart; otherwise INTEGER 3 and DOUBLE 3 render alike, as
// they name one group and which of them a group shows depends on the row
// that arrived first.
func refCanon(row []sqltypes.Value, exact bool) string {
	var b strings.Builder
	for _, v := range row {
		switch f, _ := v.AsDouble(); {
		case v.IsNull():
			b.WriteString("NULL")
		case v.Kind() == sqltypes.KindDouble && (exact || f != math.Trunc(f) || math.Abs(f) >= 1<<62):
			fmt.Fprintf(&b, "f%x", math.Float64bits(f))
		case v.Kind() == sqltypes.KindDouble:
			fmt.Fprintf(&b, "i%d", int64(f))
		case v.Kind() == sqltypes.KindInt:
			fmt.Fprintf(&b, "i%d", v.Int())
			if exact {
				b.WriteString("!")
			}
		case v.Kind() == sqltypes.KindTime:
			fmt.Fprintf(&b, "t%d", v.Time().UnixNano())
		case v.Kind() == sqltypes.KindBytes:
			fmt.Fprintf(&b, "x%x", v.Bytes())
		default:
			fmt.Fprintf(&b, "%d%s", v.Kind(), strconv.Quote(v.AsString()))
		}
		b.WriteByte(',')
	}
	return b.String()
}

// check runs sql through the engine three times and holds every result
// against the reference: a first sighting, the repeat the result cache
// admits, and the repeat it serves whenever it admitted. A statement
// whose plan reads every table from its heap must match row for row,
// kinds included. An error must be an error everywhere (its text is the
// engine's own business). It returns the reference result, nil on
// error.
func (r *refEval) check(t testing.TB, sql string, args ...sqltypes.Value) *refResult {
	t.Helper()
	ref, refErr := r.eval(sql, args...)
	heapOrder := false
	if st, err := r.db.Prepare(sql); err == nil {
		p, err := st.AccessPath()
		heapOrder = err == nil && strings.HasPrefix(p, "full-scan") && !strings.Contains(p, " inl(")
	}
	for range 3 {
		got, err := r.db.Query(sql, args...)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("%s: engine error %v, reference error %v", sql, err, refErr)
		}
		if err != nil {
			continue
		}
		want := ref.rows()
		if len(got.Data) != len(want) {
			t.Fatalf("%s: %d rows, reference has %d", sql, len(got.Data), len(want))
		}
		if heapOrder {
			// Nothing reorders the scans: row for row, kinds included.
			for i, row := range got.Data {
				if g, w := refCanon(row, true), refCanon(want[i].vals, true); g != w {
					t.Fatalf("%s [full scan]: row %d is %s, reference has %s", sql, i, g, w)
				}
			}
			continue
		}
		// Source rows arrived in index order, so ties and unordered
		// results may come out in another sequence. Every row must be one
		// of the reference's rows before OFFSET/LIMIT (all of them, when
		// there is neither), and row i must carry the sort keys of the
		// reference's row i: a tie may resolve to another row, never to
		// other keys. A row's keys are those the reference computed for
		// the same projection — skipped when two reference rows project
		// alike and sort apart, which no generated shape does.
		pool, keysOf := map[string]int{}, map[string]string{}
		for _, o := range ref.all {
			k := refCanon(o.vals, false)
			pool[k]++
			if prev, seen := keysOf[k]; seen && prev != refCanon(o.keys, false) {
				keysOf[k] = "ambiguous"
			} else {
				keysOf[k] = refCanon(o.keys, false)
			}
		}
		for i, row := range got.Data {
			k := refCanon(row, false)
			if pool[k] == 0 {
				t.Fatalf("%s: row %d (%s) is not in the reference result", sql, i, k)
			}
			pool[k]--
			if g, w := keysOf[k], refCanon(want[i].keys, false); g != "ambiguous" && g != w {
				t.Fatalf("%s: row %d sorts by %s, the reference's by %s", sql, i, g, w)
			}
		}
	}
	if refErr != nil {
		return nil
	}
	return ref
}

// ---------- the shape generator ----------

// refFixture builds the three tables the generated statements run over:
// parent P, child C (a nullable, sometimes dangling reference to P; NULLs
// in every other column; a DOUBLE column whose values are often whole; an
// integer-only column of far integers, three of which share one float64
// image) and grandchild T. Doubles are multiples of 0.25, so sums are
// exact in any order.
func refFixture(t testing.TB, rng *rand.Rand) *DB {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() }) //nolint:errcheck // idempotent
	if err := db.ExecScript(`
		CREATE TABLE P (PID INTEGER PRIMARY KEY, NAME VARCHAR(20), REGION INTEGER, W DOUBLE);
		CREATE TABLE C (CID INTEGER PRIMARY KEY, PID INTEGER, K INTEGER, D DOUBLE, S VARCHAR(10), BIG BIGINT);
		CREATE TABLE T (TID INTEGER PRIMARY KEY, CID INTEGER, TAG VARCHAR(10), N INTEGER);
		CREATE INDEX C_PID ON C (PID);
		CREATE INDEX C_KD ON C (K, D);
		CREATE INDEX C_S ON C (S);
		CREATE INDEX C_BIG ON C (BIG);
		CREATE INDEX T_CID ON T (CID);
		CREATE INDEX P_REGION ON P (REGION)`); err != nil {
		t.Fatal(err)
	}
	null := func(v sqltypes.Value) sqltypes.Value {
		if rng.Intn(6) == 0 {
			return sqltypes.Null
		}
		return v
	}
	i64, str := sqltypes.NewInt, sqltypes.NewString
	words := []string{"ash", "birch", "", "cedar", "7"}
	far := []int64{1 << 53, 1<<53 + 1, 1<<53 + 2, -(1 << 53) - 1, 1 << 60, 12}
	insert := func(sql string, vals ...sqltypes.Value) {
		if _, err := db.Exec(sql, vals...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		insert(`INSERT INTO P VALUES (?, ?, ?, ?)`, i64(int64(i)), null(str(fmt.Sprintf("p%d", i%5))),
			null(i64(int64(rng.Intn(3)))), null(sqltypes.NewDouble(float64(rng.Intn(12))*0.25)))
	}
	for i := 0; i < 40; i++ {
		insert(`INSERT INTO C VALUES (?, ?, ?, ?, ?, ?)`, i64(int64(i)), null(i64(int64(rng.Intn(10)))),
			null(i64(int64(rng.Intn(6)))), null(sqltypes.NewDouble(float64(rng.Intn(24))*0.25)),
			null(str(words[rng.Intn(len(words))])), null(i64(far[rng.Intn(len(far))])))
	}
	for i := 0; i < 50; i++ {
		insert(`INSERT INTO T VALUES (?, ?, ?, ?)`, i64(int64(i)), null(i64(int64(rng.Intn(44)))),
			null(str(words[rng.Intn(len(words))])), null(i64(int64(rng.Intn(9)-4))))
	}
	return db
}

// refShape is one generated statement.
type refShape struct {
	sql  string
	args []sqltypes.Value
}

// genShape draws one statement from {1, 2, 3 tables, LEFT JOIN} × {WHERE}
// × {GROUP BY / HAVING} × {DISTINCT} × {ORDER BY column / alias /
// aggregate, ASC / DESC} × {LIMIT / OFFSET, 0 and past the end
// included}. Sort keys are always projected, and an aggregated
// statement projects only group keys and aggregates, so a result is
// checkable whatever order its source rows arrived in.
func genShape(rng *rand.Rand) refShape {
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	var sh refShape
	param := func(v sqltypes.Value) string {
		if rng.Intn(2) == 0 {
			sh.args = append(sh.args, v)
			return "?"
		}
		if v.IsTextual() {
			return "'" + v.Str() + "'"
		}
		return v.AsString()
	}

	// Far keys in index order: an in-order scan of C_BIG serves this,
	// and integers sharing a float64 image must still sort by value.
	if rng.Intn(12) == 0 {
		sh.sql = "SELECT C.CID AS X0, C.BIG AS X1 FROM C ORDER BY C.BIG" + pick([]string{"", " DESC"})
		if rng.Intn(2) == 0 {
			sh.sql += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(12))
		}
		return sh
	}

	// FROM, and the columns and predicates it offers.
	var from string
	cols := []string{"C.CID", "C.K", "C.D", "C.S", "C.BIG", "C.PID", "COALESCE(C.K, C.D)", "C.K + 1"}
	preds := []func() string{
		func() string {
			return "C.K " + pick([]string{"=", ">", "<=", "<>"}) + " " + param(sqltypes.NewInt(int64(rng.Intn(6))))
		},
		func() string { return "C.D < " + param(sqltypes.NewDouble(float64(rng.Intn(24))*0.25)) },
		func() string { return "C.S = " + param(sqltypes.NewString(pick([]string{"ash", "", "7", "zzz"}))) },
		func() string { return "C.K IS " + pick([]string{"", "NOT "}) + "NULL" },
		func() string { return "C.BIG >= " + param(sqltypes.NewInt(1<<53)) },
		func() string { return "C.BIG = " + param(sqltypes.NewInt(1<<53+1)) },
		func() string {
			sh.args = append(sh.args, sqltypes.NewDouble([]float64{1 << 53, 1<<53 + 2, -(1 << 53) - 2, 1 << 60, 12.5}[rng.Intn(5)]))
			return "C.BIG " + pick([]string{"=", ">", "<="}) + " ?"
		},
		func() string { return "C.K BETWEEN 1 AND " + param(sqltypes.NewInt(int64(1+rng.Intn(4)))) },
		func() string { return "C.CID < " + param(sqltypes.NewInt(int64(rng.Intn(45)))) },
	}
	pCols := []string{"P.PID", "P.NAME", "P.REGION", "P.W"}
	pPred := func() string { return "P.REGION = " + param(sqltypes.NewInt(int64(rng.Intn(3)))) }
	tCols := []string{"T.TID", "T.TAG", "T.N"}
	tPred := func() string { return "T.N > " + param(sqltypes.NewInt(int64(rng.Intn(5)-3))) }
	var where []string
	switch rng.Intn(7) {
	case 0, 1:
		from = "C"
	case 2:
		from = "C JOIN P ON C.PID = P.PID"
		cols, preds = append(cols, pCols...), append(preds, pPred)
	case 3:
		from = "C LEFT JOIN P ON C.PID = P.PID AND P.REGION > 0"
		cols, preds = append(cols, pCols...), append(preds, pPred)
	case 4:
		from = "P, C"
		where = append(where, "P.PID = C.PID")
		cols, preds = append(cols, pCols...), append(preds, pPred)
	case 5:
		from = "T JOIN C ON T.CID = C.CID " + pick([]string{"JOIN", "LEFT JOIN"}) + " P ON C.PID = P.PID"
		cols, preds = append(append(cols, pCols...), tCols...), append(preds, pPred, tPred)
	case 6:
		from = "T LEFT JOIN C ON T.CID = C.CID AND C.K > 1"
		cols, preds = append(cols, tCols...), append(preds, tPred)
	}
	for n := rng.Intn(3); n > 0; n-- {
		where = append(where, preds[rng.Intn(len(preds))]())
	}

	// Projection (every item aliased, so ORDER BY can name it), grouping.
	var items, sortable, groupBy []string
	having := ""
	add := func(expr string) {
		alias := fmt.Sprintf("X%d", len(items))
		items = append(items, expr+" AS "+alias)
		sortable = append(sortable, pick([]string{expr, alias}))
	}
	if rng.Intn(5) < 2 {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			g := pick(cols)
			groupBy = append(groupBy, g)
			add(g)
		}
		if rng.Intn(4) == 0 {
			groupBy = nil // one group over everything: aggregates only
			items, sortable = nil, nil
		}
		aggs := []string{"COUNT(*)", "COUNT(C.K)", "SUM(C.D)", "SUM(C.K)", "AVG(C.D)", "MIN(C.S)", "MAX(C.BIG)", "MIN(C.K) + COUNT(*)"}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			add(pick(aggs))
		}
		if len(groupBy) > 0 && rng.Intn(3) == 0 {
			having = fmt.Sprintf("COUNT(*) > %d", rng.Intn(4))
		}
	} else {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			add(pick(cols))
		}
	}

	var b strings.Builder
	b.WriteString("SELECT ")
	if rng.Intn(4) == 0 {
		b.WriteString("DISTINCT ")
	}
	b.WriteString(strings.Join(items, ", ") + " FROM " + from)
	if len(where) > 0 {
		b.WriteString(" WHERE " + strings.Join(where, " AND "))
	}
	if len(groupBy) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(groupBy, ", "))
	}
	if having != "" {
		b.WriteString(" HAVING " + having)
	}
	if rng.Intn(3) > 0 {
		var keys []string
		for n := 1 + rng.Intn(2); n > 0; n-- {
			keys = append(keys, pick(sortable)+pick([]string{"", " ASC", " DESC"}))
		}
		b.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", pick3(rng, 0, 1+rng.Intn(12), 5000))
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, " OFFSET %d", pick3(rng, 0, 1+rng.Intn(6), 5000))
		}
	}
	sh.sql = b.String()
	return sh
}

// pick3 returns rare with probability 1/8 each for lo and hi, else mid.
func pick3(rng *rand.Rand, lo, mid, hi int) int {
	switch rng.Intn(8) {
	case 0:
		return lo
	case 1:
		return hi
	}
	return mid
}

// TestReferenceEvaluatorProperty is the engine ≡ reference property over
// generated statements: every shape the generator draws, on a fixture
// with NULLs, whole-valued doubles beside integers and far integers,
// answers the same through the engine's own choice of path — row for
// row where that choice is the heap — from the result cache, and
// through the naive evaluator. Updates that keep the
// fixture's value domains are interleaved, so cached answers must also
// follow the writes.
func TestReferenceEvaluatorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := refFixture(t, rng)
	ref := newRefEval(db)
	dml := rand.New(rand.NewSource(29))
	n := 2400
	if testing.Short() {
		n = 300
	}
	rowsSeen, errs, farOrdered := 0, 0, 0
	grouped := map[string]int{} // grouped statements by strategy (groupStrategy)
	for i := 0; i < n; i++ {
		if i%8 == 7 {
			mustExec(t, db, `UPDATE C SET K = ? WHERE CID = ?`, sqltypes.NewInt(int64(dml.Intn(6))), sqltypes.NewInt(int64(dml.Intn(40))))
			mustExec(t, db, `UPDATE T SET N = ? WHERE TID = ?`, sqltypes.NewInt(int64(dml.Intn(9)-4)), sqltypes.NewInt(int64(dml.Intn(50))))
			ref.reset()
		}
		sh := genShape(rng)
		if st, err := db.Prepare(sh.sql); err == nil {
			p, _ := st.AccessPath()
			if strings.Contains(p, "(C.BIG) order") {
				farOrdered++
			}
			if strings.Contains(sh.sql, " GROUP BY ") {
				grouped[groupStrategy(sh.sql, p)]++
			}
		}
		if res := ref.check(t, sh.sql, sh.args...); res != nil {
			rowsSeen += len(res.rows())
		} else {
			errs++
		}
	}
	// The property is vacuous if the generator mostly draws empty results
	// or statements that fail everywhere.
	if rowsSeen < 5*n || errs > n/20 {
		t.Fatalf("%d statements returned %d rows and %d errors: the generator is not exercising the engine", n, rowsSeen, errs)
	}
	if counterValue(t, db, "sqldb_result_cache_hits_total") == 0 {
		t.Fatal("no statement was served by the result cache: the cache leg of the property is vacuous")
	}
	if farOrdered == 0 {
		t.Fatal("no statement was an ORDER BY served by C_BIG: the far-key order leg is vacuous")
	}
	total := 0
	for _, c := range grouped {
		total += c
	}
	t.Logf("grouped statements by strategy: %v", grouped)
	if total < n/8 {
		t.Fatalf("%d of %d statements grouped: the grouped-fold leg is vacuous", total, n)
	}
}

// groupStrategy names how a grouped statement reaches its groups: the
// strategy word AccessPath renders after the access path, plus " limit"
// for a LIMIT window with no HAVING, ORDER BY or DISTINCT reshaping the
// group list.
func groupStrategy(sql, path string) string {
	f := strings.Fields(path)
	if len(f) < 2 {
		return path
	}
	s := f[1]
	if strings.Contains(sql, " LIMIT ") && !strings.Contains(sql, " HAVING ") &&
		!strings.Contains(sql, " ORDER BY ") && !strings.Contains(sql, "SELECT DISTINCT ") {
		s += " limit"
	}
	return s
}
