package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/sqltypes"
)

// buildPropertyDB creates the tables the planner property tests run
// against. P: typed columns with NULLs, duplicates and adversarial
// string values under named indexes, and a single-column PRIMARY KEY.
// K: a composite PRIMARY KEY and a UNIQUE tuple with NULLs and no named
// index at all, so every index path over it is a constraint index.
func buildPropertyDB(t testing.TB, rng *rand.Rand, rows int) *DB {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript(`CREATE TABLE P (
		ID INTEGER PRIMARY KEY,
		N  INTEGER,
		D  DOUBLE,
		S  VARCHAR(30),
		TS TIMESTAMP,
		B  BOOLEAN
	)`); err != nil {
		t.Fatal(err)
	}
	words := []string{"alpha", "beta", "gamma", "delta", "", "5", "TRUE", "1999-01-10 15:09:32", "zz"}
	ins, err := db.Prepare(`INSERT INTO P VALUES (?, ?, ?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	maybeNull := func(v sqltypes.Value) sqltypes.Value {
		if rng.Intn(8) == 0 {
			return sqltypes.Null
		}
		return v
	}
	for i := 0; i < rows; i++ {
		_, err := ins.Exec(
			sqltypes.NewInt(int64(i)),
			maybeNull(sqltypes.NewInt(int64(rng.Intn(200)-100))),
			maybeNull(sqltypes.NewDouble(float64(rng.Intn(4000))/8-250)),
			maybeNull(sqltypes.NewString(words[rng.Intn(len(words))])),
			maybeNull(sqltypes.NewString(fmt.Sprintf("20%02d-0%d-1%d 0%d:00:00",
				rng.Intn(10), 1+rng.Intn(8), rng.Intn(9), rng.Intn(10)))),
			maybeNull(sqltypes.NewBool(rng.Intn(2) == 0)),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ExecScript(`CREATE TABLE K (
		A INTEGER, B VARCHAR(30), U INTEGER, V INTEGER, W INTEGER,
		PRIMARY KEY (A, B), UNIQUE (U, V))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows/2; i++ {
		// (A, B) and the non-NULL (U, V) pairs are distinct by construction.
		_, err := db.Exec(`INSERT INTO K VALUES (?, ?, ?, ?, ?)`,
			sqltypes.NewInt(int64(i/len(words))), sqltypes.NewString(words[i%len(words)]),
			maybeNull(sqltypes.NewInt(int64(i%17))), maybeNull(sqltypes.NewInt(int64(i/17))),
			sqltypes.NewInt(int64(rng.Intn(50))))
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, ddl := range []string{
		`CREATE INDEX PIX_N ON P (N) USING ORDERED`,
		`CREATE INDEX PIX_D ON P (D) USING ORDERED`,
		`CREATE INDEX PIX_S ON P (S) USING HASH`,
		`CREATE INDEX PIX_TS ON P (TS) USING ORDERED`,
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// plannedPath returns the access path of sql's cached SELECT plan — the
// path every execution of the prepared statement resolves. An UPDATE or
// DELETE plans its WHERE the same way (matchRowsLocked), so a test reads
// a DML statement's path from the SELECT sharing its WHERE.
func plannedPath(t testing.TB, db *DB, sql string) *accessPath {
	t.Helper()
	st, err := db.Prepare(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	plan, err := st.selectPlanLocked(st.ast.(*SelectStmt))
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return plan.path
}

// randomPredicate builds one WHERE conjunct, sometimes passing numeric
// and timestamp bounds as strings the way the QBE layer does.
func randomPredicate(rng *rand.Rand) (string, []sqltypes.Value) {
	num := func(v int) sqltypes.Value {
		if rng.Intn(3) == 0 {
			return sqltypes.NewString(fmt.Sprintf("%d", v))
		}
		return sqltypes.NewInt(int64(v))
	}
	switch rng.Intn(12) {
	case 10:
		return "ID = ?", []sqltypes.Value{num(rng.Intn(600))}
	case 11:
		lo := rng.Intn(600)
		return "ID BETWEEN ? AND ?", []sqltypes.Value{num(lo), num(lo + rng.Intn(40))}
	case 0:
		return "N = ?", []sqltypes.Value{num(rng.Intn(200) - 100)}
	case 1:
		lo := rng.Intn(200) - 100
		return "N BETWEEN ? AND ?", []sqltypes.Value{num(lo), num(lo + rng.Intn(60))}
	case 2:
		return "N >= ?", []sqltypes.Value{num(rng.Intn(200) - 100)}
	case 3:
		return "N < ?", []sqltypes.Value{num(rng.Intn(200) - 100)}
	case 4:
		return "D BETWEEN ? AND ?", []sqltypes.Value{
			sqltypes.NewDouble(float64(rng.Intn(2000))/8 - 250),
			sqltypes.NewDouble(float64(rng.Intn(2000))/8 - 100)}
	case 5:
		words := []string{"alpha", "beta", "5", "TRUE", "", "nothere"}
		return "S = ?", []sqltypes.Value{sqltypes.NewString(words[rng.Intn(len(words))])}
	case 6:
		return "TS >= ?", []sqltypes.Value{sqltypes.NewString(fmt.Sprintf("200%d-01-01", rng.Intn(10)))}
	case 7:
		return "N IS NULL", nil
	case 8:
		return "S IS NOT NULL", nil
	default:
		return "D > ?", []sqltypes.Value{num(rng.Intn(300) - 150)}
	}
}

// randomKeyPredicate builds one WHERE conjunct over table K's declared
// keys: full and partial PRIMARY KEY tuples, the UNIQUE tuple and its
// NULLs, and a column no index covers.
func randomKeyPredicate(rng *rand.Rand) (string, []sqltypes.Value) {
	words := []string{"alpha", "beta", "", "5", "zz", "nothere"}
	word := func() sqltypes.Value { return sqltypes.NewString(words[rng.Intn(len(words))]) }
	n := func(max int) sqltypes.Value { return sqltypes.NewInt(int64(rng.Intn(max))) }
	switch rng.Intn(10) {
	case 0:
		return "A = ? AND B = ?", []sqltypes.Value{n(30), word()}
	case 1:
		return "A = ?", []sqltypes.Value{n(30)}
	case 2:
		return "A = ? AND B >= ?", []sqltypes.Value{n(30), word()}
	case 3:
		return "A BETWEEN ? AND ?", []sqltypes.Value{n(15), n(30)}
	case 4:
		return "B = ?", []sqltypes.Value{word()}
	case 5:
		return "U = ? AND V = ?", []sqltypes.Value{n(17), n(15)}
	case 6:
		return "U = ?", []sqltypes.Value{n(17)}
	case 7:
		return "U IS NULL", nil
	case 8:
		return "U = ? AND V IS NULL", []sqltypes.Value{n(17)}
	default:
		return "W < ?", []sqltypes.Value{n(50)}
	}
}

// rowsKey flattens a result into one comparable multiset fingerprint.
func rowsKey(r *Rows, ordered bool) string {
	keys := make([]string, len(r.Data))
	for i, row := range r.Data {
		keys[i] = encodeKey(row...)
	}
	if !ordered {
		sort.Strings(keys)
	}
	return strings.Join(keys, "|")
}

// assertSorted checks ORDER BY output against SortCompare.
func assertSorted(t *testing.T, r *Rows, col string, desc bool, sql string) {
	t.Helper()
	ci := r.ColIndex(col)
	if ci < 0 {
		t.Fatalf("%s: ORDER BY column %s missing from result", sql, col)
	}
	for i := 1; i < len(r.Data); i++ {
		c := sqltypes.SortCompare(r.Data[i-1][ci], r.Data[i][ci])
		if (desc && c < 0) || (!desc && c > 0) {
			t.Fatalf("%s: output not sorted at row %d", sql, i)
		}
	}
}

// TestPlannerPropertyIndexVsScan: every randomly generated SELECT must
// return identical rows through the planner's index paths and through a
// forced full scan. ORDER BY results are additionally checked for
// sortedness; exact sequences are compared when ordering by the unique
// ID column. A residual-free path's rows are never tested against the
// WHERE, so the property is only as strong as the share of statements
// that plan one: at least a quarter must.
func TestPlannerPropertyIndexVsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := buildPropertyDB(t, rng, 500)
	defer db.Close()

	statements, residualFree := 0, 0
	runOne := func(sql string, args []sqltypes.Value, exactOrder bool, orderCol string, desc bool) {
		t.Helper()
		statements++
		if p := plannedPath(t, db, sql); p != nil && p.residualFree {
			residualFree++
		}
		indexed, ierr := db.Query(sql, args...)
		db.SetFullScanOnly(true)
		scanned, serr := db.Query(sql, args...)
		db.SetFullScanOnly(false)
		if (ierr == nil) != (serr == nil) {
			t.Fatalf("%s args=%v: error mismatch: index=%v scan=%v", sql, args, ierr, serr)
		}
		if ierr != nil {
			if ierr.Error() != serr.Error() {
				t.Fatalf("%s: differing errors: %v vs %v", sql, ierr, serr)
			}
			return
		}
		if rowsKey(indexed, exactOrder) != rowsKey(scanned, exactOrder) {
			t.Fatalf("%s args=%v: index path and full scan disagree:\n index: %d rows\n scan:  %d rows",
				sql, args, len(indexed.Data), len(scanned.Data))
		}
		if orderCol != "" {
			assertSorted(t, indexed, orderCol, desc, sql)
			assertSorted(t, scanned, orderCol, desc, sql)
		}
	}

	phase := func(iterations int) {
		for i := 0; i < iterations; i++ {
			var conds []string
			var args []sqltypes.Value
			for n := rng.Intn(3); n >= 0; n-- {
				c, a := randomPredicate(rng)
				conds = append(conds, c)
				args = append(args, a...)
			}
			sql := "SELECT ID, N, D, S, TS, B FROM P"
			if len(conds) > 0 && rng.Intn(10) > 0 {
				sql += " WHERE " + strings.Join(conds, " AND ")
			}
			orderCol, exact, desc := "", false, false
			switch rng.Intn(4) {
			case 0: // no ORDER BY
			case 1: // ORDER BY unique key: exact comparison + LIMIT allowed
				desc = rng.Intn(2) == 0
				orderCol, exact = "ID", true
				sql += " ORDER BY ID"
				if desc {
					sql += " DESC"
				}
				if rng.Intn(2) == 0 {
					sql += fmt.Sprintf(" LIMIT %d", rng.Intn(20))
					if rng.Intn(2) == 0 {
						sql += fmt.Sprintf(" OFFSET %d", rng.Intn(10))
					}
				}
			default: // ORDER BY possibly-duplicated indexed column
				cols := []string{"N", "D", "TS", "S"}
				orderCol = cols[rng.Intn(len(cols))]
				desc = rng.Intn(2) == 0
				sql += " ORDER BY " + orderCol
				if desc {
					sql += " DESC"
				}
			}
			runOne(sql, args, exact, orderCol, desc)
		}
	}

	phase(250)

	// Mutate: deletes and updates must keep every index consistent.
	if _, err := db.Exec(`DELETE FROM P WHERE N BETWEEN ? AND ?`,
		sqltypes.NewInt(-20), sqltypes.NewInt(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`UPDATE P SET N = ?, S = ? WHERE D > ?`,
		sqltypes.NewInt(77), sqltypes.NewString("updated"), sqltypes.NewDouble(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`DELETE FROM P WHERE S = ?`, sqltypes.NewString("gamma")); err != nil {
		t.Fatal(err)
	}
	phase(250)

	// Aggregates over index-served predicates.
	for i := 0; i < 50; i++ {
		c, a := randomPredicate(rng)
		runOne("SELECT COUNT(*), MIN(N), MAX(D) FROM P WHERE "+c, a, false, "", false)
	}

	// Declared keys: K has no named index, so whatever the planner picks
	// here is a PRIMARY KEY or UNIQUE constraint index. Without ORDER BY
	// the comparison is as sets — the serving index decides the order.
	keyPhase := func(iterations int) {
		for i := 0; i < iterations; i++ {
			var conds []string
			var args []sqltypes.Value
			for n := rng.Intn(2); n >= 0; n-- {
				c, a := randomKeyPredicate(rng)
				conds = append(conds, c)
				args = append(args, a...)
			}
			where := " WHERE " + strings.Join(conds, " AND ")
			switch rng.Intn(4) {
			case 0:
				runOne("SELECT A, B, U, V, W FROM K"+where, args, false, "", false)
			case 1: // the whole key: a total order, compared exactly
				dir := []string{"", " DESC"}[rng.Intn(2)]
				runOne(fmt.Sprintf("SELECT A, B, U, V, W FROM K%s ORDER BY A%s, B%s LIMIT %d",
					where, dir, dir, 1+rng.Intn(30)), args, true, "", false)
			case 2:
				desc := rng.Intn(2) == 0
				sql := "SELECT A, B, U, V, W FROM K" + where + " ORDER BY U"
				if desc {
					sql += " DESC"
				}
				runOne(sql, args, false, "U", desc)
			default:
				runOne("SELECT COUNT(*), MIN(B), MAX(U), MIN(V) FROM K"+where, args, false, "", false)
			}
		}
	}
	keyPhase(200)
	if _, err := db.Exec(`DELETE FROM K WHERE A BETWEEN ? AND ?`, sqltypes.NewInt(5), sqltypes.NewInt(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`UPDATE K SET A = A + 100, U = NULL WHERE W < ?`, sqltypes.NewInt(10)); err != nil {
		t.Fatal(err)
	}
	keyPhase(200)
	t.Logf("%d of %d statements planned a residual-free path", residualFree, statements)
	if residualFree < statements/4 {
		t.Fatalf("%d of %d statements planned a residual-free path: the key-range-only leg is vacuous", residualFree, statements)
	}
}

// TestPlannerPropertyDML: UPDATE/DELETE row selection through index
// paths must match the forced-scan selection, with at least a quarter
// of the statements on a residual-free path (whose key range alone
// picks the rows). Inside one explicit transaction, after an UPDATE
// that moves rows to new index keys, statements keyed on the old and
// the new value must see exactly the transaction's own writes: a
// latest-mode posting is current exactly when its row holds its key.
func TestPlannerPropertyDML(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mkDB := func(scanOnly bool) *DB {
		r := rand.New(rand.NewSource(99))
		db := buildPropertyDB(t, r, 300)
		db.SetFullScanOnly(scanOnly)
		return db
	}
	a, b := mkDB(false), mkDB(true)
	defer a.Close()
	defer b.Close()
	both := func(sql string, args []sqltypes.Value) {
		t.Helper()
		ra, ea := a.Exec(sql, args...)
		rb, eb := b.Exec(sql, args...)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("%s: error mismatch %v vs %v", sql, ea, eb)
		}
		if ea == nil && ra.RowsAffected != rb.RowsAffected {
			t.Fatalf("%s: affected %d (index) vs %d (scan)", sql, ra.RowsAffected, rb.RowsAffected)
		}
	}
	// Own writes: each key-changing UPDATE moves rows from old to new
	// (P.N through a named index, K.A through the PRIMARY KEY's leading
	// column); in the same transaction a SELECT, an UPDATE and a DELETE
	// keyed on the old value and then on the new one run on both
	// databases and must agree.
	type keyMove struct {
		table, col, other string // other: a column the inner UPDATE rewrites
		from, to          int64  // from: the column's least value
	}
	moves := []keyMove{{"P", "N", "D", 0, 555}, {"K", "A", "W", 0, 777}}
	for i, m := range moves {
		least, err := a.Query(fmt.Sprintf("SELECT MIN(%s) FROM %s", m.col, m.table))
		if err != nil {
			t.Fatal(err)
		}
		moves[i].from = least.Data[0][0].Int()
		if p := plannedPath(t, a, fmt.Sprintf("SELECT * FROM %s WHERE %s = ?", m.table, m.col)); p == nil || !p.residualFree {
			t.Fatalf("%s.%s = ?: path %v is not residual-free", m.table, m.col, p)
		}
	}
	ta, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Rollback() //nolint:errcheck // no-op after Commit; releases the lock on failure
	tb, err := b.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Rollback() //nolint:errcheck // as above
	inTx := func(sql string, args ...sqltypes.Value) int {
		t.Helper()
		if strings.HasPrefix(sql, "SELECT") {
			ra, ea := ta.Query(sql, args...)
			rb, eb := tb.Query(sql, args...)
			if ea != nil || eb != nil {
				t.Fatalf("%s %v: %v / %v", sql, args, ea, eb)
			}
			if rowsKey(ra, false) != rowsKey(rb, false) {
				t.Fatalf("%s %v: %d rows (index) vs %d (scan) inside the transaction", sql, args, len(ra.Data), len(rb.Data))
			}
			return len(ra.Data)
		}
		ra, ea := ta.Exec(sql, args...)
		rb, eb := tb.Exec(sql, args...)
		if ea != nil || eb != nil {
			t.Fatalf("%s %v: %v / %v", sql, args, ea, eb)
		}
		if ra.RowsAffected != rb.RowsAffected {
			t.Fatalf("%s %v: affected %d (index) vs %d (scan) inside the transaction", sql, args, ra.RowsAffected, rb.RowsAffected)
		}
		return ra.RowsAffected
	}
	for _, m := range moves {
		from, to := sqltypes.NewInt(m.from), sqltypes.NewInt(m.to)
		if n := inTx(fmt.Sprintf("UPDATE %s SET %s = ? WHERE %s = ?", m.table, m.col, m.col), to, from); n == 0 {
			t.Fatalf("no %s row moved from %s = %d: the own-writes case is vacuous", m.table, m.col, m.from)
		}
		sel := fmt.Sprintf("SELECT * FROM %s WHERE %s = ?", m.table, m.col)
		for _, v := range []sqltypes.Value{from, to} {
			inTx(sel, v)
			inTx(fmt.Sprintf("UPDATE %s SET %s = 999 WHERE %s = ?", m.table, m.other, m.col), v)
			inTx(sel, v)
		}
		for _, v := range []sqltypes.Value{from, to} {
			inTx(fmt.Sprintf("DELETE FROM %s WHERE %s = ?", m.table, m.col), v)
			inTx(sel, v)
		}
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}

	statements, residualFree := 0, 0
	tally := func(table, cond string) {
		statements++
		if p := plannedPath(t, a, "SELECT * FROM "+table+" WHERE "+cond); p != nil && p.residualFree {
			residualFree++
		}
	}
	for i := 0; i < 60; i++ {
		c, args := randomPredicate(rng)
		tally("P", c)
		var sql string
		if i%2 == 0 {
			sql = "UPDATE P SET D = 999 WHERE " + c
		} else {
			sql = "DELETE FROM P WHERE " + c
		}
		both(sql, args)
	}
	// The same through K's constraint indexes; W carries no constraint,
	// so the rewrite itself cannot be refused.
	for i := 0; i < 40; i++ {
		c, args := randomKeyPredicate(rng)
		tally("K", c)
		if i%2 == 0 {
			both("UPDATE K SET W = W + 1 WHERE "+c, args)
		} else {
			both("DELETE FROM K WHERE "+c, args)
		}
	}
	t.Logf("%d of %d statements planned a residual-free path", residualFree, statements)
	if residualFree < statements/4 {
		t.Fatalf("%d of %d statements planned a residual-free path: the key-range-only leg is vacuous", residualFree, statements)
	}

	for _, q := range []string{"SELECT * FROM P ORDER BY ID", "SELECT * FROM K ORDER BY A, B"} {
		ra, _ := a.Query(q)
		rb, _ := b.Query(q)
		if rowsKey(ra, true) != rowsKey(rb, true) {
			t.Fatalf("%s: databases diverged after DML through index vs scan paths", q)
		}
	}
}

// TestPlanInvalidationOnIndexDDL: cached plans must re-run the planner
// when indexes appear or disappear (schema epoch invalidation), and the
// chosen access path must follow.
func TestPlanInvalidationOnIndexDDL(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(`CREATE TABLE T (ID INTEGER PRIMARY KEY, N INTEGER, S VARCHAR(10));
		INSERT INTO T VALUES (1, 10, 'a'); INSERT INTO T VALUES (2, 20, 'b');
		INSERT INTO T VALUES (3, 30, 'c')`); err != nil {
		t.Fatal(err)
	}
	rangeStmt, err := db.Prepare(`SELECT ID FROM T WHERE N BETWEEN ? AND ? ORDER BY N`)
	if err != nil {
		t.Fatal(err)
	}
	eqStmt, err := db.Prepare(`SELECT ID FROM T WHERE S = ?`)
	if err != nil {
		t.Fatal(err)
	}
	expectPath := func(st *Stmt, want string) {
		t.Helper()
		got, err := st.AccessPath()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("AccessPath = %q, want %q", got, want)
		}
	}
	expectRows := func(st *Stmt, args []sqltypes.Value, want int) {
		t.Helper()
		rows, err := st.Query(args...)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Data) != want {
			t.Fatalf("%s: %d rows, want %d", st.Text(), len(rows.Data), want)
		}
	}
	rangeArgs := []sqltypes.Value{sqltypes.NewInt(15), sqltypes.NewInt(35)}

	expectPath(rangeStmt, "full-scan")
	expectRows(rangeStmt, rangeArgs, 2)

	if _, err := db.Exec(`CREATE INDEX IXN ON T (N)`); err != nil { // defaults to ORDERED
		t.Fatal(err)
	}
	expectPath(rangeStmt, "range(T.N) order")
	expectRows(rangeStmt, rangeArgs, 2)

	if _, err := db.Exec(`CREATE INDEX IXS ON T (S) USING HASH`); err != nil {
		t.Fatal(err)
	}
	expectPath(eqStmt, "eq(T.S)")
	expectRows(eqStmt, []sqltypes.Value{sqltypes.NewString("b")}, 1)

	if _, err := db.Exec(`DROP INDEX IXN`); err != nil {
		t.Fatal(err)
	}
	expectPath(rangeStmt, "full-scan")
	expectRows(rangeStmt, rangeArgs, 2)

	if _, err := db.Exec(`DROP INDEX IXS`); err != nil {
		t.Fatal(err)
	}
	expectPath(eqStmt, "full-scan")
	expectRows(eqStmt, []sqltypes.Value{sqltypes.NewString("b")}, 1)
}

// TestOrderedIndexReplay: CREATE INDEX ... USING survives the WAL/DDL
// log and the rebuilt index serves range scans after reopen.
func TestOrderedIndexReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript(`CREATE TABLE T (ID INTEGER PRIMARY KEY, N INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE INDEX IXN ON T (N) USING ORDERED`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(`INSERT INTO T VALUES (?, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i%50))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	st, err := db2.Prepare(`SELECT COUNT(*) FROM T WHERE N BETWEEN 10 AND 19`)
	if err != nil {
		t.Fatal(err)
	}
	// COUNT(*) over an exactly-consumed BETWEEN now plans as an
	// index-only aggregate on top of the replayed range path.
	if path, err := st.AccessPath(); err != nil || path != "range(T.N) index-only" {
		t.Fatalf("replayed path = %q err=%v, want range(T.N) index-only", path, err)
	}
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int(); got != 40 {
		t.Fatalf("COUNT = %d, want 40", got)
	}
}

// TestOrderedScanSatisfiesOrderBy: ORDER BY on an ordered-indexed
// column must be served by the in-order scan (no sort) in both
// directions, including the NULLs-first/last convention, and LIMIT must
// stop the scan early with correct results.
func TestOrderedScanSatisfiesOrderBy(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(`CREATE TABLE T (ID INTEGER PRIMARY KEY, N INTEGER);
		INSERT INTO T VALUES (1, 5); INSERT INTO T VALUES (2, NULL);
		INSERT INTO T VALUES (3, -2); INSERT INTO T VALUES (4, 9);
		INSERT INTO T VALUES (5, NULL); INSERT INTO T VALUES (6, 0)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE INDEX IXN ON T (N)`); err != nil {
		t.Fatal(err)
	}
	asc, err := db.Prepare(`SELECT ID FROM T ORDER BY N`)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := asc.AccessPath(); p != "ordered-scan(T.N) order" {
		t.Fatalf("asc path = %q", p)
	}
	rows, err := asc.Query()
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := func(r *Rows, want ...int64) {
		t.Helper()
		if len(r.Data) != len(want) {
			t.Fatalf("got %d rows, want %d", len(r.Data), len(want))
		}
		for i, w := range want {
			if r.Data[i][0].Int() != w {
				got := make([]int64, len(r.Data))
				for j := range r.Data {
					got[j] = r.Data[j][0].Int()
				}
				t.Fatalf("ID order %v, want %v", got, want)
			}
		}
	}
	wantIDs(rows, 2, 5, 3, 6, 1, 4) // NULLs first, then -2, 0, 5, 9

	desc, err := db.Prepare(`SELECT ID FROM T ORDER BY N DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := desc.AccessPath(); p != "ordered-scan(T.N) order-desc" {
		t.Fatalf("desc path = %q", p)
	}
	rows, err = desc.Query()
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(rows, 4, 1, 6) // 9, 5, 0 — NULLs last under DESC

	ranged, err := db.Prepare(`SELECT ID FROM T WHERE N >= 0 ORDER BY N DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := ranged.AccessPath(); p != "range(T.N) order-desc" {
		t.Fatalf("ranged path = %q", p)
	}
	rows, err = ranged.Query()
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(rows, 4, 1, 6)
}

// fuzzPathDB is FuzzIndexPathMatchesScan's table: INTEGER, DOUBLE,
// VARCHAR and TIMESTAMP columns holding the values key encoding has to
// get right — the ±2^53 boundary and the BIGINT edges, ±0, NaN, ±Inf
// and far doubles, text that reads as a number, a timestamp or neither,
// far timestamps, NULLs — under a single-column index on each and four
// composites, so a probe can be alone or behind an equality prefix.
func fuzzPathDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript(`CREATE TABLE F (ID INTEGER PRIMARY KEY, I BIGINT, D DOUBLE, S VARCHAR(30), TS TIMESTAMP)`); err != nil {
		t.Fatal(err)
	}
	i := sqltypes.NewInt
	d := sqltypes.NewDouble
	str := sqltypes.NewString
	ts := func(s string) sqltypes.Value {
		v, err := time.Parse("2006-01-02 15:04:05.999999999", s)
		if err != nil {
			t.Fatal(err)
		}
		return sqltypes.NewTime(v)
	}
	null := sqltypes.Null
	ints := []sqltypes.Value{i(0), i(1), i(-1), i(7), i(-7), i(1<<53 - 1), i(1 << 53), i(1<<53 + 1),
		i(1<<53 + 2), i(-(1 << 53)), i(-(1 << 53) - 1), i(math.MaxInt64), i(math.MaxInt64 - 1),
		i(math.MinInt64), i(math.MinInt64 + 1), i(1 << 62), null}
	doubles := []sqltypes.Value{d(0), d(math.Copysign(0, -1)), d(1.5), d(-1.5), d(7), d(math.NaN()),
		d(math.Inf(1)), d(math.Inf(-1)), d(1 << 53), d(1<<53 + 2), d(1e300), d(-1e300), d(1 << 63),
		d(-(1 << 63)), d(5e-324), null}
	strs := []sqltypes.Value{str(""), str("a"), str("a\x00"), str("a\x00b"), str("b"), str("5"), str("-5"),
		str("5.0"), str("1e3"), str("9007199254740993"), str("1999-01-10 15:09:32"), str("NaN"), str("zz"), null}
	times := []sqltypes.Value{ts("1999-01-10 15:09:32"), ts("1999-01-10 15:09:32.000000001"),
		ts("1970-01-01 00:00:00"), ts("1969-12-31 23:59:59.5"), ts("2262-04-12 00:00:00"),
		ts("0001-01-01 00:00:00"), ts("9999-12-31 23:59:59"), null}
	rng := rand.New(rand.NewSource(5))
	pick := func(vs []sqltypes.Value) sqltypes.Value { return vs[rng.Intn(len(vs))] }
	for id := 0; id < 240; id++ {
		if _, err := db.Exec(`INSERT INTO F VALUES (?, ?, ?, ?, ?)`,
			i(int64(id)), pick(ints), pick(doubles), pick(strs), pick(times)); err != nil {
			t.Fatal(err)
		}
	}
	for _, ddl := range []string{
		`CREATE INDEX F_I ON F (I)`, `CREATE INDEX F_D ON F (D)`, `CREATE INDEX F_S ON F (S)`,
		`CREATE INDEX F_TS ON F (TS)`, `CREATE INDEX F_SI ON F (S, I)`, `CREATE INDEX F_ID ON F (I, D)`,
		`CREATE INDEX F_TSS ON F (TS, S)`, `CREATE INDEX F_DTS ON F (D, TS)`,
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// fuzzProbe decodes one fuzzed probe: NULL, an INTEGER, a DOUBLE from
// its bits, text, or a TIMESTAMP whose seconds reach far past the years
// a nanosecond count can name.
func fuzzProbe(kind uint8, x uint64, s string) sqltypes.Value {
	switch kind % 5 {
	case 0:
		return sqltypes.Null
	case 1:
		return sqltypes.NewInt(int64(x))
	case 2:
		return sqltypes.NewDouble(math.Float64frombits(x))
	case 3:
		return sqltypes.NewString(s)
	default:
		return sqltypes.NewTime(time.Unix(int64(x)>>24, int64(x&0xffffff)).UTC())
	}
}

// FuzzIndexPathMatchesScan: a residual-free index path's key range is
// the predicate — no row it selects is tested against the WHERE again —
// so for any probe, under =, <, <=, >, >=, BETWEEN or IS [NOT] NULL,
// alone or behind an equality prefix, the path must select exactly the
// rows SetFullScanOnly's heap scan does, or fail with the same error.
func FuzzIndexPathMatchesScan(f *testing.F) {
	i, d := func(v int64) uint64 { return uint64(v) }, math.Float64bits
	const tInt, tDouble, tText, tTime = 1, 2, 3, 4
	for _, c := range []struct {
		shape, op uint8
		k1        uint8
		x1        uint64
		s1        string
		k2        uint8
		x2        uint64
		s2        string
		k3        uint8
		x3        uint64
		s3        string
	}{
		{0, 0, tInt, i(1<<53 + 1), "", 0, 0, "", 0, 0, ""},
		{0, 0, tDouble, d(1 << 53), "", 0, 0, "", 0, 0, ""},
		{0, 1, tText, 0, "9007199254740993", 0, 0, "", 0, 0, ""},
		{0, 5, tInt, i(math.MinInt64), "", tInt, i(-(1 << 53)), "", 0, 0, ""},
		{0, 4, tInt, i(math.MaxInt64), "", 0, 0, "", 0, 0, ""},
		{0, 3, tDouble, d(1 << 63), "", 0, 0, "", 0, 0, ""},
		{0, 2, tDouble, d(math.Inf(-1)), "", 0, 0, "", 0, 0, ""},
		{1, 0, tDouble, d(math.Copysign(0, -1)), "", 0, 0, "", 0, 0, ""},
		{1, 1, tDouble, d(math.NaN()), "", 0, 0, "", 0, 0, ""},
		{1, 2, tDouble, d(math.NaN()), "", 0, 0, "", 0, 0, ""},
		{1, 5, tInt, i(-7), "", tText, 0, "1e300", 0, 0, ""},
		{1, 3, tText, 0, "-0", 0, 0, "", 0, 0, ""},
		{1, 0, tText, 0, "abc", 0, 0, "", 0, 0, ""},
		{2, 0, tText, 0, "a\x00", 0, 0, "", 0, 0, ""},
		{2, 1, tInt, i(5), "", 0, 0, "", 0, 0, ""},
		{2, 5, tText, 0, "", tText, 0, "a\xff", 0, 0, ""},
		{3, 0, tText, 0, "1999-01-10 15:09:32", 0, 0, "", 0, 0, ""},
		{3, 3, tText, 0, "1999-01-10", 0, 0, "", 0, 0, ""},
		{3, 4, tText, 0, "garbage", 0, 0, "", 0, 0, ""},
		{3, 1, tTime, i(-62135596800 << 24), "", 0, 0, "", 0, 0, ""},
		{3, 5, tTime, i(0), "", tText, 0, "9999-12-31 23:59:59", 0, 0, ""},
		{0, 6, 0, 0, "", 0, 0, "", 0, 0, ""},
		{3, 7, 0, 0, "", 0, 0, "", 0, 0, ""},
		{0, 0, 0, 0, "", 0, 0, "", 0, 0, ""},
		{4, 0, tInt, i(1<<53 + 2), "", 0, 0, "", tText, 0, "5"},
		{4, 4, tDouble, d(1 << 53), "", 0, 0, "", tText, 0, "9007199254740993"},
		{4, 6, 0, 0, "", 0, 0, "", tText, 0, "a"},
		{5, 5, tDouble, d(-1.5), "", tDouble, d(1e300), "", tInt, i(math.MaxInt64), ""},
		{5, 1, tInt, i(7), "", 0, 0, "", tDouble, d(7), ""},
		{5, 7, 0, 0, "", 0, 0, "", 0, 0, ""},
		{6, 2, tText, 0, "zz", 0, 0, "", tText, 0, "1999-01-10 15:09:32"},
		{6, 0, tText, 0, "5", 0, 0, "", tText, 0, "garbage"},
		{7, 3, tText, 0, "1970-01-01", 0, 0, "", tDouble, d(math.NaN()), ""},
		{7, 6, 0, 0, "", 0, 0, "", tDouble, d(math.Inf(1)), ""},
		{4, 1, tText, 0, "garbage", 0, 0, "", 0, 0, ""},
	} {
		f.Add(c.shape, c.op, c.k1, c.x1, c.s1, c.k2, c.x2, c.s2, c.k3, c.x3, c.s3)
	}
	db := fuzzPathDB(f)
	defer db.Close()
	cols := []string{"I", "D", "S", "TS"}
	composites := [][2]string{{"S", "I"}, {"I", "D"}, {"TS", "S"}, {"D", "TS"}}
	ops := []string{"=", "<", "<=", ">", ">="}
	f.Fuzz(func(t *testing.T, shape, op, k1 uint8, x1 uint64, s1 string, k2 uint8, x2 uint64, s2 string, k3 uint8, x3 uint64, s3 string) {
		p1, p2 := fuzzProbe(k1, x1, s1), fuzzProbe(k2, x2, s2)
		var col, where string
		var args []sqltypes.Value
		if shape%8 < 4 {
			col = cols[shape%4]
		} else {
			c := composites[shape%4]
			col, where = c[1], c[0]+" = ? AND "
			args = append(args, fuzzProbe(k3, x3, s3))
		}
		switch o := op % 8; {
		case o < 5:
			where += col + " " + ops[o] + " ?"
			args = append(args, p1)
		case o == 5:
			where += col + " BETWEEN ? AND ?"
			args = append(args, p1, p2)
		case o == 6:
			where += col + " IS NULL"
		default:
			where += col + " IS NOT NULL"
		}
		sql := "SELECT ID FROM F WHERE " + where
		// Every shape plans a residual-free path but one: behind an
		// equality prefix, an IS [NOT] NULL loses to the prefix column's
		// own index (a point lookup outscores a null test), which leaves
		// the null test to the WHERE.
		prefixedNull := shape%8 >= 4 && op%8 >= 6
		if p := plannedPath(t, db, sql); p == nil || p.residualFree == prefixedNull {
			t.Fatalf("%s: planned path %v, residual-free %v", sql, p, p != nil && p.residualFree)
		}
		indexed, ierr := db.Query(sql, args...)
		db.SetFullScanOnly(true)
		scanned, serr := db.Query(sql, args...)
		db.SetFullScanOnly(false)
		if ierr != nil || serr != nil {
			if ierr == nil || serr == nil || ierr.Error() != serr.Error() {
				t.Fatalf("%s args=%v: index error %v, scan error %v", sql, args, ierr, serr)
			}
			return
		}
		if rowsKey(indexed, false) != rowsKey(scanned, false) {
			t.Fatalf("%s args=%v: index path %d rows, scan %d rows", sql, args, len(indexed.Data), len(scanned.Data))
		}
	})
}
