package sqldb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

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
// ID column.
func TestPlannerPropertyIndexVsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := buildPropertyDB(t, rng, 500)
	defer db.Close()

	runOne := func(sql string, args []sqltypes.Value, exactOrder bool, orderCol string, desc bool) {
		t.Helper()
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
}

// TestPlannerPropertyDML: UPDATE/DELETE row selection through index
// paths must match the forced-scan selection.
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
	for i := 0; i < 60; i++ {
		c, args := randomPredicate(rng)
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
		if i%2 == 0 {
			both("UPDATE K SET W = W + 1 WHERE "+c, args)
		} else {
			both("DELETE FROM K WHERE "+c, args)
		}
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
