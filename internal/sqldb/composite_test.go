package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// buildCompositeDB: typed columns with NULLs and a mix of composite and
// single-column indexes over them.
func buildCompositeDB(t testing.TB, rng *rand.Rand, rows int) *DB {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript(`CREATE TABLE C (
		ID INTEGER PRIMARY KEY,
		A  INTEGER,
		B  INTEGER,
		S  VARCHAR(30),
		TS TIMESTAMP
	)`); err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO C VALUES (?, ?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"alpha", "beta", "gamma", "", "42"}
	maybeNull := func(v sqltypes.Value) sqltypes.Value {
		if rng.Intn(7) == 0 {
			return sqltypes.Null
		}
		return v
	}
	for i := 0; i < rows; i++ {
		_, err := ins.Exec(
			sqltypes.NewInt(int64(i)),
			maybeNull(sqltypes.NewInt(int64(rng.Intn(20)))),
			maybeNull(sqltypes.NewInt(int64(rng.Intn(50)-25))),
			maybeNull(sqltypes.NewString(words[rng.Intn(len(words))])),
			maybeNull(sqltypes.NewString(fmt.Sprintf("200%d-01-1%d 00:00:00", rng.Intn(10), rng.Intn(9)))),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, ddl := range []string{
		`CREATE INDEX CIX_AB ON C (A, B) USING ORDERED`,
		`CREATE INDEX CIX_SA ON C (S, A) USING HASH`,
		`CREATE INDEX CIX_TS ON C (TS) USING ORDERED`,
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestCompositeAccessPaths checks the planner's composite matching and
// its EXPLAIN strings, and that every path returns the same rows as the
// unindexed twin's scan.
func TestCompositeAccessPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := buildCompositeDB(t, rng, 400)
	defer db.Close()
	twin := scanTwin(t, db)

	cases := []struct {
		sql  string
		args []sqltypes.Value
		path string
	}{
		{`SELECT ID FROM C WHERE A = ? AND B = ?`,
			[]sqltypes.Value{sqltypes.NewInt(3), sqltypes.NewInt(7)}, "eq(C.A+B)"},
		{`SELECT ID FROM C WHERE B = ? AND A = ?`, // conjunct order immaterial
			[]sqltypes.Value{sqltypes.NewInt(7), sqltypes.NewInt(3)}, "eq(C.A+B)"},
		{`SELECT ID FROM C WHERE A = ? AND B BETWEEN ? AND ?`,
			[]sqltypes.Value{sqltypes.NewInt(3), sqltypes.NewInt(-5), sqltypes.NewInt(5)}, "range(C.A+B)"},
		{`SELECT ID FROM C WHERE A = ? AND B > ?`,
			[]sqltypes.Value{sqltypes.NewInt(3), sqltypes.NewInt(0)}, "range(C.A+B)"},
		{`SELECT ID FROM C WHERE A = ?`,
			[]sqltypes.Value{sqltypes.NewInt(3)}, "prefix(C.A)"},
		{`SELECT ID FROM C WHERE A = ? AND B IS NOT NULL`,
			[]sqltypes.Value{sqltypes.NewInt(3)}, "not-null(C.A+B)"},
		{`SELECT ID FROM C WHERE A = ? AND B IS NULL`,
			[]sqltypes.Value{sqltypes.NewInt(3)}, "null(C.A+B)"},
		{`SELECT ID FROM C WHERE S = ? AND A = ?`,
			[]sqltypes.Value{sqltypes.NewString("alpha"), sqltypes.NewInt(3)}, "eq(C.S+A)"},
		// Multi-key ORDER BY served by the composite index.
		{`SELECT ID FROM C ORDER BY A, B`, nil, "ordered-scan(C.A+B) order"},
		{`SELECT ID FROM C ORDER BY A DESC, B DESC`, nil, "ordered-scan(C.A+B) order-desc"},
		{`SELECT ID FROM C WHERE A = ? ORDER BY B`,
			[]sqltypes.Value{sqltypes.NewInt(3)}, "prefix(C.A) order"},
		{`SELECT ID FROM C WHERE A = ? AND B > ? ORDER BY B DESC`,
			[]sqltypes.Value{sqltypes.NewInt(3), sqltypes.NewInt(-10)}, "range(C.A+B) order-desc"},
		// Mixed directions cannot be served in order.
		{`SELECT ID FROM C WHERE A = ? ORDER BY B DESC, A`,
			[]sqltypes.Value{sqltypes.NewInt(3)}, "prefix(C.A)"},
	}
	for _, tc := range cases {
		st, err := db.Prepare(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.AccessPath()
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.path {
			t.Errorf("%s: path %q, want %q", tc.sql, got, tc.path)
		}
		indexed, err := st.Query(tc.args...)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		scanned, err := twin.Query(tc.sql, tc.args...)
		if err != nil {
			t.Fatalf("%s (scan): %v", tc.sql, err)
		}
		ordered := strings.Contains(tc.sql, "ORDER BY")
		if rowsKey(indexed, ordered) != rowsKey(scanned, ordered) {
			t.Errorf("%s: index path and scan disagree (%d vs %d rows)",
				tc.sql, len(indexed.Data), len(scanned.Data))
		}
	}
}

// TestIndexOnlyAggregates: COUNT over an exactly-consumed predicate
// must be answered without materialising any heap row; MIN/MAX beside
// it fold the rows the path finds. Results must equal the unindexed
// twin's.
func TestIndexOnlyAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := buildCompositeDB(t, rng, 600)
	defer db.Close()

	checkAgainstScan := func(sql string, args ...sqltypes.Value) *Rows {
		t.Helper()
		indexed, err := db.Query(sql, args...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		scanned, err := scanTwin(t, db).Query(sql, args...)
		if err != nil {
			t.Fatalf("%s (scan): %v", sql, err)
		}
		if rowsKey(indexed, true) != rowsKey(scanned, true) {
			t.Fatalf("%s: indexed %v != scan %v", sql, indexed.Data, scanned.Data)
		}
		return indexed
	}

	// COUNT(*) with a two-column equality: zero heap rows.
	st, err := db.Prepare(`SELECT COUNT(*) FROM C WHERE A = ? AND B = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st.AccessPath(); p != "eq(C.A+B) index-only" {
		t.Fatalf("path = %q, want eq(C.A+B) index-only", p)
	}
	before := db.HeapRowReads("C")
	checkAgainstScan(`SELECT COUNT(*) FROM C WHERE A = ? AND B = ?`, sqltypes.NewInt(4), sqltypes.NewInt(2))
	// Copying C into the twin read its heap; re-run only the indexed side.
	before = db.HeapRowReads("C")
	if _, err := st.Query(sqltypes.NewInt(4), sqltypes.NewInt(2)); err != nil {
		t.Fatal(err)
	}
	if got := db.HeapRowReads("C") - before; got != 0 {
		t.Fatalf("COUNT read %d heap rows, want 0", got)
	}

	// COUNT(*) + COUNT(col) + MIN/MAX over a prefix+range path.
	checkAgainstScan(`SELECT COUNT(*), COUNT(B), MIN(B), MAX(B) FROM C WHERE A = ? AND B BETWEEN ? AND ?`,
		sqltypes.NewInt(4), sqltypes.NewInt(-30), sqltypes.NewInt(30))

	// Strict bounds must stay exact in the index-only path.
	checkAgainstScan(`SELECT COUNT(*) FROM C WHERE A = ? AND B > ?`,
		sqltypes.NewInt(4), sqltypes.NewInt(0))
	checkAgainstScan(`SELECT COUNT(*) FROM C WHERE A = ? AND B < ?`,
		sqltypes.NewInt(4), sqltypes.NewInt(0))

	// IS NOT NULL / IS NULL shapes.
	checkAgainstScan(`SELECT COUNT(*), MIN(B) FROM C WHERE A = ? AND B IS NOT NULL`, sqltypes.NewInt(4))
	checkAgainstScan(`SELECT COUNT(*) FROM C WHERE A = ? AND B IS NULL`, sqltypes.NewInt(4))

	// No WHERE at all: COUNT(*) folds over the heap.
	rows := checkAgainstScan(`SELECT COUNT(*) FROM C`)
	if rows.Data[0][0].Int() != 600 {
		t.Fatalf("COUNT(*) = %v", rows.Data[0][0])
	}

	// MIN over the single-column ordered index.
	checkAgainstScan(`SELECT MIN(TS), MAX(TS), COUNT(TS) FROM C WHERE TS IS NOT NULL`)

	// NULL probe: no rows match, count 0, MIN NULL.
	rows = checkAgainstScan(`SELECT COUNT(*), MIN(B) FROM C WHERE A = ? AND B > ?`,
		sqltypes.Null, sqltypes.NewInt(0))
	if rows.Data[0][0].Int() != 0 || !rows.Data[0][1].IsNull() {
		t.Fatalf("NULL probe gave %v", rows.Data[0])
	}

	// Far probes are exact keys: answered from the index, equal to the scan.
	if _, err := db.Exec(`INSERT INTO C VALUES (?, ?, ?, ?, ?)`,
		sqltypes.NewInt(100001), sqltypes.NewInt(1<<53), sqltypes.NewInt(1), sqltypes.Null, sqltypes.Null); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO C VALUES (?, ?, ?, ?, ?)`,
		sqltypes.NewInt(100002), sqltypes.NewInt(1<<53+2), sqltypes.NewInt(1), sqltypes.Null, sqltypes.Null); err != nil {
		t.Fatal(err)
	}
	checkAgainstScan(`SELECT COUNT(*) FROM C WHERE A = ? AND B = ?`,
		sqltypes.NewInt(1<<53), sqltypes.NewInt(1))

	// A strict bound on a far B is exact too: answered index-only, with
	// zero heap reads, and equal to the scan.
	for i, b := range []int64{1 << 53, 1<<53 + 1, 1<<53 + 2} {
		if _, err := db.Exec(`INSERT INTO C VALUES (?, ?, ?, ?, ?)`,
			sqltypes.NewInt(int64(100003+i)), sqltypes.NewInt(7), sqltypes.NewInt(b), sqltypes.Null, sqltypes.Null); err != nil {
			t.Fatal(err)
		}
	}
	strict, err := db.Prepare(`SELECT COUNT(*) FROM C WHERE A = ? AND B > ?`)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := strict.AccessPath(); !strings.HasSuffix(p, " index-only") {
		t.Fatalf("path = %q, want index-only", p)
	}
	before = db.HeapRowReads("C")
	if rows, err = strict.Query(sqltypes.NewInt(7), sqltypes.NewInt(1<<53)); err != nil {
		t.Fatal(err)
	}
	if got := db.HeapRowReads("C") - before; got != 0 || rows.Data[0][0].Int() != 2 {
		t.Fatalf("far strict bound: COUNT %v from %d heap reads, want 2 from 0", rows.Data[0][0], got)
	}
	checkAgainstScan(`SELECT COUNT(*) FROM C WHERE A = ? AND B > ?`, sqltypes.NewInt(7), sqltypes.NewInt(1<<53))

	// A residual-bearing WHERE must NOT be answered index-only.
	st2, err := db.Prepare(`SELECT COUNT(*) FROM C WHERE A = ? AND S LIKE 'a%'`)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st2.AccessPath(); strings.Contains(p, "index-only") {
		t.Fatalf("residual-bearing plan claims index-only: %q", p)
	}
	checkAgainstScan(`SELECT COUNT(*) FROM C WHERE A = ? AND S LIKE 'a%'`, sqltypes.NewInt(4))
}

// TestCompositeIndexReplay: multi-column CREATE INDEX survives the DDL
// log and serves the same plans after reopen.
func TestCompositeIndexReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript(`CREATE TABLE T (ID INTEGER PRIMARY KEY, A INTEGER, B INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE INDEX IX_AB ON T (A, B)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := db.Exec(`INSERT INTO T VALUES (?, ?, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i%10)), sqltypes.NewInt(int64(i%30))); err != nil {
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
	st, err := db2.Prepare(`SELECT COUNT(*) FROM T WHERE A = ? AND B = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st.AccessPath(); p != "eq(T.A+B) index-only" {
		t.Fatalf("replayed path = %q", p)
	}
	rows, err := st.Query(sqltypes.NewInt(3), sqltypes.NewInt(13))
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int(); got != 10 {
		t.Fatalf("COUNT = %d, want 10", got)
	}
}

// TestPlannerPropertyCompositeVsScan: random predicates over composite
// and single indexes, SELECT and DML, must match the unindexed twin.
func TestPlannerPropertyCompositeVsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))

	randPred := func() (string, []sqltypes.Value) {
		a := func() sqltypes.Value { return sqltypes.NewInt(int64(rng.Intn(20))) }
		b := func() sqltypes.Value { return sqltypes.NewInt(int64(rng.Intn(50) - 25)) }
		switch rng.Intn(10) {
		case 0:
			return "A = ? AND B = ?", []sqltypes.Value{a(), b()}
		case 1:
			lo := rng.Intn(50) - 25
			return "A = ? AND B BETWEEN ? AND ?", []sqltypes.Value{a(),
				sqltypes.NewInt(int64(lo)), sqltypes.NewInt(int64(lo + rng.Intn(20)))}
		case 2:
			return "A = ? AND B >= ?", []sqltypes.Value{a(), b()}
		case 3:
			return "A = ? AND B < ?", []sqltypes.Value{a(), b()}
		case 4:
			return "A = ?", []sqltypes.Value{a()}
		case 5:
			return "A = ? AND B IS NULL", []sqltypes.Value{a()}
		case 6:
			return "A = ? AND B IS NOT NULL", []sqltypes.Value{a()}
		case 7:
			words := []string{"alpha", "beta", "", "42", "zz"}
			return "S = ? AND A = ?", []sqltypes.Value{
				sqltypes.NewString(words[rng.Intn(len(words))]), a()}
		case 8:
			return "B = ? AND A = ?", []sqltypes.Value{b(), a()}
		default:
			return "A = ? AND B = ? AND S IS NOT NULL", []sqltypes.Value{a(), b()}
		}
	}

	t.Run("select", func(t *testing.T) {
		db := buildCompositeDB(t, rand.New(rand.NewSource(23)), 500)
		defer db.Close()
		twin := scanTwin(t, db)
		for i := 0; i < 300; i++ {
			cond, args := randPred()
			sql := "SELECT ID, A, B, S FROM C WHERE " + cond
			ordered := false
			switch rng.Intn(3) {
			case 1:
				sql += " ORDER BY A, B"
			case 2:
				sql += " ORDER BY B DESC"
			}
			if rng.Intn(4) == 0 {
				sql = "SELECT COUNT(*), MIN(B), MAX(B) FROM C WHERE " + cond
				ordered = true
			}
			indexed, ierr := db.Query(sql, args...)
			scanned, serr := twin.Query(sql, args...)
			if (ierr == nil) != (serr == nil) {
				t.Fatalf("%s: error mismatch %v vs %v", sql, ierr, serr)
			}
			if ierr != nil {
				continue
			}
			if rowsKey(indexed, ordered) != rowsKey(scanned, ordered) {
				t.Fatalf("%s args=%v: index %d rows, scan %d rows",
					sql, args, len(indexed.Data), len(scanned.Data))
			}
		}
	})

	t.Run("dml", func(t *testing.T) {
		a := buildCompositeDB(t, rand.New(rand.NewSource(29)), 400)
		defer a.Close()
		b := scanTwin(t, a)
		for i := 0; i < 80; i++ {
			cond, args := randPred()
			var sql string
			if i%2 == 0 {
				sql = "UPDATE C SET S = 'mut' WHERE " + cond
			} else {
				sql = "DELETE FROM C WHERE " + cond
			}
			ra, ea := a.Exec(sql, args...)
			rb, eb := b.Exec(sql, args...)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("%s: error mismatch %v vs %v", sql, ea, eb)
			}
			if ea == nil && ra.RowsAffected != rb.RowsAffected {
				t.Fatalf("%s: affected %d vs %d", sql, ra.RowsAffected, rb.RowsAffected)
			}
		}
		ra, _ := a.Query("SELECT * FROM C ORDER BY ID")
		rb, _ := b.Query("SELECT * FROM C ORDER BY ID")
		if rowsKey(ra, true) != rowsKey(rb, true) {
			t.Fatal("databases diverged after DML through composite vs scan paths")
		}
	})
}

// TestOrderedIndexDeleteReclaim: hollow leaves are merged away on
// delete, so a delete-heavy workload cannot leave the tree full of dead
// nodes; lookups and scans stay correct throughout.
func TestOrderedIndexDeleteReclaim(t *testing.T) {
	schema := &TableSchema{Name: "X", Cols: []Column{{Name: "K", Type: sqltypes.TypeInfo{Kind: sqltypes.KindInt}}}}
	schema.rebuildIndex()
	ix := newOrderedIndex("IX", schema, []string{"K"})

	const n = 20000
	key := func(k int64) string { return encodeKey(sqltypes.NewInt(k)) }
	slots := make([]*rowSlot, n)
	for i := int64(0); i < n; i++ {
		slots[i] = &rowSlot{id: rowID(i)}
		ix.insertKey(key(i), slots[i])
	}
	full := ix.nodeCount()
	if full < n/btreeLeafMax {
		t.Fatalf("tree suspiciously small: %d nodes", full)
	}
	// The load was monotonic, so every split was at the right edge and
	// left a full leaf behind: the tree is within a tenth of the densest
	// possible, not the twice of leaves split down the middle.
	if full > n/btreeLeafMax*11/10 {
		t.Fatalf("sequential load left %d nodes for %d keys, want at most %d", full, n, n/btreeLeafMax*11/10)
	}
	// Delete everything: the tree must collapse back to a single node.
	for i := int64(0); i < n; i++ {
		ix.removeEntry(key(i), slots[i])
	}
	if got := ix.nodeCount(); got != 1 {
		t.Fatalf("after deleting all keys: %d nodes, want 1 (was %d)", got, full)
	}
	// And it must still be a working index.
	ix.insertKey(key(42), &rowSlot{id: 1})
	if ss := ix.lookupKey(key(42)); len(ss) != 1 || ss[0].id != 1 {
		t.Fatalf("lookup after reclaim: %v", ss)
	}

	// Interleaved random inserts/deletes against a map oracle.
	rng := rand.New(rand.NewSource(41))
	ix2 := newOrderedIndex("IX2", schema, []string{"K"})
	oracle := map[int64][]*rowSlot{}
	nextID := rowID(1)
	for op := 0; op < 30000; op++ {
		k := int64(rng.Intn(500))
		if rng.Intn(3) > 0 && len(oracle[k]) == 0 || rng.Intn(2) == 0 {
			s := &rowSlot{id: nextID}
			ix2.insertKey(key(k), s)
			oracle[k] = append(oracle[k], s)
			nextID++
		} else if ss := oracle[k]; len(ss) > 0 {
			j := rng.Intn(len(ss))
			ix2.removeEntry(key(k), ss[j])
			oracle[k] = append(ss[:j], ss[j+1:]...)
		}
	}
	for k, want := range oracle {
		got := ix2.lookupKey(key(k))
		if len(got) != len(want) {
			t.Fatalf("key %d: %d ids, want %d", k, len(got), len(want))
		}
	}
	// In-order scan yields sorted, live keys only.
	prev := ""
	keys := 0
	ix2.scanRange(nil, nil, false, func(k string, ss []*rowSlot) bool {
		if len(ss) == 0 {
			t.Fatalf("empty id list under key %q", k)
		}
		if k <= prev && prev != "" {
			t.Fatal("scan out of order")
		}
		prev = k
		keys++
		return true
	})
	live := 0
	for _, ids := range oracle {
		if len(ids) > 0 {
			live++
		}
	}
	if keys != live {
		t.Fatalf("scan saw %d keys, oracle has %d live", keys, live)
	}

	// End-to-end: a delete-heavy SQL workload stays correct.
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(`CREATE TABLE D (ID INTEGER PRIMARY KEY, N INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE INDEX DIX ON D (N)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if _, err := db.Exec(`INSERT INTO D VALUES (?, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(`DELETE FROM D WHERE N >= ? AND N < ?`,
		sqltypes.NewInt(0), sqltypes.NewInt(4900)); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT COUNT(*) FROM D WHERE N BETWEEN ? AND ?`,
		sqltypes.NewInt(0), sqltypes.NewInt(10000))
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int(); got != 100 {
		t.Fatalf("COUNT after delete-heavy workload = %d, want 100", got)
	}
}
