package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// TestGroupAggPlanStrings checks the aggregation strategy surfaces in
// AccessPath: every GROUP BY folds through the hash table, on whatever
// path the WHERE clause chose (an index clustering the group columns
// included), and a groupless query folds one accumulator.
func TestGroupAggPlanStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := buildCompositeDB(t, rng, 300)
	defer db.Close()
	cases := []struct {
		sql  string
		want string
	}{
		// No WHERE: a heap scan, even where an index leads with the
		// group columns and holds every aggregate argument.
		{`SELECT A, COUNT(*) FROM C GROUP BY A`, "full-scan hash-agg"},
		{`SELECT A, B, COUNT(*), SUM(B) FROM C GROUP BY A, B`, "full-scan hash-agg"},
		{`SELECT A, MIN(TS) FROM C GROUP BY A`, "full-scan hash-agg"},
		// The WHERE clause's path serves the grouped fold like any other
		// source.
		{`SELECT A, COUNT(*) FROM C WHERE A = ? GROUP BY A`, "prefix(C.A) hash-agg"},
		// B leads no index: the residual WHERE rides a heap scan.
		{`SELECT A, COUNT(*) FROM C WHERE B > ? GROUP BY A`, "full-scan hash-agg"},
		{`SELECT B, COUNT(*) FROM C GROUP BY B`, "full-scan hash-agg"},
		{`SELECT S, COUNT(*) FROM C GROUP BY S`, "full-scan hash-agg"},
		{`SELECT A + 1, COUNT(*) FROM C GROUP BY A + 1`, "full-scan hash-agg"},
		// Aggregate-only query: one accumulator, no grouping at all.
		{`SELECT COUNT(*), AVG(B) FROM C WHERE B > ?`, "full-scan agg-fold"},
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
		if got != tc.want {
			t.Errorf("%s: path %q, want %q", tc.sql, got, tc.want)
		}
	}
}

// TestGroupAggPropertyStrategies: every aggregated query must return
// what the reference evaluator returns, on index paths and on the full
// scan, across GROUP BY / HAVING / ORDER BY / LIMIT / OFFSET combinations
// with NULLs in both group keys and aggregate arguments: a rollup over a
// covering index with NULL sizes, group keys beyond ±2^53, ten rows of
// 0.1 (a double SUM must round as row-by-row addition does) and LIMIT
// windows over a GROUP BY with no ORDER BY.
func TestGroupAggPropertyStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := buildCompositeDB(t, rng, 500)
	defer db.Close()
	if err := db.ExecScript(`
		CREATE TABLE R (ID INTEGER PRIMARY KEY, SIM VARCHAR(20), TS INTEGER, SZ INTEGER);
		CREATE TABLE F (ID INTEGER PRIMARY KEY, K INTEGER, V INTEGER);
		CREATE TABLE P (ID INTEGER PRIMARY KEY, G INTEGER, V DOUBLE);
		CREATE TABLE GL (ID INTEGER PRIMARY KEY, G VARCHAR(8), V INTEGER)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		sz := sqltypes.NewInt(int64(i) * 3)
		if i%17 == 0 {
			sz = sqltypes.Null
		}
		mustExec(t, db, `INSERT INTO R VALUES (?, ?, ?, ?)`, sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("S%02d", i%20)), sqltypes.NewInt(int64(i/20)), sz)
	}
	for i, k := range []int64{1, 1, 1 << 53, 1<<53 + 2, 5} {
		mustExec(t, db, `INSERT INTO F VALUES (?, ?, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(k), sqltypes.NewInt(int64(i)*10))
	}
	for i := 0; i < 10; i++ {
		mustExec(t, db, `INSERT INTO P VALUES (?, 1, ?)`, sqltypes.NewInt(int64(i)), sqltypes.NewDouble(0.1))
	}
	for g := 0; g < 100; g++ {
		for j := 0; j < 20; j++ {
			mustExec(t, db, `INSERT INTO GL VALUES (?, ?, ?)`,
				sqltypes.NewInt(int64(g*20+j)), sqltypes.NewString(fmt.Sprintf("G%03d", g)), sqltypes.NewInt(int64(j)))
		}
	}
	for _, ddl := range []string{
		`CREATE INDEX R_COVER ON R (SIM, TS, SZ) USING ORDERED`,
		`CREATE INDEX F_KV ON F (K, V) USING ORDERED`,
		`CREATE INDEX P_GV ON P (G, V) USING ORDERED`,
		`CREATE INDEX GL_G ON GL (G) USING ORDERED`,
	} {
		mustExec(t, db, ddl)
	}
	queries := []struct {
		sql  string
		args []sqltypes.Value
	}{
		{`SELECT A, COUNT(*), SUM(B), AVG(B), MIN(B), MAX(B) FROM C GROUP BY A`, nil},
		{`SELECT A, B, COUNT(*) FROM C GROUP BY A, B`, nil},
		{`SELECT B, COUNT(*), MIN(A) FROM C GROUP BY B`, nil},
		{`SELECT S, COUNT(*), COUNT(S) FROM C GROUP BY S`, nil},
		{`SELECT A, COUNT(*) FROM C WHERE B > ? GROUP BY A`,
			[]sqltypes.Value{sqltypes.NewInt(0)}},
		{`SELECT A, COUNT(*) FROM C WHERE A = ? GROUP BY A`,
			[]sqltypes.Value{sqltypes.NewInt(3)}},
		{`SELECT A, COUNT(*) FROM C GROUP BY A HAVING COUNT(*) > ?`,
			[]sqltypes.Value{sqltypes.NewInt(10)}},
		{`SELECT A, SUM(B) FROM C GROUP BY A HAVING SUM(B) > ? ORDER BY A DESC LIMIT 5`,
			[]sqltypes.Value{sqltypes.NewInt(-100)}},
		{`SELECT A FROM C GROUP BY A ORDER BY COUNT(*) DESC, A LIMIT 7`, nil},
		{`SELECT A, COUNT(*) + SUM(B) FROM C GROUP BY A`, nil},
		{`SELECT A + 1, COUNT(*) FROM C GROUP BY A + 1`, nil},
		{`SELECT A, MAX(TS) FROM C GROUP BY A ORDER BY A LIMIT 4 OFFSET 2`, nil},
		{`SELECT COUNT(*), AVG(B), MIN(TS), MAX(S) FROM C`, nil},
		{`SELECT COUNT(*), SUM(B) FROM C WHERE A = ? AND B = ?`,
			[]sqltypes.Value{sqltypes.NewInt(2), sqltypes.NewInt(5)}},
		// Empty input: the groupless fold still yields its one group...
		{`SELECT COUNT(*), SUM(B) FROM C WHERE A = ?`,
			[]sqltypes.Value{sqltypes.NewInt(9999)}},
		// ...and a grouped query yields none.
		{`SELECT A, COUNT(*) FROM C WHERE A = ? GROUP BY A`,
			[]sqltypes.Value{sqltypes.NewInt(9999)}},
		{`SELECT UPPER(S), MIN(B) FROM C GROUP BY S ORDER BY S LIMIT 3`, nil},
		{`SELECT SIM, COUNT(*), COUNT(SZ), SUM(SZ), AVG(SZ), MIN(TS), MAX(TS)
			FROM R GROUP BY SIM HAVING COUNT(*) > 1 ORDER BY SIM`, nil},
		{`SELECT K, COUNT(*), SUM(V) FROM F GROUP BY K`, nil},
		{`SELECT G, SUM(V), AVG(V) FROM P GROUP BY G`, nil},
		{`SELECT G, SUM(V) FROM GL GROUP BY G LIMIT 3`, nil},
		{`SELECT G, SUM(V) FROM GL GROUP BY G LIMIT 3 OFFSET 2`, nil},
		{`SELECT G, SUM(V) FROM GL GROUP BY G HAVING SUM(V) > 0 LIMIT 3`, nil},
	}
	ref := newRefEval(db)
	for _, q := range queries {
		ref.check(t, q.sql, q.args...)
	}
}

// TestGroupKeyDistinctness: the group-key encoding must keep NULL, the
// empty string and 0 vs '0' in distinct groups (the risk of any string-keyed map,
// which this regression test pins down), in every strategy and for
// multi-column keys whose components could smear into each other.
func TestGroupKeyDistinctness(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(`CREATE TABLE G (
		ID INTEGER PRIMARY KEY, S VARCHAR(10), T VARCHAR(10), N INTEGER)`); err != nil {
		t.Fatal(err)
	}
	ins := func(id int, s, tt, n sqltypes.Value) {
		t.Helper()
		if _, err := db.Exec(`INSERT INTO G VALUES (?, ?, ?, ?)`,
			sqltypes.NewInt(int64(id)), s, tt, n); err != nil {
			t.Fatal(err)
		}
	}
	null := sqltypes.Null
	ins(1, null, sqltypes.NewString("x"), sqltypes.NewInt(0))
	ins(2, sqltypes.NewString(""), sqltypes.NewString("x"), null)
	ins(3, sqltypes.NewString("0"), sqltypes.NewString("x"), null)
	ins(4, null, sqltypes.NewString("x"), null)
	// Multi-column ambiguity: ('', NULL) vs (NULL, '').
	ins(5, sqltypes.NewString(""), null, null)
	ins(6, null, sqltypes.NewString(""), null)
	// Ordered index so the streaming strategy exercises the same keys.
	if _, err := db.Exec(`CREATE INDEX G_S ON G (S) USING ORDERED`); err != nil {
		t.Fatal(err)
	}
	ref := newRefEval(db)
	check := func(sql string, wantGroups int) {
		t.Helper()
		// fold ≡ hash ≡ reference, and the reference finds wantGroups.
		if got := len(ref.check(t, sql).rows()); got != wantGroups {
			t.Fatalf("%s: %d groups, want %d", sql, got, wantGroups)
		}
	}
	// NULL vs '' vs '0' are three distinct single-column groups.
	check(`SELECT S, COUNT(*) FROM G GROUP BY S`, 3)
	// ('', NULL-in-T rows fold by T): ('x') vs ('') vs (NULL).
	check(`SELECT T, COUNT(*) FROM G GROUP BY T`, 3)
	// Component boundaries stay unambiguous: ('', NULL) != (NULL, '').
	check(`SELECT S, T, COUNT(*) FROM G WHERE ID >= 5 GROUP BY S, T`, 2)
	// INTEGER 0 vs VARCHAR '0' (mixed kinds via COALESCE) stay apart.
	check(`SELECT COALESCE(N, S), COUNT(*) FROM G WHERE ID IN (1, 2, 3) GROUP BY COALESCE(N, S)`, 3)
}

// TestAggFoldMinMaxBoundaryRow: MIN/MAX over a residual-free index path
// fold the rows the path finds, and must answer like a full scan for
// every kind (INTEGER in and beyond the exact window, VARCHAR,
// TIMESTAMP, DOUBLE and its shared ±0.0 key).
func TestAggFoldMinMaxBoundaryRow(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(`CREATE TABLE M (
		ID INTEGER PRIMARY KEY, N INTEGER, S VARCHAR(20), TS TIMESTAMP, D DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO M VALUES (?, ?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		n := sqltypes.NewInt(int64(i%37 - 18))
		if i%11 == 0 {
			n = sqltypes.Null
		}
		if _, err := ins.Exec(
			sqltypes.NewInt(int64(i)), n,
			sqltypes.NewString(fmt.Sprintf("s%03d", i%50)),
			sqltypes.NewString(fmt.Sprintf("200%d-01-1%d 00:00:00", i%10, i%9)),
			sqltypes.NewDouble(float64(i)-100.5)); err != nil {
			t.Fatal(err)
		}
	}
	for _, ddl := range []string{
		`CREATE INDEX M_N ON M (N) USING ORDERED`,
		`CREATE INDEX M_S ON M (S) USING ORDERED`,
		`CREATE INDEX M_TS ON M (TS) USING ORDERED`,
		`CREATE INDEX M_D ON M (D) USING ORDERED`,
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	check := func(sql string, args ...sqltypes.Value) {
		t.Helper()
		indexed, err := db.Query(sql, args...)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := scanTwin(t, db).Query(sql, args...)
		if err != nil {
			t.Fatal(err)
		}
		if rowsKey(indexed, true) != rowsKey(oracle, true) {
			t.Fatalf("%s: indexed %v != scan %v", sql, indexed.Data, oracle.Data)
		}
	}
	check(`SELECT MIN(N), MAX(N) FROM M WHERE N > ?`, sqltypes.NewInt(-10))
	check(`SELECT MIN(N) FROM M WHERE N IS NOT NULL`)
	check(`SELECT MIN(S), MAX(S) FROM M WHERE S IS NOT NULL`)
	check(`SELECT MIN(TS), MAX(TS) FROM M WHERE TS IS NOT NULL`)
	check(`SELECT MIN(D), MAX(D) FROM M WHERE D > ?`, sqltypes.NewDouble(-1000))

	// Far-integer boundary: distinct integers beyond 2^53 have distinct
	// keys, so the maximum's row is the exact integer.
	if _, err := db.Exec(`INSERT INTO M VALUES (1000, ?, 'far', '2009-01-11 00:00:00', 1.5)`,
		sqltypes.NewInt(1<<53)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO M VALUES (1001, ?, 'far', '2009-01-11 00:00:00', 1.5)`,
		sqltypes.NewInt(1<<53+2)); err != nil {
		t.Fatal(err)
	}
	check(`SELECT MAX(N) FROM M WHERE N IS NOT NULL`)

	// ±0.0 share one key: the answer names the stored sign.
	if _, err := db.Exec(`INSERT INTO M VALUES (1002, 1, 'z', '2009-01-12 00:00:00', ?)`,
		sqltypes.NewDouble(math.Copysign(0, -1))); err != nil {
		t.Fatal(err)
	}
	check(`SELECT MIN(D) FROM M WHERE D BETWEEN ? AND ?`,
		sqltypes.NewDouble(-0.25), sqltypes.NewDouble(0.25))
}

// TestAggFoldErrorParity: malformed aggregate usage must fail — and
// sound usage over the same rows must not — through the fold pipeline
// exactly where the reference evaluator fails. An integer SUM whose
// exact value leaves the BIGINT range fails instead of wrapping, grouped
// or not, whatever order the rows are summed in, while AVG over the
// same rows answers.
func TestAggFoldErrorParity(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(`CREATE TABLE E (ID INTEGER PRIMARY KEY, S VARCHAR(10));
		INSERT INTO E VALUES (1, 'a'); INSERT INTO E VALUES (2, 'b');
		CREATE TABLE O (ID INTEGER PRIMARY KEY, G INTEGER, V BIGINT)`); err != nil {
		t.Fatal(err)
	}
	for i, gv := range [][2]int64{
		{1, 1 << 62}, {1, 1 << 62}, {1, 1 << 62}, // 3·2^62 > MaxInt64
		{2, 1 << 62}, {2, 1 << 62}, {2, -(1 << 62)}, {2, 5}, // passes 2^63 in heap order, not in index order
		{3, math.MinInt64}, {3, -1}, {3, 0}, {3, 0}, // one below MinInt64
	} {
		mustExec(t, db, `INSERT INTO O VALUES (?, ?, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(gv[0]), sqltypes.NewInt(gv[1]))
	}
	mustExec(t, db, `CREATE INDEX O_GV ON O (G, V)`)
	ref := newRefEval(db)
	for _, tc := range []struct {
		sql     string
		wantErr bool
	}{
		{`SELECT SUM(S) FROM E`, true},                 // non-numeric SUM
		{`SELECT COUNT(ID, S) FROM E`, true},           // arity
		{`SELECT SUM(S) FROM E WHERE ID > 100`, false}, // empty input: SUM is NULL
		{`SELECT MIN(S) FROM E GROUP BY S`, false},
		// The erroring aggregate belongs only to groups HAVING discards:
		// nothing asks for it, so the fold must defer the error and
		// return the empty result.
		{`SELECT S, SUM(S) FROM E GROUP BY S HAVING COUNT(*) > 100`, false},
		{`SELECT SUM(V) FROM O WHERE G = 1`, true},
		{`SELECT SUM(V) FROM O WHERE G = 3`, true},
		{`SELECT SUM(V) FROM O WHERE G = 2`, false},
		{`SELECT AVG(V) FROM O WHERE G = 1`, false},
		{`SELECT G, SUM(V) FROM O GROUP BY G`, true},
		{`SELECT G, SUM(V) FROM O GROUP BY G HAVING COUNT(*) = 4 AND MAX(V) > 0`, false},
	} {
		if res := ref.check(t, tc.sql); (res == nil) != tc.wantErr {
			t.Fatalf("%s: error = %v, want %v", tc.sql, res == nil, tc.wantErr)
		}
	}
}

// TestFarIntegerGroupsStayApart: integers beyond ±2^53 that share a
// float64 image are distinct values, so DISTINCT and GROUP BY must keep
// them apart — with and without an index on the group column, whose
// groups come out in first-seen order either way.
func TestFarIntegerGroupsStayApart(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE T (ID BIGINT, V VARCHAR(10))`)
	for i, id := range []int64{1<<53 + 1, 1 << 53, 1 << 53} {
		mustExec(t, db, `INSERT INTO T VALUES (?, ?)`, sqltypes.NewInt(id), sqltypes.NewString(fmt.Sprintf("v%d", i)))
	}
	ref := newRefEval(db)
	check := func(wants map[string]string) {
		t.Helper()
		for sql, want := range wants {
			ref.check(t, sql)
			rows := mustQuery(t, db, sql)
			var got []string
			for _, row := range rows.Data {
				cells := make([]string, len(row))
				for i, v := range row {
					cells[i] = v.AsString()
				}
				got = append(got, strings.Join(cells, ","))
			}
			if g := strings.Join(got, "|"); g != want {
				t.Errorf("%s: %s, want %s", sql, g, want)
			}
		}
	}
	check(map[string]string{
		`SELECT DISTINCT ID FROM T`:                      "9007199254740993|9007199254740992",
		`SELECT ID, COUNT(*) FROM T GROUP BY ID`:         "9007199254740993,1|9007199254740992,2",
		`SELECT ID, MIN(V) FROM T GROUP BY ID`:           "9007199254740993,v0|9007199254740992,v1",
		`SELECT ID, COUNT(*) FROM T GROUP BY ID LIMIT 5`: "9007199254740993,1|9007199254740992,2",
	})
	mustExec(t, db, `CREATE INDEX T_ID ON T (ID)`)
	for sql, want := range map[string]string{
		`SELECT ID, COUNT(*) FROM T GROUP BY ID`: "full-scan hash-agg",
		`SELECT ID, MIN(V) FROM T GROUP BY ID`:   "full-scan hash-agg",
	} {
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := st.AccessPath(); p != want {
			t.Fatalf("%s: path %q, want %q", sql, p, want)
		}
	}
	// A GROUP BY without ORDER BY keeps first-seen order on the index
	// too: the index is not its source.
	check(map[string]string{
		`SELECT DISTINCT ID FROM T`:                      "9007199254740993|9007199254740992",
		`SELECT ID, COUNT(*) FROM T GROUP BY ID`:         "9007199254740993,1|9007199254740992,2",
		`SELECT ID, MIN(V) FROM T GROUP BY ID`:           "9007199254740993,v0|9007199254740992,v1",
		`SELECT ID, COUNT(*) FROM T GROUP BY ID LIMIT 5`: "9007199254740993,1|9007199254740992,2",
	})
}
