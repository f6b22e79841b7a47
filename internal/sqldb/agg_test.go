package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// TestGroupAggPlanStrings checks the planner's aggregation-strategy
// choice surfaces in AccessPath: streaming GROUP BY pushdown when an
// ordered index clusters the group columns (including the equality-
// constant-prefix skip), hash aggregation otherwise, and the groupless
// single-accumulator fold.
func TestGroupAggPlanStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := buildCompositeDB(t, rng, 300)
	defer db.Close()
	cases := []struct {
		sql  string
		want string
	}{
		// No WHERE: GROUP BY pushdown picks the ordered index itself;
		// COUNT/SUM of index columns fold from the keys (index-only).
		{`SELECT A, COUNT(*) FROM C GROUP BY A`,
			"ordered-scan(C.A+B) group-ordered(A) index-only"},
		{`SELECT A, B, COUNT(*), SUM(B) FROM C GROUP BY A, B`,
			"ordered-scan(C.A+B) group-ordered(A+B) index-only"},
		// An aggregate argument outside the index keeps the fold on
		// fetched rows.
		{`SELECT A, MIN(TS) FROM C GROUP BY A`,
			"ordered-scan(C.A+B) group-ordered(A)"},
		// Group column inside the equality prefix is constant: any path
		// order is clustered.
		{`SELECT A, COUNT(*) FROM C WHERE A = ? GROUP BY A`,
			"prefix(C.A) group-ordered(A) index-only"},
		// Residual WHERE rides along: the pushdown scan still clusters.
		{`SELECT A, COUNT(*) FROM C WHERE B > ? GROUP BY A`,
			"ordered-scan(C.A+B) group-ordered(A)"},
		// B is not a leading index column: hash aggregation.
		{`SELECT B, COUNT(*) FROM C GROUP BY B`, "full-scan hash-agg"},
		// S leads the (S, A) index — declared USING HASH, which is the
		// same tree as any other — so its groups arrive clustered too.
		{`SELECT S, COUNT(*) FROM C GROUP BY S`,
			"ordered-scan(C.S+A) group-ordered(S) index-only"},
		// Computed group key cannot be read off an index.
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
// what the reference evaluator returns through the streaming fold
// (group-ordered index scan) and through the hash fold (full scan),
// across GROUP BY / HAVING / ORDER BY / LIMIT / OFFSET combinations with
// NULLs in both group keys and aggregate arguments.
func TestGroupAggPropertyStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := buildCompositeDB(t, rng, 500)
	defer db.Close()
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
	}
	// Sanity: the suite exercises the streaming path at least once.
	st, err := db.Prepare(queries[0].sql)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st.AccessPath(); !strings.Contains(p, "group-ordered") {
		t.Fatalf("expected a streaming plan for %s, got %q", queries[0].sql, p)
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

// TestAggFoldMinMaxBoundaryDecode: residual-free MIN/MAX must be
// answered entirely from the boundary index KEY — zero heap rows — for
// the kinds whose canonical encoding round-trips (INTEGER in the exact
// window, VARCHAR, TIMESTAMP), while non-round-tripping keys (far
// integers, a DOUBLE zero) fall back to the boundary-row fetch with
// identical results.
func TestAggFoldMinMaxBoundaryDecode(t *testing.T) {
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
	checkReads := func(sql string, wantZero bool, args ...sqltypes.Value) {
		t.Helper()
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := st.AccessPath(); !strings.Contains(p, "index-only") {
			t.Fatalf("%s: not planned index-only: %q", sql, p)
		}
		indexed, err := st.Query(args...)
		if err != nil {
			t.Fatal(err)
		}
		before := db.HeapRowReads("M")
		if _, err := st.Query(args...); err != nil {
			t.Fatal(err)
		}
		reads := db.HeapRowReads("M") - before
		if wantZero && reads != 0 {
			t.Fatalf("%s: read %d heap rows, want 0", sql, reads)
		}
		if !wantZero && reads == 0 {
			t.Fatalf("%s: expected the boundary-row fallback to fetch rows", sql)
		}
		db.SetFullScanOnly(true)
		oracle, err := db.Query(sql, args...)
		db.SetFullScanOnly(false)
		if err != nil {
			t.Fatal(err)
		}
		if rowsKey(indexed, true) != rowsKey(oracle, true) {
			t.Fatalf("%s: index-only %v != scan %v", sql, indexed.Data, oracle.Data)
		}
	}
	// Round-tripping kinds: the boundary KEY answers, zero heap rows.
	checkReads(`SELECT MIN(N), MAX(N) FROM M WHERE N > ?`, true, sqltypes.NewInt(-10))
	checkReads(`SELECT MIN(N) FROM M WHERE N IS NOT NULL`, true)
	checkReads(`SELECT MIN(S), MAX(S) FROM M WHERE S IS NOT NULL`, true)
	checkReads(`SELECT MIN(TS), MAX(TS) FROM M WHERE TS IS NOT NULL`, true)
	checkReads(`SELECT MIN(D), MAX(D) FROM M WHERE D > ?`, true, sqltypes.NewDouble(-1000))

	// Far-integer boundary: the key's tiebreak names the exact integer,
	// so the maximum decodes straight off the key like any other.
	if _, err := db.Exec(`INSERT INTO M VALUES (1000, ?, 'far', '2009-01-11 00:00:00', 1.5)`,
		sqltypes.NewInt(1<<53)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO M VALUES (1001, ?, 'far', '2009-01-11 00:00:00', 1.5)`,
		sqltypes.NewInt(1<<53+2)); err != nil {
		t.Fatal(err)
	}
	checkReads(`SELECT MAX(N) FROM M WHERE N IS NOT NULL`, true)

	// A DOUBLE zero key cannot name its sign: fallback, correct result.
	if _, err := db.Exec(`INSERT INTO M VALUES (1002, 1, 'z', '2009-01-12 00:00:00', ?)`,
		sqltypes.NewDouble(math.Copysign(0, -1))); err != nil {
		t.Fatal(err)
	}
	checkReads(`SELECT MIN(D) FROM M WHERE D BETWEEN ? AND ?`, false,
		sqltypes.NewDouble(-0.25), sqltypes.NewDouble(0.25))
}

// TestGroupIndexFoldZeroHeapReads: a grouped COUNT/SUM/MIN/MAX whose
// arguments all live in the clustering index must be answered from the
// index keys alone — zero heap rows, far-integer group keys included —
// with the reference's results.
func TestGroupIndexFoldZeroHeapReads(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(`CREATE TABLE R (
		ID INTEGER PRIMARY KEY, SIM VARCHAR(20), TS INTEGER, SZ INTEGER)`); err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO R VALUES (?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		sz := sqltypes.NewInt(int64(i) * 3)
		if i%17 == 0 {
			sz = sqltypes.Null
		}
		if _, err := ins.Exec(
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("S%02d", i%20)),
			sqltypes.NewInt(int64(i/20)),
			sz); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(`CREATE INDEX R_COVER ON R (SIM, TS, SZ) USING ORDERED`); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT SIM, COUNT(*), COUNT(SZ), SUM(SZ), AVG(SZ), MIN(TS), MAX(TS)
		FROM R GROUP BY SIM HAVING COUNT(*) > 1 ORDER BY SIM`
	st, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st.AccessPath(); p != "ordered-scan(R.SIM+TS+SZ) group-ordered(SIM) index-only" {
		t.Fatalf("path = %q", p)
	}
	before := db.HeapRowReads("R")
	indexed, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if got := db.HeapRowReads("R") - before; got != 0 {
		t.Fatalf("grouped index-only fold read %d heap rows, want 0", got)
	}
	if len(indexed.Data) != 20 {
		t.Fatalf("%d groups, want 20", len(indexed.Data))
	}
	ref := newRefEval(db)
	ref.check(t, q)

	// Group keys beyond ±2^53 are exact index keys too: the fold stays on
	// the keys, and the result is still the reference's.
	if _, err := db.Exec(`CREATE TABLE F (ID INTEGER PRIMARY KEY, K INTEGER, V INTEGER)`); err != nil {
		t.Fatal(err)
	}
	for i, k := range []int64{1, 1, 1 << 53, 1<<53 + 2, 5} {
		if _, err := db.Exec(`INSERT INTO F VALUES (?, ?, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(k), sqltypes.NewInt(int64(i)*10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(`CREATE INDEX F_KV ON F (K, V) USING ORDERED`); err != nil {
		t.Fatal(err)
	}
	const fq = `SELECT K, COUNT(*), SUM(V) FROM F GROUP BY K`
	fst, err := db.Prepare(fq)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := fst.AccessPath(); !strings.Contains(p, "index-only") {
		t.Fatalf("path = %q", p)
	}
	before = db.HeapRowReads("F")
	folded, err := fst.Query()
	if err != nil {
		t.Fatal(err)
	}
	if reads := db.HeapRowReads("F") - before; reads != 0 {
		t.Fatalf("far group keys were folded from %d heap rows, want 0", reads)
	}
	if len(folded.Data) != 4 {
		t.Fatalf("%d groups, want 4: %v", len(folded.Data), folded.Data)
	}
	ref.reset()
	ref.check(t, fq)
}

// TestGroupIndexFoldDoubleSumParity: the index-key fold stands one key
// for n identical rows; its double SUM must accumulate by n additions,
// not one multiplication, or ten rows of 0.1 sum to 1.0 through the
// index and 0.9999999999999999 through every row-wise path.
func TestGroupIndexFoldDoubleSumParity(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE P (ID INTEGER PRIMARY KEY, G INTEGER, V DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := db.Exec(`INSERT INTO P VALUES (?, 1, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewDouble(0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(`CREATE INDEX P_GV ON P (G, V) USING ORDERED`); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT G, SUM(V), AVG(V) FROM P GROUP BY G`
	st, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st.AccessPath(); !strings.Contains(p, "index-only") {
		t.Fatalf("path = %q", p)
	}
	folded, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	want := newRefEval(db).check(t, q).rows()[0].vals
	if folded.Data[0][1].Double() != want[1].Double() ||
		folded.Data[0][2].Double() != want[2].Double() {
		t.Fatalf("index fold %v != row-wise sum %v", folded.Data[0], want)
	}
}

// TestAggFoldErrorParity: malformed aggregate usage must fail — and
// sound usage over the same rows must not — through the fold pipeline
// exactly where the reference evaluator fails.
func TestAggFoldErrorParity(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(`CREATE TABLE E (ID INTEGER PRIMARY KEY, S VARCHAR(10));
		INSERT INTO E VALUES (1, 'a'); INSERT INTO E VALUES (2, 'b')`); err != nil {
		t.Fatal(err)
	}
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
	} {
		if res := ref.check(t, tc.sql); (res == nil) != tc.wantErr {
			t.Fatalf("%s: error = %v, want %v", tc.sql, res == nil, tc.wantErr)
		}
	}
}

// TestFarIntegerGroupsStayApart: integers beyond ±2^53 that share a
// float64 image are distinct values, so DISTINCT and GROUP BY must keep
// them apart — on the heap scan's hash fold and, with an index, on both
// group-ordered strategies (the index-only fold for COUNT(*), the row
// fold for an aggregate over a column the index does not hold), whose
// groups come out in index order, which is value order.
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
		`SELECT ID, COUNT(*) FROM T GROUP BY ID`: "ordered-scan(T.ID) group-ordered(ID) index-only",
		`SELECT ID, MIN(V) FROM T GROUP BY ID`:   "ordered-scan(T.ID) group-ordered(ID)",
	} {
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := st.AccessPath(); p != want {
			t.Fatalf("%s: path %q, want %q", sql, p, want)
		}
	}
	// A GROUP BY without ORDER BY follows the path: index order.
	check(map[string]string{
		`SELECT DISTINCT ID FROM T`:                      "9007199254740993|9007199254740992",
		`SELECT ID, COUNT(*) FROM T GROUP BY ID`:         "9007199254740992,2|9007199254740993,1",
		`SELECT ID, MIN(V) FROM T GROUP BY ID`:           "9007199254740992,v1|9007199254740993,v0",
		`SELECT ID, COUNT(*) FROM T GROUP BY ID LIMIT 5`: "9007199254740992,2|9007199254740993,1",
	})
}
