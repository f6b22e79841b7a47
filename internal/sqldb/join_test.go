package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// buildJoinDB: a parent/child pair with NULLable join keys and an
// ordered index on the child's key plus a composite on (K, V).
func buildJoinDB(t testing.TB, parents, children int, indexChild, indexParent bool) *DB {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript(`CREATE TABLE PAR (
		PID INTEGER PRIMARY KEY, K INTEGER, NAME VARCHAR(20));
	CREATE TABLE CHI (
		CID INTEGER PRIMARY KEY, K INTEGER, V INTEGER)`); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(parents*1000 + children)))
	insP, _ := db.Prepare(`INSERT INTO PAR VALUES (?, ?, ?)`)
	insC, _ := db.Prepare(`INSERT INTO CHI VALUES (?, ?, ?)`)
	maybeNullKey := func() sqltypes.Value {
		if rng.Intn(10) == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewInt(int64(rng.Intn(parents)))
	}
	for i := 0; i < parents; i++ {
		if _, err := insP.Exec(sqltypes.NewInt(int64(i)), maybeNullKey(),
			sqltypes.NewString(fmt.Sprintf("p%d", i%7))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < children; i++ {
		if _, err := insC.Exec(sqltypes.NewInt(int64(i)), maybeNullKey(),
			sqltypes.NewInt(int64(rng.Intn(100)))); err != nil {
			t.Fatal(err)
		}
	}
	if indexChild {
		if _, err := db.Exec(`CREATE INDEX CHI_K ON CHI (K)`); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(`CREATE INDEX CHI_KV ON CHI (K, V)`); err != nil {
			t.Fatal(err)
		}
	}
	if indexParent {
		if _, err := db.Exec(`CREATE INDEX PAR_K ON PAR (K)`); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestJoinProbePlan asserts the planner recognises indexed join keys
// and surfaces them in the access-path introspection.
func TestJoinProbePlan(t *testing.T) {
	db := buildJoinDB(t, 50, 200, true, true)
	defer db.Close()
	cases := []struct {
		sql  string
		want string
	}{
		{`SELECT PID, CID FROM PAR JOIN CHI ON CHI.K = PAR.K`,
			"full-scan inl(CHI.K)"},
		{`SELECT PID, CID FROM PAR, CHI WHERE PAR.K = CHI.K`,
			"full-scan inl(CHI.K)"},
		{`SELECT PID, CID FROM PAR LEFT JOIN CHI ON CHI.K = PAR.K`,
			"full-scan inl(CHI.K)"},
		// Composite join probe: both K and V constrained.
		{`SELECT PID, CID FROM PAR JOIN CHI ON CHI.K = PAR.K AND CHI.V = PAR.PID`,
			"full-scan inl(CHI.K+V)"},
		// Un-probeable: inequality join.
		{`SELECT PID, CID FROM PAR JOIN CHI ON CHI.K > PAR.K`,
			"full-scan"},
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

// TestJoinINLPropertyVsNaive: every join result through the index
// nested-loop must equal the exhaustive cross-product path, for inner,
// comma and LEFT joins, including NULL join keys and extra predicates,
// over two and three tables, with every column or none of a table
// read, and inside an explicit transaction (latest-mode visibility of
// its own uncommitted writes).
func TestJoinINLPropertyVsNaive(t *testing.T) {
	for _, cfg := range []struct {
		name                    string
		indexChild, indexParent bool
	}{
		{"child-indexed", true, false},
		{"parent-indexed", false, true}, // exercises the swapped INL
		{"both-indexed", true, true},
		{"neither", false, false},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			db := buildJoinDB(t, 40, 150, cfg.indexChild, cfg.indexParent)
			defer db.Close()
			queries := []struct {
				sql  string
				args []sqltypes.Value
			}{
				{`SELECT PID, CID, V FROM PAR JOIN CHI ON CHI.K = PAR.K`, nil},
				{`SELECT PID, CID FROM PAR, CHI WHERE PAR.K = CHI.K`, nil},
				{`SELECT PID, CID FROM PAR LEFT JOIN CHI ON CHI.K = PAR.K`, nil},
				{`SELECT PID, CID FROM PAR LEFT JOIN CHI ON CHI.K = PAR.K AND CHI.V > ?`,
					[]sqltypes.Value{sqltypes.NewInt(50)}},
				{`SELECT PID, CID FROM PAR JOIN CHI ON CHI.K = PAR.K WHERE CHI.V BETWEEN ? AND ?`,
					[]sqltypes.Value{sqltypes.NewInt(10), sqltypes.NewInt(60)}},
				{`SELECT PID, CID FROM PAR, CHI WHERE PAR.K = CHI.K AND PAR.NAME = ?`,
					[]sqltypes.Value{sqltypes.NewString("p3")}},
				{`SELECT COUNT(*) FROM PAR JOIN CHI ON CHI.K = PAR.K`, nil},
				{`SELECT PID, CID FROM PAR JOIN CHI ON CHI.K = PAR.K ORDER BY PID, CID`, nil},
				// Constant probe on the inner side.
				{`SELECT PID, CID FROM PAR, CHI WHERE CHI.K = ? AND PAR.K = CHI.K`,
					[]sqltypes.Value{sqltypes.NewInt(7)}},
				// The first table's path drives a two-table join.
				{`SELECT PID, CID, V FROM PAR JOIN CHI ON CHI.K = PAR.K WHERE PAR.PID = ?`,
					[]sqltypes.Value{sqltypes.NewInt(11)}},
				// Three tables with an inner middle level, then a LEFT one.
				{`SELECT P.PID, A.CID, Q.NAME FROM PAR P JOIN CHI A ON A.K = P.K JOIN PAR Q ON Q.PID = A.V`, nil},
				{`SELECT P.PID, A.CID, Q.NAME FROM PAR P LEFT JOIN CHI A ON A.K = P.K JOIN PAR Q ON Q.PID = A.V`, nil},
				// NULL-extended rows feed a further level: one that extends
				// them again, and one that matches them on the outer table.
				{`SELECT P.PID, A.CID, Q.PID FROM PAR P LEFT JOIN CHI A ON A.K = P.K LEFT JOIN PAR Q ON Q.PID = A.V`, nil},
				{`SELECT P.PID, A.CID, A.V, Q.PID FROM PAR P LEFT JOIN CHI A ON A.K = P.K AND A.V > ? JOIN PAR Q ON Q.NAME = P.NAME WHERE A.CID IS NULL OR Q.K = A.K`,
					[]sqltypes.Value{sqltypes.NewInt(80)}},
				// Every column of every table.
				{`SELECT * FROM PAR JOIN CHI ON CHI.K = PAR.K`, nil},
				{`SELECT * FROM PAR LEFT JOIN CHI ON CHI.K = PAR.K AND CHI.V < ?`,
					[]sqltypes.Value{sqltypes.NewInt(30)}},
				// No expression reads Q: it only multiplies the rows.
				{`SELECT P.PID, A.CID FROM PAR P, CHI A, PAR Q WHERE A.K = P.K AND P.PID < ?`,
					[]sqltypes.Value{sqltypes.NewInt(6)}},
				{`SELECT COUNT(*) FROM PAR P, CHI A, PAR Q WHERE A.K = P.K`, nil},
				// Grouped and deduplicated joins.
				{`SELECT P.NAME, COUNT(*), SUM(A.V), MAX(A.CID) FROM PAR P JOIN CHI A ON A.K = P.K GROUP BY P.NAME`, nil},
				{`SELECT A.V, COUNT(*) FROM PAR P LEFT JOIN CHI A ON A.K = P.K GROUP BY A.V HAVING COUNT(*) > ?`,
					[]sqltypes.Value{sqltypes.NewInt(1)}},
				{`SELECT DISTINCT P.NAME, A.V FROM PAR P JOIN CHI A ON A.K = P.K`, nil},
				{`SELECT DISTINCT P.NAME FROM PAR P JOIN CHI A ON A.K = P.K ORDER BY P.NAME`, nil},
			}
			for _, q := range queries {
				indexed, ierr := db.Query(q.sql, q.args...)
				db.SetFullScanOnly(true)
				naive, nerr := db.Query(q.sql, q.args...)
				db.SetFullScanOnly(false)
				if (ierr == nil) != (nerr == nil) {
					t.Fatalf("%s: error mismatch %v vs %v", q.sql, ierr, nerr)
				}
				if ierr != nil {
					continue
				}
				ordered := strings.Contains(q.sql, "ORDER BY")
				if rowsKey(indexed, ordered) != rowsKey(naive, ordered) {
					t.Fatalf("%s: INL %d rows != naive %d rows",
						q.sql, len(indexed.Data), len(naive.Data))
				}
			}
			// A self-join on the primary key is the identity, so a clause
			// that alone reads a column of Q must give the lone table's
			// answer: an oracle the join's own assembly does not share.
			for _, id := range []struct{ join, lone string }{
				{`SELECT COUNT(*) FROM PAR P JOIN PAR Q ON Q.PID = P.PID GROUP BY Q.NAME`,
					`SELECT COUNT(*) FROM PAR GROUP BY NAME`},
				{`SELECT P.PID FROM PAR P JOIN PAR Q ON Q.PID = P.PID WHERE Q.K < 20 ORDER BY Q.NAME, P.PID`,
					`SELECT PID FROM PAR WHERE K < 20 ORDER BY NAME, PID`},
				{`SELECT COUNT(*) FROM PAR P JOIN PAR Q ON Q.PID = P.PID GROUP BY P.NAME HAVING MIN(Q.K) > 5`,
					`SELECT COUNT(*) FROM PAR GROUP BY NAME HAVING MIN(K) > 5`},
				{`SELECT DISTINCT P.NAME FROM PAR P JOIN PAR Q ON Q.PID = P.PID AND Q.K > 10`,
					`SELECT DISTINCT NAME FROM PAR WHERE K > 10`},
			} {
				for _, scanOnly := range []bool{false, true} {
					db.SetFullScanOnly(scanOnly)
					joined, jerr := db.Query(id.join)
					lone, lerr := db.Query(id.lone)
					db.SetFullScanOnly(false)
					if jerr != nil || lerr != nil {
						t.Fatalf("%s: %v; %s: %v", id.join, jerr, id.lone, lerr)
					}
					ordered := strings.Contains(id.lone, "ORDER BY")
					if rowsKey(joined, ordered) != rowsKey(lone, ordered) {
						t.Fatalf("%s (scanOnly=%v): %d rows, the lone table gives %d",
							id.join, scanOnly, len(joined.Data), len(lone.Data))
					}
				}
			}
			// The same statements inside a transaction that has written a
			// child and re-keyed a parent it has not committed.
			inTx := func(scanOnly bool) []string {
				db.SetFullScanOnly(scanOnly)
				defer db.SetFullScanOnly(false)
				tx, err := db.Begin()
				if err != nil {
					t.Fatal(err)
				}
				defer tx.Rollback()
				if _, err := tx.Exec(`INSERT INTO CHI VALUES (?, ?, ?)`, sqltypes.NewInt(9000),
					sqltypes.NewInt(3), sqltypes.NewInt(85)); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Exec(`UPDATE PAR SET K = ? WHERE PID = ?`, sqltypes.NewInt(3), sqltypes.NewInt(11)); err != nil {
					t.Fatal(err)
				}
				keys := make([]string, len(queries))
				for i, q := range queries {
					rows, err := tx.Query(q.sql, q.args...)
					if err != nil {
						keys[i] = "error: " + err.Error()
						continue
					}
					keys[i] = rowsKey(rows, strings.Contains(q.sql, "ORDER BY"))
				}
				return keys
			}
			indexed, naive := inTx(false), inTx(true)
			for i, q := range queries {
				if indexed[i] != naive[i] {
					t.Fatalf("in a transaction, %s: INL and naive results differ", q.sql)
				}
			}
		})
	}
}

// TestJoinHashPlan: with no usable index, equi-join conjuncts plan the
// hash-join fallback instead of the cross product; non-equi joins still
// get nothing.
func TestJoinHashPlan(t *testing.T) {
	db := buildJoinDB(t, 50, 200, false, false)
	defer db.Close()
	cases := []struct {
		sql  string
		want string
	}{
		{`SELECT PID, CID FROM PAR JOIN CHI ON CHI.K = PAR.K`,
			"full-scan hash-join(CHI.K)"},
		{`SELECT PID, CID FROM PAR, CHI WHERE PAR.K = CHI.K`,
			"full-scan hash-join(CHI.K)"},
		{`SELECT PID, CID FROM PAR LEFT JOIN CHI ON CHI.K = PAR.K`,
			"full-scan hash-join(CHI.K)"},
		// Every equi-conjunct joins the hash key.
		{`SELECT PID, CID FROM PAR JOIN CHI ON CHI.K = PAR.K AND CHI.V = PAR.PID`,
			"full-scan hash-join(CHI.K+V)"},
		// Inequality joins have no hash fallback.
		{`SELECT PID, CID FROM PAR JOIN CHI ON CHI.K > PAR.K`,
			"full-scan"},
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
	// An index on the join key displaces the hash fallback.
	if _, err := db.Exec(`CREATE INDEX CHI_K ON CHI (K)`); err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare(`SELECT PID, CID FROM PAR JOIN CHI ON CHI.K = PAR.K`)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st.AccessPath(); p != "full-scan inl(CHI.K)" {
		t.Fatalf("post-index path = %q", p)
	}
}

// TestJoinHashPropertyVsNaive: hash-join results must equal the
// exhaustive cross-product path for inner, comma and LEFT joins,
// including NULL join keys (never matching), WHERE-derived keys and a
// three-table chain of hash probes.
func TestJoinHashPropertyVsNaive(t *testing.T) {
	db := buildJoinDB(t, 40, 150, false, false)
	defer db.Close()
	queries := []struct {
		sql  string
		args []sqltypes.Value
	}{
		{`SELECT PID, CID, V FROM PAR JOIN CHI ON CHI.K = PAR.K`, nil},
		{`SELECT PID, CID FROM PAR, CHI WHERE PAR.K = CHI.K`, nil},
		{`SELECT PID, CID FROM PAR LEFT JOIN CHI ON CHI.K = PAR.K`, nil},
		{`SELECT PID, CID FROM PAR LEFT JOIN CHI ON CHI.K = PAR.K AND CHI.V > ?`,
			[]sqltypes.Value{sqltypes.NewInt(50)}},
		{`SELECT PID, CID FROM PAR JOIN CHI ON CHI.K = PAR.K WHERE CHI.V BETWEEN ? AND ?`,
			[]sqltypes.Value{sqltypes.NewInt(10), sqltypes.NewInt(60)}},
		{`SELECT PID, CID FROM PAR, CHI WHERE PAR.K = CHI.K AND PAR.NAME = ?`,
			[]sqltypes.Value{sqltypes.NewString("p3")}},
		{`SELECT COUNT(*) FROM PAR JOIN CHI ON CHI.K = PAR.K`, nil},
		{`SELECT PID, CID FROM PAR JOIN CHI ON CHI.K = PAR.K ORDER BY PID, CID`, nil},
		{`SELECT PID, CID FROM PAR, CHI WHERE CHI.K = ? AND PAR.K = CHI.K`,
			[]sqltypes.Value{sqltypes.NewInt(7)}},
		// Composite hash key.
		{`SELECT PID, CID FROM PAR JOIN CHI ON CHI.K = PAR.K AND CHI.V = PAR.PID`, nil},
		// Three tables: two chained hash probes.
		{`SELECT COUNT(*) FROM PAR P, CHI A, CHI B WHERE A.K = P.K AND B.K = A.K AND B.V < ?`,
			[]sqltypes.Value{sqltypes.NewInt(40)}},
		// Grouped aggregate over a hash join.
		{`SELECT NAME, COUNT(*) FROM PAR JOIN CHI ON CHI.K = PAR.K GROUP BY NAME`, nil},
	}
	for _, q := range queries {
		hashed, herr := db.Query(q.sql, q.args...)
		db.SetFullScanOnly(true)
		naive, nerr := db.Query(q.sql, q.args...)
		db.SetFullScanOnly(false)
		if (herr == nil) != (nerr == nil) {
			t.Fatalf("%s: error mismatch %v vs %v", q.sql, herr, nerr)
		}
		if herr != nil {
			continue
		}
		ordered := strings.Contains(q.sql, "ORDER BY")
		if rowsKey(hashed, ordered) != rowsKey(naive, ordered) {
			t.Fatalf("%s: hash-join %d rows != naive %d rows",
				q.sql, len(hashed.Data), len(naive.Data))
		}
	}
}

// TestJoinHashAvoidsCrossProduct: a fully-unindexed two-table inner
// join hashes its second table once and probes it per row of the first,
// so neither side is scanned more than once — heap reads stay near
// |PAR| + |CHI| instead of |PAR|·|CHI|.
func TestJoinHashAvoidsCrossProduct(t *testing.T) {
	db := buildJoinDB(t, 12, 900, false, false)
	defer db.Close()
	const q = `SELECT PID, CID FROM PAR JOIN CHI ON CHI.K = PAR.K`
	st, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	beforeP, beforeC := db.HeapRowReads("PAR"), db.HeapRowReads("CHI")
	hashed, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	parReads := db.HeapRowReads("PAR") - beforeP
	chiReads := db.HeapRowReads("CHI") - beforeC
	// PAR (12 live) drives the outer loop once; CHI (900) is hashed
	// once. The cross product would read 12×900 = 10800 CHI rows.
	if parReads > 50 {
		t.Fatalf("hash join read %d PAR heap rows", parReads)
	}
	if chiReads > 1000 {
		t.Fatalf("hash join read %d CHI heap rows (cross product reads 10800)", chiReads)
	}
	db.SetFullScanOnly(true)
	naive, err := st.Query()
	db.SetFullScanOnly(false)
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(hashed, false) != rowsKey(naive, false) {
		t.Fatalf("hash-join %d rows != naive %d rows", len(hashed.Data), len(naive.Data))
	}
}

// TestJoinLimitStopsTheJoin: a join streams its rows to the sink, so
// LIMIT 10 with no ORDER BY reads the handful of children (and the one
// parent each probes) it takes to assemble ten rows — not every child.
func TestJoinLimitStopsTheJoin(t *testing.T) {
	db := buildJoinDB(t, 100, 10_000, false, false)
	defer db.Close()
	st, err := db.Prepare(`SELECT C.CID, P.NAME FROM CHI C JOIN PAR P ON C.K = P.PID LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st.AccessPath(); !strings.Contains(p, "inl(P.PID)") {
		t.Fatalf("path = %q", p)
	}
	tr, err := st.Trace()
	if err != nil {
		t.Fatal(err)
	}
	// One in ten children has a NULL key and probes nothing: ≈ 11
	// children and 10 parents.
	if tr.Rows != 10 || tr.HeapReads > 40 {
		t.Fatalf("%d rows for %d heap reads, want 10 rows for ≤ 40", tr.Rows, tr.HeapReads)
	}
}

// TestJoinKeepsFirstTablePath: a two-table join whose WHERE gives the
// first table an index path drives the join from that path — one file,
// probing its simulation — instead of scanning either table. The tables
// are the archive's RESULT_FILE and SIMULATION, keyed as its schema
// keys them.
func TestJoinKeepsFirstTablePath(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE SIMULATION (SIMULATION_KEY VARCHAR(30) PRIMARY KEY, TITLE VARCHAR(200))`)
	mustExec(t, db, `CREATE TABLE RESULT_FILE (FILE_NAME VARCHAR(100), SIMULATION_KEY VARCHAR(30),
		TIMESTEP INTEGER, PRIMARY KEY (FILE_NAME, SIMULATION_KEY))`)
	mustExec(t, db, `CREATE INDEX IDX_RESULT_SIM_TS ON RESULT_FILE (SIMULATION_KEY, TIMESTEP)`)
	const sims, files = 400, 5
	for i := 0; i < sims; i++ {
		key := fmt.Sprintf("S%04d", i)
		mustExec(t, db, `INSERT INTO SIMULATION VALUES (?, ?)`, sqltypes.NewString(key), sqltypes.NewString("run "+key))
		for f := 0; f < files; f++ {
			mustExec(t, db, `INSERT INTO RESULT_FILE VALUES (?, ?, ?)`,
				sqltypes.NewString(fmt.Sprintf("%s_t%d.dat", key, f)), sqltypes.NewString(key), sqltypes.NewInt(int64(f)))
		}
	}
	st, err := db.Prepare(`SELECT R.FILE_NAME, S.TITLE FROM RESULT_FILE R
		JOIN SIMULATION S ON R.SIMULATION_KEY = S.SIMULATION_KEY WHERE R.FILE_NAME = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st.AccessPath(); !strings.HasPrefix(p, "prefix(") {
		t.Fatalf("path = %q, want a path on R", p)
	}
	arg := sqltypes.NewString("S0123_t4.dat")
	reads := func() int64 { return db.HeapRowReads("RESULT_FILE") + db.HeapRowReads("SIMULATION") }
	before := reads()
	got, err := st.Query(arg)
	if err != nil {
		t.Fatal(err)
	}
	if n := reads() - before; n != 2 {
		t.Errorf("read %d heap rows, want 2: the file and its simulation", n)
	}
	db.SetFullScanOnly(true)
	naive, err := st.Query(arg)
	db.SetFullScanOnly(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != 1 || rowsKey(got, false) != rowsKey(naive, false) {
		t.Fatalf("%d rows, naive %d", len(got.Data), len(naive.Data))
	}
}
