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
			"full-scan inl(CHI.K) inl-rev(PAR.K)"},
		{`SELECT PID, CID FROM PAR, CHI WHERE PAR.K = CHI.K`,
			"full-scan inl(CHI.K) inl-rev(PAR.K)"},
		{`SELECT PID, CID FROM PAR LEFT JOIN CHI ON CHI.K = PAR.K`,
			"full-scan inl(CHI.K)"},
		// Composite join probe: both K and V constrained.
		{`SELECT PID, CID FROM PAR JOIN CHI ON CHI.K = PAR.K AND CHI.V = PAR.PID`,
			"full-scan inl(CHI.K+V) inl-rev(PAR.K)"},
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
// comma and LEFT joins, including NULL join keys and extra predicates.
func TestJoinINLPropertyVsNaive(t *testing.T) {
	for _, cfg := range []struct {
		name                     string
		indexChild, indexParent  bool
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
		})
	}
}

// TestJoinHashPlan: with no usable index, equi-join conjuncts plan the
// hash-join fallback (and its two-table reverse candidate) instead of
// the cross product; non-equi joins still get nothing.
func TestJoinHashPlan(t *testing.T) {
	db := buildJoinDB(t, 50, 200, false, false)
	defer db.Close()
	cases := []struct {
		sql  string
		want string
	}{
		{`SELECT PID, CID FROM PAR JOIN CHI ON CHI.K = PAR.K`,
			"full-scan hash-join(CHI.K) hash-join-rev(PAR.K)"},
		{`SELECT PID, CID FROM PAR, CHI WHERE PAR.K = CHI.K`,
			"full-scan hash-join(CHI.K) hash-join-rev(PAR.K)"},
		{`SELECT PID, CID FROM PAR LEFT JOIN CHI ON CHI.K = PAR.K`,
			"full-scan hash-join(CHI.K)"},
		// Every equi-conjunct joins the hash key; the reverse direction
		// lands on PAR's primary key, whose index serves the probe.
		{`SELECT PID, CID FROM PAR JOIN CHI ON CHI.K = PAR.K AND CHI.V = PAR.PID`,
			"full-scan inl-rev(PAR.PID) hash-join(CHI.K+V)"},
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
	if p, _ := st.AccessPath(); p != "full-scan inl(CHI.K) hash-join-rev(PAR.K)" {
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

// TestJoinHashBuildsOnSmallerSide: a fully-unindexed two-table inner
// join hashes the smaller table and lets the larger one drive the outer
// loop, so neither side is scanned more than once — heap reads stay
// near |PAR| + |CHI| instead of |PAR|·|CHI|.
func TestJoinHashBuildsOnSmallerSide(t *testing.T) {
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
	// PAR (12 live) is hashed once; CHI (900) drives the outer loop
	// once. The cross product would read 12×900 = 10800 PAR rows.
	if parReads > 50 {
		t.Fatalf("hash join read %d PAR heap rows (cross product reads 10800)", parReads)
	}
	if chiReads > 1000 {
		t.Fatalf("hash join read %d CHI heap rows", chiReads)
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

// TestJoinSwapPicksSmallerOuter: with both sides indexed and the first
// table much larger, the executor probes the first table so the smaller
// second table drives the outer loop; results stay identical.
func TestJoinSwapPicksSmallerOuter(t *testing.T) {
	db := buildJoinDB(t, 2000, 10, true, true)
	defer db.Close()
	const q = `SELECT PID, CID FROM PAR JOIN CHI ON CHI.K = PAR.K`
	st, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st.AccessPath(); !strings.Contains(p, "inl-rev(PAR.K)") {
		t.Fatalf("swap candidate missing from plan: %q", p)
	}
	// PAR (2000 live) > CHI (10 live): probing PAR means the big table
	// is never scanned per outer row — heap reads stay near |CHI| plus
	// the matches, far under |PAR|×|CHI|.
	before := db.HeapRowReads("PAR")
	indexed, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	parReads := db.HeapRowReads("PAR") - before
	if parReads > 3000 {
		t.Fatalf("swapped INL read %d PAR heap rows (scan would read 20000+)", parReads)
	}
	db.SetFullScanOnly(true)
	naive, err := st.Query()
	db.SetFullScanOnly(false)
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(indexed, false) != rowsKey(naive, false) {
		t.Fatalf("swapped INL %d rows != naive %d rows", len(indexed.Data), len(naive.Data))
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
