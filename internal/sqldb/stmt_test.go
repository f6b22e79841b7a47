package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqltypes"
)

func TestPrepareSharesCachedStmt(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(20))`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a'), (2, 'b')`)

	s1, err := db.Prepare(`SELECT v FROM t WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db.Prepare(`SELECT v FROM t WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("identical SQL text should share one cached Stmt")
	}
	rows, err := s1.Query(sqltypes.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0].AsString() != "b" {
		t.Fatalf("got %v", rows.Data)
	}
}

func TestPrepareRejectsTxControl(t *testing.T) {
	db := memDB(t)
	if _, err := db.Prepare(`BEGIN`); err == nil {
		t.Fatal("Prepare(BEGIN) should fail")
	}
}

func TestStmtQueryRejectsDML(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER)`)
	st, err := db.Prepare(`INSERT INTO t VALUES (1)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(); err == nil {
		t.Fatal("Query on a DML statement should fail")
	}
	if _, err := st.Exec(); err != nil {
		t.Fatalf("Exec on prepared INSERT: %v", err)
	}
}

// A DDL statement between prepared executions must not let the old plan
// survive: the column bindings of the recreated table differ, and a
// stale plan would read the wrong slots.
func TestPlanCacheInvalidationOnDDL(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (a VARCHAR(10), b VARCHAR(10))`)
	mustExec(t, db, `INSERT INTO t VALUES ('a-old', 'b-old')`)

	st, err := db.Prepare(`SELECT b FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].AsString() != "b-old" {
		t.Fatalf("before DDL: got %v", rows.Data)
	}

	// Recreate the table with B first: a stale plan bound to slot 1
	// would now return column A's value.
	mustExec(t, db, `DROP TABLE t`)
	mustExec(t, db, `CREATE TABLE t (b VARCHAR(10), a VARCHAR(10))`)
	mustExec(t, db, `INSERT INTO t VALUES ('b-new', 'a-new')`)

	rows, err = st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].AsString(); got != "b-new" {
		t.Fatalf("after DDL: got %q, want %q (stale plan served)", got, "b-new")
	}
}

func TestPreparedStmtSurvivesIndexDDL(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER, v VARCHAR(10))`)
	for i := 0; i < 20; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`,
			sqltypes.NewInt(int64(i%5)), sqltypes.NewString(fmt.Sprintf("v%d", i)))
	}
	st, err := db.Prepare(`SELECT COUNT(*) FROM t WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		rows, err := st.Query(sqltypes.NewInt(3))
		if err != nil {
			t.Fatal(err)
		}
		if rows.Data[0][0].Int() != 4 {
			t.Fatalf("count = %v, want 4", rows.Data[0][0])
		}
	}
	check()
	mustExec(t, db, `CREATE INDEX idx_id ON t (id)`)
	check() // re-planned: now uses the index
	mustExec(t, db, `DROP INDEX idx_id`)
	check()
}

func TestPreparedStmtOnDroppedTable(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER)`)
	st, err := db.Prepare(`SELECT id FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `DROP TABLE t`)
	if _, err := st.Query(); err == nil {
		t.Fatal("query against a dropped table should fail, not serve a stale plan")
	}
}

func TestPlanCacheEviction(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER)`)
	db.SetPlanCacheCapacity(2)
	for i := 0; i < 5; i++ {
		mustQuery(t, db, fmt.Sprintf(`SELECT id FROM t WHERE id = %d`, i))
	}
	if n := db.PlanCacheLen(); n != 2 {
		t.Fatalf("cache len = %d, want 2", n)
	}
	// An evicted statement handle keeps working on its own.
	st, err := db.Prepare(`SELECT id FROM t WHERE id = 0`)
	if err != nil {
		t.Fatal(err)
	}
	db.SetPlanCacheCapacity(0) // drop everything, disable caching
	if _, err := st.Query(); err != nil {
		t.Fatalf("evicted stmt must stay usable: %v", err)
	}
	if n := db.PlanCacheLen(); n != 0 {
		t.Fatalf("disabled cache holds %d entries", n)
	}
	mustQuery(t, db, `SELECT id FROM t`) // uncached path still works
}

// TestConcurrentQueryExec drives concurrent readers against concurrent
// writers and occasional DDL; run with -race. Readers repeatedly use the
// same SQL text so they share one cached plan, which is the interesting
// sharing to race-test.
func TestConcurrentQueryExec(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, sim VARCHAR(20), v DOUBLE)`)
	for i := 0; i < 100; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("S%02d", i%10)),
			sqltypes.NewDouble(float64(i)))
	}

	const (
		readers       = 8
		writers       = 2
		opsPerRoutine = 200
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers+writers+1)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerRoutine; i++ {
				rows, err := db.Query(`SELECT sim, COUNT(*), AVG(v) FROM t WHERE v >= ? GROUP BY sim ORDER BY sim`,
					sqltypes.NewDouble(10))
				if err != nil {
					errc <- err
					return
				}
				if len(rows.Columns) != 3 {
					errc <- fmt.Errorf("bad shape %v", rows.Columns)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerRoutine; i++ {
				id := int64(1000 + w*opsPerRoutine + i)
				if _, err := db.Exec(`INSERT INTO t VALUES (?, 'SXX', 1.5)`, sqltypes.NewInt(id)); err != nil {
					errc <- err
					return
				}
				if _, err := db.Exec(`DELETE FROM t WHERE id = ?`, sqltypes.NewInt(id)); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	// DDL churn: forces plan re-binding while readers are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := db.Exec(`CREATE INDEX idx_sim ON t (sim)`); err != nil {
				errc <- err
				return
			}
			if _, err := db.Exec(`DROP INDEX idx_sim`); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestRowsDetachedFromStorage: a result must stay stable after later
// writes to the same table.
func TestRowsDetachedFromStorage(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(20))`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'before')`)
	rows := mustQuery(t, db, `SELECT * FROM t`)
	mustExec(t, db, `UPDATE t SET v = 'after' WHERE id = 1`)
	mustExec(t, db, `DELETE FROM t WHERE id = 1`)
	if got := rows.Get(0, "v").AsString(); got != "before" {
		t.Fatalf("result mutated by later writes: %q", got)
	}
}

func TestRowsColIndexCache(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (alpha INTEGER, beta INTEGER, gamma INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 2, 3)`)
	rows := mustQuery(t, db, `SELECT * FROM t`)
	if i := rows.ColIndex("beta"); i != 1 {
		t.Fatalf("ColIndex(beta) = %d", i)
	}
	if i := rows.ColIndex("GAMMA"); i != 2 {
		t.Fatalf("ColIndex(GAMMA) = %d", i)
	}
	if i := rows.ColIndex("missing"); i != -1 {
		t.Fatalf("ColIndex(missing) = %d", i)
	}
	if v := rows.Get(0, "gamma"); v.Int() != 3 {
		t.Fatalf("Get = %v", v)
	}
	// Hand-constructed Rows (no cache) still resolve by linear scan.
	hand := &Rows{Columns: []string{"X", "Y"}}
	if i := hand.ColIndex("y"); i != 1 {
		t.Fatalf("uncached ColIndex = %d", i)
	}
}

// TestTxUsesPlanCache: a transaction's statements come from the plan
// cache like autocommit ones. An INSERT and a SELECT repeated with the
// same text miss once each and hit after that, and the SELECT, run
// through the cached plan, still sees the transaction's own
// uncommitted rows.
func TestTxUsesPlanCache(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(20))`)
	const ins = `INSERT INTO t VALUES (?, ?)`
	const sel = `SELECT v FROM t WHERE id = ?`
	// The counters behind sqldb_plan_cache_{misses,hits}_total, read by
	// handle: a registry snapshot evaluates gauges that wait for the
	// transaction's lock.
	misses, hits := db.met.planMisses.Value, db.met.planHits.Value
	miss0, hit0 := misses(), hits()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback() // a failed check must not leave db.mu held for Close
	for i := int64(1); i <= 3; i++ {
		if _, err := tx.Exec(ins, sqltypes.NewInt(i), sqltypes.NewString(fmt.Sprint("v", i))); err != nil {
			t.Fatal(err)
		}
		rows, err := tx.Query(sel, sqltypes.NewInt(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Data) != 1 || rows.Data[0][0].Str() != fmt.Sprint("v", i) {
			t.Fatalf("in-transaction SELECT of row %d: %v", i, rows.Data)
		}
		if m, h := misses()-miss0, hits()-hit0; m != 2 || h != 2*(i-1) {
			t.Fatalf("after %d rounds: %d misses, %d hits; want 2, %d", i, m, h, 2*(i-1))
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if rows := mustQuery(t, db, sel, sqltypes.NewInt(1)); len(rows.Data) != 0 {
		t.Fatalf("rolled-back row visible: %v", rows.Data)
	}
}

// TestTxRejectsNonDMLText: the transaction path keeps its own errors
// for text it cannot run, transaction control included.
func TestTxRejectsNonDMLText(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	for _, c := range []struct {
		sql, exec, query string
	}{
		{`COMMIT`, "only DML is allowed inside a transaction", "Query requires a SELECT statement"},
		{`CREATE TABLE u (id INTEGER)`, "only DML is allowed inside a transaction", "Query requires a SELECT statement"},
		{`DELETE FROM t`, "", "Query requires a SELECT statement"},
	} {
		if _, err := tx.Exec(c.sql); (err == nil) != (c.exec == "") || err != nil && !strings.Contains(err.Error(), c.exec) {
			t.Errorf("Exec(%q) = %v, want %q", c.sql, err, c.exec)
		}
		if _, err := tx.Query(c.sql); err == nil || !strings.Contains(err.Error(), c.query) {
			t.Errorf("Query(%q) = %v, want %q", c.sql, err, c.query)
		}
	}
	if _, err := tx.Exec(`SELECT id FROM t`); err != nil {
		t.Errorf("SELECT through Exec: %v", err)
	}
}
