package sqldb

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sqltypes"
)

func mustExec(t *testing.T, db *DB, sql string, args ...sqltypes.Value) Result {
	t.Helper()
	res, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func mustQuery(t *testing.T, db *DB, sql string, args ...sqltypes.Value) *Rows {
	t.Helper()
	rows, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rows
}

func memDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE author (author_key VARCHAR(30) PRIMARY KEY, name VARCHAR(100) NOT NULL, email VARCHAR(100))`)
	res := mustExec(t, db, `INSERT INTO author (author_key, name, email) VALUES ('A1', 'Papiani', 'p@soton.ac.uk'), ('A2', 'Wason', NULL)`)
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", res.RowsAffected)
	}
	rows := mustQuery(t, db, `SELECT name FROM author WHERE author_key = 'A1'`)
	if len(rows.Data) != 1 || rows.Data[0][0].AsString() != "Papiani" {
		t.Fatalf("got %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT * FROM author ORDER BY author_key`)
	if len(rows.Columns) != 3 || rows.Columns[0] != "AUTHOR_KEY" {
		t.Fatalf("columns = %v", rows.Columns)
	}
	if len(rows.Data) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows.Data))
	}
	if !rows.Data[1][2].IsNull() {
		t.Fatalf("expected NULL email for A2, got %v", rows.Data[1][2])
	}
}

func TestPrimaryKeyViolation(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10))`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a')`)
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 'b')`); err == nil {
		t.Fatal("duplicate PK insert succeeded")
	}
	// The failed statement must not leave a row behind.
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].Int() != 1 {
		t.Fatalf("count = %v, want 1", rows.Data[0][0])
	}
}

func TestNotNullAndDefault(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, status VARCHAR(10) DEFAULT 'new', note VARCHAR(10) NOT NULL)`)
	if _, err := db.Exec(`INSERT INTO t (id) VALUES (1)`); err == nil {
		t.Fatal("NOT NULL violation not caught")
	}
	mustExec(t, db, `INSERT INTO t (id, note) VALUES (1, 'x')`)
	rows := mustQuery(t, db, `SELECT status FROM t`)
	if rows.Data[0][0].AsString() != "new" {
		t.Fatalf("default not applied: %v", rows.Data[0][0])
	}
}

func TestForeignKeyEnforcement(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE author (author_key VARCHAR(30) PRIMARY KEY, name VARCHAR(100))`)
	mustExec(t, db, `CREATE TABLE simulation (
		simulation_key VARCHAR(30) PRIMARY KEY,
		author_key VARCHAR(30) REFERENCES author (author_key),
		title VARCHAR(200))`)
	mustExec(t, db, `INSERT INTO author VALUES ('A1', 'Papiani')`)
	mustExec(t, db, `INSERT INTO simulation VALUES ('S1', 'A1', 'Channel flow')`)

	if _, err := db.Exec(`INSERT INTO simulation VALUES ('S2', 'A9', 'Bad author')`); err == nil {
		t.Fatal("FK violation on insert not caught")
	}
	if _, err := db.Exec(`DELETE FROM author WHERE author_key = 'A1'`); err == nil {
		t.Fatal("RESTRICT delete of referenced parent not caught")
	}
	if _, err := db.Exec(`UPDATE author SET author_key = 'A2' WHERE author_key = 'A1'`); err == nil {
		t.Fatal("RESTRICT update of referenced key not caught")
	}
	// NULL FK is allowed.
	mustExec(t, db, `INSERT INTO simulation VALUES ('S3', NULL, 'Anonymous')`)
	// Deleting the child releases the parent.
	mustExec(t, db, `DELETE FROM simulation WHERE simulation_key = 'S1'`)
	mustExec(t, db, `DELETE FROM author WHERE author_key = 'A1'`)
}

func TestJoins(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE a (id INTEGER PRIMARY KEY, name VARCHAR(10))`)
	mustExec(t, db, `CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER, v DOUBLE)`)
	mustExec(t, db, `INSERT INTO a VALUES (1, 'one'), (2, 'two'), (3, 'three')`)
	mustExec(t, db, `INSERT INTO b VALUES (10, 1, 1.5), (11, 1, 2.5), (12, 2, 9.0)`)

	rows := mustQuery(t, db, `SELECT a.name, b.v FROM a JOIN b ON a.id = b.a_id ORDER BY b.v`)
	if len(rows.Data) != 3 {
		t.Fatalf("inner join rows = %d, want 3", len(rows.Data))
	}
	if rows.Data[0][0].AsString() != "one" || rows.Data[2][0].AsString() != "two" {
		t.Fatalf("join order wrong: %v", rows.Data)
	}

	rows = mustQuery(t, db, `SELECT a.name, b.v FROM a LEFT JOIN b ON a.id = b.a_id WHERE b.id IS NULL`)
	if len(rows.Data) != 1 || rows.Data[0][0].AsString() != "three" {
		t.Fatalf("left join anti rows: %v", rows.Data)
	}

	// Comma join with WHERE acts as inner join.
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM a, b WHERE a.id = b.a_id`)
	if rows.Data[0][0].Int() != 3 {
		t.Fatalf("comma join count = %v", rows.Data[0][0])
	}
}

func TestAggregation(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE m (sim VARCHAR(10), step INTEGER, bytes INTEGER)`)
	mustExec(t, db, `INSERT INTO m VALUES
		('S1', 1, 100), ('S1', 2, 200), ('S1', 3, 300),
		('S2', 1, 1000), ('S2', 2, 3000)`)

	rows := mustQuery(t, db, `SELECT sim, COUNT(*) AS n, SUM(bytes) AS total, AVG(bytes) AS mean, MIN(step), MAX(step)
		FROM m GROUP BY sim ORDER BY sim`)
	if len(rows.Data) != 2 {
		t.Fatalf("groups = %d, want 2", len(rows.Data))
	}
	if rows.Data[0][1].Int() != 3 || rows.Data[0][2].Int() != 600 {
		t.Fatalf("S1 aggregates wrong: %v", rows.Data[0])
	}
	if rows.Data[1][3].Double() != 2000 {
		t.Fatalf("S2 avg = %v, want 2000", rows.Data[1][3])
	}

	rows = mustQuery(t, db, `SELECT sim FROM m GROUP BY sim HAVING SUM(bytes) > 1000 ORDER BY sim`)
	if len(rows.Data) != 1 || rows.Data[0][0].AsString() != "S2" {
		t.Fatalf("HAVING result: %v", rows.Data)
	}

	// Aggregate over empty input yields one row with COUNT 0.
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM m WHERE sim = 'NOPE'`)
	if len(rows.Data) != 1 || rows.Data[0][0].Int() != 0 {
		t.Fatalf("empty COUNT: %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT SUM(bytes) FROM m WHERE sim = 'NOPE'`)
	if !rows.Data[0][0].IsNull() {
		t.Fatalf("empty SUM should be NULL, got %v", rows.Data[0][0])
	}
}

func TestExpressions(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER, s VARCHAR(50), f DOUBLE)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'Turbulence', 1.5), (2, 'Vortex', -2.5), (3, NULL, NULL)`)

	cases := []struct {
		sql  string
		want string
	}{
		{`SELECT id + 1 FROM t WHERE id = 1`, "2"},
		{`SELECT id * 2 + 1 FROM t WHERE id = 2`, "5"},
		{`SELECT UPPER(s) FROM t WHERE id = 1`, "TURBULENCE"},
		{`SELECT LOWER(s) FROM t WHERE id = 2`, "vortex"},
		{`SELECT LENGTH(s) FROM t WHERE id = 1`, "10"},
		{`SELECT SUBSTR(s, 1, 4) FROM t WHERE id = 1`, "Turb"},
		{`SELECT ABS(f) FROM t WHERE id = 2`, "2.5"},
		{`SELECT s || '-' || id FROM t WHERE id = 1`, "Turbulence-1"},
		{`SELECT COALESCE(s, 'none') FROM t WHERE id = 3`, "none"},
		{`SELECT ROUND(f * 2, 0) FROM t WHERE id = 1`, "3"},
	}
	for _, tc := range cases {
		rows := mustQuery(t, db, tc.sql)
		if len(rows.Data) != 1 {
			t.Fatalf("%s: rows = %d", tc.sql, len(rows.Data))
		}
		if got := rows.Data[0][0].AsString(); got != tc.want {
			t.Errorf("%s = %q, want %q", tc.sql, got, tc.want)
		}
	}
}

func TestWherePredicates(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER, s VARCHAR(50))`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'alpha'), (2, 'beta'), (3, 'alphabet'), (4, NULL)`)

	count := func(sql string) int64 {
		rows := mustQuery(t, db, sql)
		return rows.Data[0][0].Int()
	}
	if n := count(`SELECT COUNT(*) FROM t WHERE s LIKE 'alpha%'`); n != 2 {
		t.Errorf("LIKE prefix = %d, want 2", n)
	}
	if n := count(`SELECT COUNT(*) FROM t WHERE s LIKE '%bet%'`); n != 2 {
		t.Errorf("LIKE infix = %d, want 2", n)
	}
	if n := count(`SELECT COUNT(*) FROM t WHERE s LIKE '_lpha'`); n != 1 {
		t.Errorf("LIKE underscore = %d, want 1", n)
	}
	if n := count(`SELECT COUNT(*) FROM t WHERE id IN (1, 3, 5)`); n != 2 {
		t.Errorf("IN = %d, want 2", n)
	}
	if n := count(`SELECT COUNT(*) FROM t WHERE id NOT IN (1, 3)`); n != 2 {
		t.Errorf("NOT IN = %d, want 2", n)
	}
	if n := count(`SELECT COUNT(*) FROM t WHERE id BETWEEN 2 AND 3`); n != 2 {
		t.Errorf("BETWEEN = %d, want 2", n)
	}
	if n := count(`SELECT COUNT(*) FROM t WHERE s IS NULL`); n != 1 {
		t.Errorf("IS NULL = %d, want 1", n)
	}
	if n := count(`SELECT COUNT(*) FROM t WHERE s IS NOT NULL`); n != 3 {
		t.Errorf("IS NOT NULL = %d, want 3", n)
	}
	if n := count(`SELECT COUNT(*) FROM t WHERE NOT (id = 1)`); n != 3 {
		t.Errorf("NOT = %d, want 3", n)
	}
	// NULL comparisons are UNKNOWN, filtered out.
	if n := count(`SELECT COUNT(*) FROM t WHERE s = 'zzz' OR id = 4`); n != 1 {
		t.Errorf("OR with null text = %d, want 1", n)
	}
}

func TestUpdateDelete(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`)

	res := mustExec(t, db, `UPDATE t SET v = v + 5 WHERE id >= 2`)
	if res.RowsAffected != 2 {
		t.Fatalf("update affected %d, want 2", res.RowsAffected)
	}
	rows := mustQuery(t, db, `SELECT v FROM t ORDER BY id`)
	want := []int64{10, 25, 35}
	for i, w := range want {
		if rows.Data[i][0].Int() != w {
			t.Errorf("row %d = %v, want %d", i, rows.Data[i][0], w)
		}
	}
	res = mustExec(t, db, `DELETE FROM t WHERE v > 20`)
	if res.RowsAffected != 2 {
		t.Fatalf("delete affected %d, want 2", res.RowsAffected)
	}
}

func TestDistinctLimitOffset(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (v INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (3), (1), (2), (3), (1)`)
	rows := mustQuery(t, db, `SELECT DISTINCT v FROM t ORDER BY v`)
	if len(rows.Data) != 3 || rows.Data[0][0].Int() != 1 || rows.Data[2][0].Int() != 3 {
		t.Fatalf("distinct: %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT v FROM t ORDER BY v LIMIT 2 OFFSET 1`)
	if len(rows.Data) != 2 || rows.Data[0][0].Int() != 1 || rows.Data[1][0].Int() != 2 {
		t.Fatalf("limit/offset: %v", rows.Data)
	}
}

func TestParams(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER, s VARCHAR(20))`)
	mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, sqltypes.NewInt(7), sqltypes.NewString("seven"))
	rows := mustQuery(t, db, `SELECT s FROM t WHERE id = ?`, sqltypes.NewInt(7))
	if len(rows.Data) != 1 || rows.Data[0][0].AsString() != "seven" {
		t.Fatalf("param query: %v", rows.Data)
	}
	if _, err := db.Query(`SELECT s FROM t WHERE id = ?`); err == nil {
		t.Fatal("missing parameter not reported")
	}
}

func TestTransactions(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10)`)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (2, 20)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE t SET v = 99 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(t, db, `SELECT v FROM t ORDER BY id`)
	if len(rows.Data) != 1 || rows.Data[0][0].Int() != 10 {
		t.Fatalf("rollback failed: %v", rows.Data)
	}

	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (2, 20)`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].Int() != 2 {
		t.Fatalf("commit failed: %v", rows.Data)
	}

	// DDL inside transactions is rejected.
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`CREATE TABLE u (id INTEGER)`); err == nil {
		t.Fatal("DDL inside transaction should fail")
	}
	tx.Rollback()
}

func TestPersistenceAndRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, s VARCHAR(20))`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'one'), (2, 'two')`)
	mustExec(t, db, `UPDATE t SET s = 'TWO' WHERE id = 2`)
	mustExec(t, db, `DELETE FROM t WHERE id = 1`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows := mustQuery(t, db2, `SELECT id, s FROM t`)
	if len(rows.Data) != 1 || rows.Data[0][1].AsString() != "TWO" {
		t.Fatalf("recovered state wrong: %v", rows.Data)
	}
}

func TestWALRecoveryWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.CheckpointEvery = 0 // never checkpoint: everything lives in the WAL
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	for i := 1; i <= 10; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	// Simulate a crash: drop the handle without Close (no final snapshot).
	db.wal.f.Sync()
	db.wal.f.Close()
	db.wal = nil
	db.closed = true

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows := mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].Int() != 10 {
		t.Fatalf("WAL replay recovered %v rows, want 10", rows.Data[0][0])
	}
}

func TestTornWALTailIgnored(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.CheckpointEvery = 0
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	// Append garbage simulating a torn write.
	db.wal.f.Write([]byte{0xde, 0xad, 0xbe})
	db.wal.f.Sync()
	db.wal.f.Close()
	db.wal = nil
	db.closed = true

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows := mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].Int() != 1 {
		t.Fatalf("recovered %v rows, want 1", rows.Data[0][0])
	}
}

func TestSecondaryIndex(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, cat VARCHAR(10))`)
	for i := 0; i < 100; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'c%d')`, i, i%10))
	}
	mustExec(t, db, `CREATE INDEX idx_cat ON t (cat)`)
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM t WHERE cat = 'c3'`)
	if rows.Data[0][0].Int() != 10 {
		t.Fatalf("indexed count = %v, want 10", rows.Data[0][0])
	}
	// Index stays correct across updates and deletes.
	mustExec(t, db, `UPDATE t SET cat = 'c3' WHERE id = 4`)
	mustExec(t, db, `DELETE FROM t WHERE id = 3`)
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM t WHERE cat = 'c3'`)
	if rows.Data[0][0].Int() != 10 {
		t.Fatalf("post-mutation indexed count = %v, want 10", rows.Data[0][0])
	}
	mustExec(t, db, `DROP INDEX idx_cat`)
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM t WHERE cat = 'c3'`)
	if rows.Data[0][0].Int() != 10 {
		t.Fatalf("post-drop count = %v, want 10", rows.Data[0][0])
	}
}

func TestDatalinkColumnRequiresController(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE rf (
		file_name VARCHAR(100) PRIMARY KEY,
		download_result DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL
			READ PERMISSION DB WRITE PERMISSION BLOCKED RECOVERY YES ON UNLINK RESTORE)`)
	_, err := db.Exec(`INSERT INTO rf VALUES ('f1', DLVALUE('http://fs1.soton.ac.uk/data/run1/f1.tsf'))`)
	if err == nil || !strings.Contains(err.Error(), "no link controller") {
		t.Fatalf("expected link-controller error, got %v", err)
	}
	// NO FILE LINK CONTROL columns need no controller.
	mustExec(t, db, `CREATE TABLE loose (id INTEGER PRIMARY KEY, link DATALINK LINKTYPE URL NO FILE LINK CONTROL)`)
	mustExec(t, db, `INSERT INTO loose VALUES (1, DLVALUE('http://anywhere/x/y.dat'))`)
}

// recordingController counts link-control callbacks.
type recordingController struct {
	prepLink, prepUnlink []string
	commits, aborts      int
	failLink             bool
}

func (rc *recordingController) PrepareLink(txID uint64, url string, opts sqltypes.DatalinkOptions) error {
	if rc.failLink {
		return fmt.Errorf("file does not exist")
	}
	rc.prepLink = append(rc.prepLink, url)
	return nil
}
func (rc *recordingController) PrepareUnlink(txID uint64, url string, opts sqltypes.DatalinkOptions) error {
	rc.prepUnlink = append(rc.prepUnlink, url)
	return nil
}
func (rc *recordingController) Commit(txID uint64) error { rc.commits++; return nil }
func (rc *recordingController) Abort(txID uint64) error  { rc.aborts++; return nil }

func TestDatalinkLinkControlFlow(t *testing.T) {
	db := memDB(t)
	rc := &recordingController{}
	db.SetLinkController(rc)
	mustExec(t, db, `CREATE TABLE rf (
		file_name VARCHAR(100) PRIMARY KEY,
		link DATALINK LINKTYPE URL FILE LINK CONTROL READ PERMISSION DB ON UNLINK RESTORE)`)

	mustExec(t, db, `INSERT INTO rf VALUES ('f1', DLVALUE('http://fs1/data/f1.tsf'))`)
	if len(rc.prepLink) != 1 || rc.commits != 1 {
		t.Fatalf("link flow: prepLink=%v commits=%d", rc.prepLink, rc.commits)
	}

	mustExec(t, db, `UPDATE rf SET link = DLVALUE('http://fs2/data/f1.tsf') WHERE file_name = 'f1'`)
	if len(rc.prepUnlink) != 1 || len(rc.prepLink) != 2 {
		t.Fatalf("update flow: unlink=%v link=%v", rc.prepUnlink, rc.prepLink)
	}

	mustExec(t, db, `DELETE FROM rf WHERE file_name = 'f1'`)
	if len(rc.prepUnlink) != 2 {
		t.Fatalf("delete flow: unlink=%v", rc.prepUnlink)
	}

	// FILE LINK CONTROL: when the file manager refuses (missing file),
	// the INSERT fails and nothing is stored.
	rc.failLink = true
	if _, err := db.Exec(`INSERT INTO rf VALUES ('f2', DLVALUE('http://fs1/data/missing.tsf'))`); err == nil {
		t.Fatal("insert with failing link control succeeded")
	}
	if rc.aborts == 0 {
		t.Fatal("failed transaction did not abort link work")
	}
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM rf`)
	if rows.Data[0][0].Int() != 0 {
		t.Fatalf("phantom row after failed link: %v", rows.Data)
	}
}

func TestDatalinkFunctions(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE rf (id INTEGER, link DATALINK NO FILE LINK CONTROL)`)
	mustExec(t, db, `INSERT INTO rf VALUES (1, DLVALUE('http://fs1.soton.ac.uk:8080/vol0/run1/ts42.tsf'))`)
	rows := mustQuery(t, db, `SELECT DLURLSERVER(link), DLURLPATH(link), DLURLCOMPLETE(link), DLLINKTYPE(link) FROM rf`)
	r := rows.Data[0]
	if r[0].AsString() != "fs1.soton.ac.uk:8080" {
		t.Errorf("DLURLSERVER = %q", r[0].AsString())
	}
	if r[1].AsString() != "/vol0/run1/ts42.tsf" {
		t.Errorf("DLURLPATH = %q", r[1].AsString())
	}
	if r[2].AsString() != "http://fs1.soton.ac.uk:8080/vol0/run1/ts42.tsf" {
		t.Errorf("DLURLCOMPLETE = %q", r[2].AsString())
	}
	if r[3].AsString() != "URL" {
		t.Errorf("DLLINKTYPE = %q", r[3].AsString())
	}
}

func TestDropTableRestrict(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE p (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `CREATE TABLE c (id INTEGER PRIMARY KEY, p_id INTEGER REFERENCES p (id))`)
	if _, err := db.Exec(`DROP TABLE p`); err == nil {
		t.Fatal("drop of referenced table succeeded")
	}
	mustExec(t, db, `DROP TABLE c`)
	mustExec(t, db, `DROP TABLE p`)
	if _, err := db.Exec(`DROP TABLE p`); err == nil {
		t.Fatal("double drop succeeded")
	}
	mustExec(t, db, `DROP TABLE IF EXISTS p`)
}

func TestTimestampsAndClock(t *testing.T) {
	db := memDB(t)
	fixed := time.Date(2000, 3, 27, 12, 0, 0, 0, time.UTC) // EDBT 2000 week
	db.SetClock(func() time.Time { return fixed })
	mustExec(t, db, `CREATE TABLE t (id INTEGER, at TIMESTAMP)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, NOW())`)
	mustExec(t, db, `INSERT INTO t VALUES (2, '2000-03-26 09:30:00')`)
	rows := mustQuery(t, db, `SELECT id FROM t WHERE at > '2000-03-27 00:00:00'`)
	if len(rows.Data) != 1 || rows.Data[0][0].Int() != 1 {
		t.Fatalf("timestamp compare: %v", rows.Data)
	}
}

func TestOrderByDescAndAlias(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER, v INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 30), (2, 10), (3, 20)`)
	rows := mustQuery(t, db, `SELECT id, v * 2 AS dbl FROM t ORDER BY dbl DESC`)
	if rows.Data[0][1].Int() != 60 || rows.Data[2][1].Int() != 20 {
		t.Fatalf("alias order: %v", rows.Data)
	}
}

func TestCatalogIntrospection(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE author (author_key VARCHAR(30) PRIMARY KEY, name VARCHAR(100))`)
	mustExec(t, db, `CREATE TABLE simulation (simulation_key VARCHAR(30) PRIMARY KEY,
		author_key VARCHAR(30) REFERENCES author (author_key))`)
	cat := db.Catalog()
	names := cat.TableNames()
	if len(names) != 2 || names[0] != "AUTHOR" {
		t.Fatalf("table names: %v", names)
	}
	refs := cat.ReferencedBy("author")
	if len(refs) != 1 || refs[0].Table != "SIMULATION" || refs[0].Column != "AUTHOR_KEY" {
		t.Fatalf("ReferencedBy: %+v", refs)
	}
	sim, _ := cat.Table("simulation")
	if len(sim.ForeignKeys) != 1 || sim.ForeignKeys[0].RefTable != "AUTHOR" {
		t.Fatalf("FKs: %+v", sim.ForeignKeys)
	}
}

func TestParseErrors(t *testing.T) {
	db := memDB(t)
	bad := []string{
		`SELEC 1`,
		`SELECT FROM`,
		`CREATE TABLE`,
		`INSERT INTO t VALUES`,
		`SELECT * FROM t WHERE`,
		`SELECT 'unterminated`,
	}
	for _, sql := range bad {
		if _, err := db.Query(sql); err == nil {
			if _, err2 := db.Exec(sql); err2 == nil {
				t.Errorf("no error for %q", sql)
			}
		}
	}
}

func TestUnknownColumnAndAmbiguity(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE a (id INTEGER, x INTEGER)`)
	mustExec(t, db, `CREATE TABLE b (id INTEGER, y INTEGER)`)
	mustExec(t, db, `INSERT INTO a VALUES (1, 1)`)
	mustExec(t, db, `INSERT INTO b VALUES (1, 2)`)
	if _, err := db.Query(`SELECT nope FROM a`); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := db.Query(`SELECT id FROM a, b`); err == nil {
		t.Fatal("ambiguous column accepted")
	}
	rows := mustQuery(t, db, `SELECT a.id FROM a, b WHERE a.id = b.id`)
	if len(rows.Data) != 1 {
		t.Fatalf("qualified join: %v", rows.Data)
	}
}

func TestLikeEscapes(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (s VARCHAR(30))`)
	mustExec(t, db, `INSERT INTO t VALUES ('100%'), ('100x'), ('a_b'), ('axb')`)
	count := func(pattern string) int64 {
		rows := mustQuery(t, db, `SELECT COUNT(*) FROM t WHERE s LIKE ?`, sqltypes.NewString(pattern))
		return rows.Data[0][0].Int()
	}
	// Escaped wildcards match literally (the QBE CONTAINS path).
	if n := count(`100\%`); n != 1 {
		t.Errorf("escaped %% matched %d, want 1", n)
	}
	if n := count(`a\_b`); n != 1 {
		t.Errorf("escaped _ matched %d, want 1", n)
	}
	// Unescaped wildcards stay wildcards.
	if n := count(`100_`); n != 2 {
		t.Errorf("unescaped _ matched %d, want 2", n)
	}
}

// Property: LIKE with a literal pattern (no wildcards) is equality.
func TestLikeLiteralProperty(t *testing.T) {
	f := func(raw string) bool {
		s := strings.Map(func(r rune) rune {
			if r == '%' || r == '_' || r == '\\' || r == 0 {
				return 'x'
			}
			return r
		}, raw)
		return likeMatch(s, s) && !likeMatch(s+"x", s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: INSERT then SELECT returns the same value for every kind.
func TestInsertSelectRoundTripProperty(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE rt (id INTEGER PRIMARY KEY, i INTEGER, d DOUBLE, s VARCHAR(200))`)
	id := int64(0)
	f := func(i int64, d float64, sRaw string) bool {
		if d != d { // NaN never round-trips through comparisons
			d = 0
		}
		s := strings.ToValidUTF8(sRaw, "?")
		if len(s) > 200 {
			s = s[:200]
		}
		id++
		if _, err := db.Exec(`INSERT INTO rt VALUES (?, ?, ?, ?)`,
			sqltypes.NewInt(id), sqltypes.NewInt(i), sqltypes.NewDouble(d), sqltypes.NewString(s)); err != nil {
			return false
		}
		rows, err := db.Query(`SELECT i, d, s FROM rt WHERE id = ?`, sqltypes.NewInt(id))
		if err != nil || len(rows.Data) != 1 {
			return false
		}
		r := rows.Data[0]
		return r[0].Int() == i && r[1].Double() == d && r[2].Str() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSortCellsMatchSortCompare: the sort's cached-coercion comparison
// must order every pair of keys — text that parses as a timestamp or a
// number beside real ones, and text that does not — exactly as
// sqltypes.SortCompare does, in both argument orders and on repeat
// (the second comparison reads the cached twin).
func TestSortCellsMatchSortCompare(t *testing.T) {
	ts, err := sqltypes.ParseTimestamp("2001-02-03 04:05:06")
	if err != nil {
		t.Fatal(err)
	}
	vals := []sqltypes.Value{
		sqltypes.Null, sqltypes.NewInt(7), sqltypes.NewInt(-3), sqltypes.NewDouble(7), sqltypes.NewDouble(2.5),
		sqltypes.NewString("7"), sqltypes.NewString("2.5"), sqltypes.NewString("abc"), sqltypes.NewString(""),
		sqltypes.NewString("2001-02-03 04:05:06"), sqltypes.NewString("1999-01-01 00:00:00"), sqltypes.NewClob("10"),
		sqltypes.NewTime(ts), sqltypes.NewTime(ts.Add(time.Hour)), sqltypes.NewBool(true),
	}
	cells := make([]sortKeyCell, len(vals))
	for i, v := range vals {
		cells[i].v = v
	}
	for round := 0; round < 2; round++ {
		for i := range cells {
			for j := range cells {
				if got, want := cmpSortCells(&cells[i], &cells[j]), sqltypes.SortCompare(vals[i], vals[j]); got != want {
					t.Fatalf("round %d: cmpSortCells(%s, %s) = %d, SortCompare = %d", round, vals[i], vals[j], got, want)
				}
			}
		}
	}
}

// TestIntegerArithmeticOutOfRange: +, -, *, / and unary minus on two
// integers fail with the BIGINT range error instead of wrapping, while
// results landing exactly on an edge (and MinInt64 % -1, which is 0)
// pass. The error surfaces wherever the expression is evaluated — a
// projection, an ORDER BY key, a HAVING, and a probe on an indexed
// column, where the failed probe falls back to the heap scan and
// reports what SetFullScanOnly reports.
func TestIntegerArithmeticOutOfRange(t *testing.T) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	for _, c := range []struct {
		op      string
		a, b    int64
		want    int64
		wantErr bool
	}{
		{"+", maxI, 1, 0, true},
		{"+", minI, -1, 0, true},
		{"+", maxI - 1, 1, maxI, false},
		{"+", minI, maxI, -1, false},
		{"-", minI, 1, 0, true},
		{"-", maxI, -1, 0, true},
		{"-", 0, minI, 0, true},
		{"-", -1, maxI, minI, false},
		{"-", maxI, maxI, 0, false},
		{"*", maxI, 2, 0, true},
		{"*", minI, -1, 0, true},
		{"*", -1, minI, 0, true},
		{"*", 1 << 32, 1 << 31, 0, true},
		{"*", -(1 << 62), 2, minI, false},
		{"*", -1, maxI, -maxI, false},
		{"*", 0, minI, 0, false},
		{"/", minI, -1, 0, true},
		{"/", minI, 1, minI, false},
		{"/", maxI, -1, -maxI, false},
		{"%", minI, -1, 0, false},
	} {
		got, err := evalArith(c.op, sqltypes.NewInt(c.a), sqltypes.NewInt(c.b))
		switch {
		case c.wantErr && (err == nil || !strings.Contains(err.Error(), "out of BIGINT range")):
			t.Errorf("%d %s %d = %v, %v; want the BIGINT range error", c.a, c.op, c.b, got, err)
		case !c.wantErr && (err != nil || got.Int() != c.want):
			t.Errorf("%d %s %d = %v, %v; want %d", c.a, c.op, c.b, got, err, c.want)
		}
	}
	for _, c := range []struct {
		a, want int64
		wantErr bool
	}{{minI, 0, true}, {minI + 1, maxI, false}, {maxI, minI + 1, false}} {
		got, err := evalUnary(&Unary{Op: "-", X: &Literal{Val: sqltypes.NewInt(c.a)}}, &evalCtx{})
		if (err != nil) != c.wantErr || err == nil && got.Int() != c.want {
			t.Errorf("-(%d) = %v, %v; want %d (error %v)", c.a, got, err, c.want, c.wantErr)
		}
	}

	db := memDB(t)
	mustExec(t, db, `CREATE TABLE W (ID INTEGER PRIMARY KEY, G INTEGER, N BIGINT)`)
	for i, gn := range [][2]int64{{1, maxI}, {1, minI}, {2, 0}} {
		mustExec(t, db, `INSERT INTO W VALUES (?, ?, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(gn[0]), sqltypes.NewInt(gn[1]))
	}
	mustExec(t, db, `CREATE INDEX W_N ON W (N)`)
	// Each operator at the edge one of W's rows holds; X stands for the
	// operand: the column, the group's aggregate, or a probe parameter.
	for _, c := range []struct {
		expr, agg string
		edge      int64
	}{
		{"X + 1", "MAX(N)", maxI},
		{"X - 1", "MIN(N)", minI},
		{"X * 2", "MAX(N)", maxI},
		{"X / -1", "MIN(N)", minI},
		{"-X", "MIN(N)", minI},
	} {
		with := func(x string) string { return strings.ReplaceAll(c.expr, "X", x) }
		for _, sql := range []string{
			"SELECT " + with("N") + " FROM W",
			"SELECT ID FROM W ORDER BY " + with("N"),
			"SELECT G FROM W GROUP BY G HAVING " + with(c.agg) + " > 0",
		} {
			if _, err := db.Query(sql); err == nil || !strings.Contains(err.Error(), "out of BIGINT range") {
				t.Errorf("%s: error %v, want the BIGINT range error", sql, err)
			}
		}
		sql := "SELECT ID FROM W WHERE N = " + with("?")
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := st.AccessPath(); p != "eq(W.N)" {
			t.Fatalf("%s: path %q, want eq(W.N)", sql, p)
		}
		_, ierr := db.Query(sql, sqltypes.NewInt(c.edge))
		db.SetFullScanOnly(true)
		_, serr := db.Query(sql, sqltypes.NewInt(c.edge))
		db.SetFullScanOnly(false)
		if ierr == nil || serr == nil || ierr.Error() != serr.Error() || !strings.Contains(ierr.Error(), "out of BIGINT range") {
			t.Errorf("%s: index error %v, scan error %v; want the same BIGINT range error", sql, ierr, serr)
		}
	}
}
