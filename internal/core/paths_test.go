package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dlfs"
	"repro/internal/med"
	"repro/internal/sqldb"
	"repro/internal/sqltypes"
)

// archiveShape is one statement shape the archive's pages and the
// report issue, with the access path it must take.
type archiveShape struct {
	sql  string
	args []sqltypes.Value
	path string
	rows int
}

func str(s string) sqltypes.Value { return sqltypes.NewString(s) }

// archiveShapes: every hyperlink of the browse interface is a lookup by
// a declared key, the search page a window of one run's timesteps. The
// restrictions arrive as text, the way the QBE layer sends them.
func archiveShapes(run, author string) []archiveShape {
	return []archiveShape{
		{`SELECT * FROM SIMULATION WHERE SIMULATION_KEY = ?`, []sqltypes.Value{str(run)},
			"eq(SIMULATION.SIMULATION_KEY)", 1},
		{`SELECT * FROM AUTHOR WHERE AUTHOR_KEY = ?`, []sqltypes.Value{str(author)},
			"eq(AUTHOR.AUTHOR_KEY)", 1},
		{`SELECT * FROM RESULT_FILE WHERE FILE_NAME = ? AND SIMULATION_KEY = ?`,
			[]sqltypes.Value{str("ts00007.tsf"), str(run)},
			"eq(RESULT_FILE.FILE_NAME+SIMULATION_KEY)", 1},
		{`SELECT * FROM RESULT_FILE WHERE SIMULATION_KEY = ?`, []sqltypes.Value{str(run)},
			"prefix(RESULT_FILE.SIMULATION_KEY)", 30},
		{`SELECT * FROM RESULT_FILE WHERE SIMULATION_KEY = ? AND TIMESTEP >= ? AND TIMESTEP < ?`,
			[]sqltypes.Value{str(run), str("5"), str("25")},
			"range(RESULT_FILE.SIMULATION_KEY+TIMESTEP)", 20},
		{`SELECT * FROM RESULT_FILE WHERE SIMULATION_KEY = ? AND TIMESTEP >= ? LIMIT 20`,
			[]sqltypes.Value{str(run), str("5")},
			"range(RESULT_FILE.SIMULATION_KEY+TIMESTEP)", 20},
	}
}

// checkShapes asserts each shape's path and that it reads exactly the
// heap rows it returns — no scan, no residual-filtered candidates.
func checkShapes(t *testing.T, db *sqldb.DB, shapes []archiveShape) {
	t.Helper()
	for _, sh := range shapes {
		st, err := db.Prepare(sh.sql)
		if err != nil {
			t.Fatal(err)
		}
		if p, err := st.AccessPath(); err != nil || p != sh.path {
			t.Errorf("%s: path %q (err %v), want %q", sh.sql, p, err, sh.path)
		}
		table := strings.Fields(sh.sql[strings.Index(sh.sql, "FROM ")+5:])[0]
		before := db.HeapRowReads(table)
		rows, err := st.Query(sh.args...)
		if err != nil {
			t.Fatalf("%s: %v", sh.sql, err)
		}
		if len(rows.Data) != sh.rows {
			t.Errorf("%s: %d rows, want %d", sh.sql, len(rows.Data), sh.rows)
		}
		if reads := db.HeapRowReads(table) - before; reads != int64(sh.rows) {
			t.Errorf("%s: %d heap reads for %d rows", sh.sql, reads, sh.rows)
		}
	}
}

// TestArchiveShapesAreIndexServed: no page of the archive is served by
// a scan. The keys the browse links follow are declared in the schema
// and nowhere else, so this is what "a constraint is an index" buys.
func TestArchiveShapesAreIndexServed(t *testing.T) {
	a, _, _ := newArchive(t, "")
	if err := a.InitTurbulenceSchema(); err != nil {
		t.Fatal(err)
	}
	db := a.DB
	for i := 0; i < 3; i++ {
		if _, err := db.Exec(`INSERT INTO AUTHOR VALUES (?, 'n', 'o', 'e')`, str(fmt.Sprint("A", i))); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 6; r++ {
		run := fmt.Sprint("S", r)
		if _, err := db.Exec(`INSERT INTO SIMULATION VALUES (?, ?, 't', NULL, 64, 1.0, 30, NULL)`,
			str(run), str(fmt.Sprint("A", r%3))); err != nil {
			t.Fatal(err)
		}
		for ts := 0; ts < 30; ts++ {
			if _, err := db.Exec(`INSERT INTO RESULT_FILE VALUES (?, ?, ?, 'u', 'TSF', 4, NULL)`,
				str(fmt.Sprintf("ts%05d.tsf", ts)), str(run), sqltypes.NewInt(int64(ts))); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkShapes(t, db, archiveShapes("S4", "A1"))

	// Existence of one file: answered from the key's postings alone.
	st, err := db.Prepare(`SELECT COUNT(*) FROM RESULT_FILE WHERE FILE_NAME = ? AND SIMULATION_KEY = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st.AccessPath(); p != "eq(RESULT_FILE.FILE_NAME+SIMULATION_KEY) index-only" {
		t.Errorf("COUNT by primary key: path %q", p)
	}
	before := db.HeapRowReads("RESULT_FILE")
	rows, err := st.Query(str("ts00007.tsf"), str("S4"))
	if err != nil || rows.Data[0][0].Int() != 1 {
		t.Fatalf("COUNT by primary key: %v %v", rows, err)
	}
	if reads := db.HeapRowReads("RESULT_FILE") - before; reads != 0 {
		t.Errorf("COUNT by primary key read %d heap rows", reads)
	}

	// The report's join lands on two primary keys: probed per outer row,
	// no table hashed per execution.
	st, err = db.Prepare(`SELECT R.FILE_NAME, S.TITLE, A.NAME FROM RESULT_FILE R
		JOIN SIMULATION S ON R.SIMULATION_KEY = S.SIMULATION_KEY
		JOIN AUTHOR A ON S.AUTHOR_KEY = A.AUTHOR_KEY WHERE R.TIMESTEP = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := st.AccessPath(); p != "eq(RESULT_FILE.TIMESTEP) inl(S.SIMULATION_KEY) inl(A.AUTHOR_KEY)" {
		t.Errorf("report join: path %q", p)
	}
	if rows, err := st.Query(sqltypes.NewInt(3)); err != nil || len(rows.Data) != 6 {
		t.Fatalf("report join: %v %v", rows, err)
	}

	// The archive step's run counter: one read to match the row by its
	// key and one to rewrite it, whatever the table holds.
	before = db.HeapRowReads("SIMULATION")
	res, err := db.Exec(`UPDATE SIMULATION SET NUM_TIMESTEPS = NUM_TIMESTEPS + 1 WHERE SIMULATION_KEY = ?`, str("S4"))
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("UPDATE by primary key: %v %v", res, err)
	}
	if reads := db.HeapRowReads("SIMULATION") - before; reads != 2 {
		t.Errorf("UPDATE by primary key read %d heap rows, want 2", reads)
	}

	// Deleting a run is RESTRICT-checked against its files through the
	// (SIMULATION_KEY, TIMESTEP) index, the only one leading with the key.
	before = db.HeapRowReads("RESULT_FILE")
	if _, err := db.Exec(`DELETE FROM SIMULATION WHERE SIMULATION_KEY = ?`, str("S4")); err == nil {
		t.Fatal("deleted a run that still has files")
	}
	if reads := db.HeapRowReads("RESULT_FILE") - before; reads != 0 {
		t.Errorf("RESTRICT check scanned %d RESULT_FILE rows", reads)
	}
}

// TestOpensArchiveWrittenBeforeOneIndexKind opens a copy of
// testdata/archive_63bfc1d, an archive directory written by commit
// 63bfc1d — the last with HASH, ORDERED and constraint-only unique
// indexes as three kinds. Its DDL log carries USING HASH / USING ORDERED
// clauses, IDX_RESULT_SIM (since dropped from the schema) and a named
// index over SIMULATION's primary-key column; the snapshot holds two
// authors, two runs and S1's 30 files (ts00004.tsf linked on
// fs1.sim:80), the WAL S2's 30 files, an UPDATE and a DELETE. Indexes
// are not serialised, so opening it is a replay of that DDL through
// today's engine.
func TestOpensArchiveWrittenBeforeOneIndexKind(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snapshot.db", "wal.log"} {
		b, err := os.ReadFile(filepath.Join("testdata", "archive_63bfc1d", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	secret := []byte("fixture-secret")
	open := func() (*Archive, *dlfs.Store) {
		t.Helper()
		a, err := Open(Config{DBDir: dir, Secret: secret, WorkRoot: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		auth, err := med.NewTokenAuthority(secret, 0)
		if err != nil {
			t.Fatal(err)
		}
		store, err := dlfs.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Put("/d/ts00004.tsf", strings.NewReader("data")); err != nil {
			t.Fatal(err)
		}
		a.AttachFileServer(WrapManager(dlfs.NewManager("fs1.sim:80", store, auth)))
		return a, store
	}
	a, store := open()
	if got := a.DB.Recovery().ReplayedTx; got == 0 {
		t.Fatal("fixture WAL replayed no transaction")
	}
	if err := a.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if store.LinkedCount() != 1 {
		t.Fatalf("reconcile linked %d files, want 1", store.LinkedCount())
	}
	rows, err := a.DB.Query(`SELECT COUNT(*), MAX(TIMESTEP) FROM RESULT_FILE WHERE SIMULATION_KEY = 'S2'`)
	if err != nil || rows.Data[0][0].Int() != 29 || rows.Data[0][1].Int() != 28 {
		t.Fatalf("S2's files after replay: %v %v", rows, err)
	}
	// IDX_RESULT_SIM came with the old schema and is still a named index:
	// dropping it is all that separates this archive from today's schema.
	if _, err := a.DB.Exec(`DROP INDEX IDX_RESULT_SIM`); err != nil {
		t.Fatal(err)
	}
	checkShapes(t, a.DB, archiveShapes("S1", "A1"))

	// The keys are enforced and the archive takes writes.
	if _, err := a.DB.Exec(`INSERT INTO SIMULATION VALUES ('S1', 'A1', 'dup', NULL, 1, 1.0, 1, NULL)`); err == nil {
		t.Fatal("duplicate primary key accepted after replay")
	}
	if _, err := a.DB.Exec(`INSERT INTO RESULT_FILE VALUES ('ts00029.tsf', 'S2', 29, 'v', 'TSF', 4, NULL)`); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Close checkpointed: the snapshot's DDL log is the re-rendered text,
	// which names no access method, and it opens again.
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.db"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap, []byte("CREATE INDEX IDX_SIM_KEY ON SIMULATION (SIMULATION_KEY)")) {
		t.Fatal("snapshot lost the named index over the primary-key column")
	}
	if bytes.Contains(snap, []byte("USING")) {
		t.Fatal("re-logged DDL still carries a USING clause")
	}
	a, _ = open()
	defer a.Close()
	rows, err = a.DB.Query(`SELECT COUNT(*) FROM RESULT_FILE`)
	if err != nil || rows.Data[0][0].Int() != 60 {
		t.Fatalf("reopened archive: %v %v", rows, err)
	}
}
