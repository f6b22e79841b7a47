package sqldb

import (
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sqltypes"
)

// TestDurableFormatBytes pins the on-disk format byte for byte. It
// drives every WAL op (the epoch header, BEGIN/COMMIT, DDL, INSERT,
// UPDATE, DELETE) and one checkpoint snapshot over a table holding
// every value kind, including the codec's edge cases: NULL, MinInt64,
// −0, NaN and 1e300 doubles, in-window, zero and far-future
// timestamps, multi-byte text, an empty CLOB, empty and binary BLOBs
// and a DATALINK. The expected hex in testdata/format was written by
// the engine before its codec was rewritten; any byte that moves breaks
// every archive already on disk.
func TestDurableFormatBytes(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.CheckpointEvery = 0
	mustExec(t, db, `CREATE TABLE KINDS (ID INTEGER PRIMARY KEY, I INTEGER, B BOOLEAN, D DOUBLE,
		TS TIMESTAMP, S VARCHAR(40), C CLOB, BL BLOB, L DATALINK NO FILE LINK CONTROL)`)
	mustExec(t, db, `CREATE INDEX IDX_KINDS_S ON KINDS (S)`)
	insert := `INSERT INTO KINDS VALUES (?, ?, ?, ?, ?, ?, ?, ?, DLVALUE(?))`
	null := sqltypes.Null
	mustExec(t, db, insert, sqltypes.NewInt(1), null, null, null, null, null, null, null, null)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]sqltypes.Value{
		{sqltypes.NewInt(2), sqltypes.NewInt(math.MinInt64), sqltypes.NewBool(true),
			sqltypes.NewDouble(math.Copysign(0, -1)),
			sqltypes.NewTime(time.Date(1999, 1, 10, 15, 9, 32, 123456789, time.UTC)),
			sqltypes.NewString("Größe – 流体 ✓"), sqltypes.NewClob(""), sqltypes.NewBytes([]byte{}),
			sqltypes.NewString("http://fs1.soton.ac.uk:8080/vol0/run1/ts42.tsf")},
		{sqltypes.NewInt(3), sqltypes.NewInt(math.MaxInt64), sqltypes.NewBool(false),
			sqltypes.NewDouble(math.NaN()), sqltypes.NewTime(time.Time{}),
			sqltypes.NewString("ascii"), sqltypes.NewClob("a longer clob body"),
			sqltypes.NewBytes([]byte{0x00, 0xff, 0x80, 0x7f, 0x0a}), null},
		{sqltypes.NewInt(4), sqltypes.NewInt(-1), null, sqltypes.NewDouble(1e300),
			sqltypes.NewTime(time.Date(2500, 6, 1, 0, 0, 0, 999, time.UTC)),
			sqltypes.NewString(""), null, null, null},
		{sqltypes.NewInt(5), sqltypes.NewInt(0), sqltypes.NewBool(true), sqltypes.NewDouble(0.5),
			null, sqltypes.NewString("doomed"), null, null, null},
	} {
		if _, err := tx.Exec(insert, args...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `UPDATE KINDS SET S = ?, D = ? WHERE ID = 4`,
		sqltypes.NewString("ünïcödé"), sqltypes.NewDouble(-1e300))
	mustExec(t, db, `DELETE FROM KINDS WHERE ID = 5`)

	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.db"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []byte
	}{{"wal.hex", wal}, {"snapshot.hex", snap}} {
		want, err := os.ReadFile(filepath.Join("testdata", "format", c.name))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(c.got); got != strings.TrimSpace(string(want)) {
			t.Errorf("%s: %d bytes differ from the recorded format:\n%s", c.name, len(c.got), got)
		}
	}
}
