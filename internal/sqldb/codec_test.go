package sqldb

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/iofault"
	"repro/internal/sqltypes"
)

// encodeWALRecord is appendWALRecord into a fresh slice, for tests that
// build frames by hand.
func encodeWALRecord(r walRecord, txID uint64) []byte {
	b, err := appendWALRecord(nil, r, txID)
	if err != nil {
		panic(err)
	}
	return b
}

// codecEdgeRow holds one value of every kind, edge cases included.
func codecEdgeRow() []sqltypes.Value {
	return []sqltypes.Value{
		sqltypes.Null,
		sqltypes.NewInt(math.MinInt64),
		sqltypes.NewBool(true),
		sqltypes.NewDouble(math.Copysign(0, -1)),
		sqltypes.NewDouble(math.NaN()),
		sqltypes.NewTime(time.Date(1999, 1, 10, 15, 9, 32, 123456789, time.UTC)),
		sqltypes.NewTime(time.Time{}),
		sqltypes.NewTime(time.Date(2500, 6, 1, 0, 0, 0, 999, time.UTC)),
		sqltypes.NewString("Größe – 流体"),
		sqltypes.NewClob(""),
		sqltypes.NewBytes([]byte{}),
		sqltypes.NewBytes([]byte{0, 0xff, 0x80}),
		sqltypes.NewDatalink("http://fs1/vol0/run1/ts42.tsf"),
	}
}

// FuzzWALRecord: any payload decodes without a panic, and a payload that
// decodes re-encodes to bytes that decode to the same record.
func FuzzWALRecord(f *testing.F) {
	for _, r := range []walRecord{
		{op: walOpEpoch}, {op: walOpBegin}, {op: walOpCommit},
		{op: walOpDDL, ddl: "CREATE TABLE T (ID INTEGER)"},
		{op: walOpInsert, table: "T", row: 7, vals: codecEdgeRow()},
		{op: walOpUpdate, table: "T", row: 7, vals: []sqltypes.Value{sqltypes.NewInt(1)}},
		{op: walOpDelete, table: "T", row: 7},
	} {
		f.Add(encodeWALRecord(r, 42))
	}
	f.Add([]byte{})
	f.Add([]byte{walOpInsert, 1, 0, 0, 0, 0, 0, 0, 0, 1, 'T', 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, txID, err := decodeWALRecord(payload)
		if err != nil {
			return
		}
		enc, err := appendWALRecord(nil, r, txID)
		if err != nil {
			t.Fatalf("decoded record %+v does not encode: %v", r, err)
		}
		r2, txID2, err := decodeWALRecord(enc)
		if err != nil || txID2 != txID || !reflect.DeepEqual(r, r2) {
			t.Fatalf("round trip: %+v/%d -> %+v/%d (%v)", r, txID, r2, txID2, err)
		}
	})
}

// snapshotImage lists every heap row of db by table, id and encoding.
func snapshotImage(t *testing.T, db *DB) string {
	t.Helper()
	var b []byte
	for _, name := range db.cat.TableNames() {
		b = appendString(b, name)
		db.data[name].scan(snapLatest, func(s *rowSlot, vals []sqltypes.Value) bool {
			var err error
			if b, err = appendRow(appendUint64(b, uint64(s.id)), vals); err != nil {
				t.Fatal(err)
			}
			return true
		})
	}
	return string(b)
}

// FuzzSnapshotLoad: a snapshot body with a valid trailing checksum either
// opens or fails with ErrSnapshotCorrupt or a DDL-replay error; it never
// panics and never half-applies. A failed open returns no database, and
// one that opens holds the whole image: a checkpoint of it reopens to
// the same tables, rows and row-id counter.
func FuzzSnapshotLoad(f *testing.F) {
	dir := f.TempDir()
	db, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, sql := range []string{
		`CREATE TABLE T (ID INTEGER PRIMARY KEY, I INTEGER, B BOOLEAN, D DOUBLE, TS TIMESTAMP,
			S VARCHAR(20), C CLOB, BL BLOB, L DATALINK NO FILE LINK CONTROL)`,
		`CREATE INDEX IDX_T_S ON T (S)`,
		`CREATE TABLE U (K VARCHAR(8), N INTEGER)`,
	} {
		if _, err := db.Exec(sql); err != nil {
			f.Fatal(err)
		}
	}
	row := codecEdgeRow()
	for i := int64(1); i <= 3; i++ {
		if _, err := db.Exec(`INSERT INTO T VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)`,
			sqltypes.NewInt(i), row[1], row[2], row[int(3+i%2)], row[5+i%3], row[8], row[9], row[11], row[12]); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := db.Exec(`INSERT INTO U VALUES ('k', 1)`); err != nil {
		f.Fatal(err)
	}
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "snapshot.db"))
	if err != nil {
		f.Fatal(err)
	}
	body := data[len(snapshotMagic) : len(data)-4]
	f.Add(body)
	f.Add(body[:len(body)-1])
	f.Add(append(append([]byte(nil), body...), 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		data := append([]byte(snapshotMagic), body...)
		data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(data))
		if err := os.WriteFile(filepath.Join(dir, "snapshot.db"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir)
		if err != nil {
			if db != nil {
				t.Fatalf("failed open returned a database: %v", err)
			}
			if !errors.Is(err, ErrSnapshotCorrupt) && !strings.Contains(err.Error(), "snapshot DDL replay") {
				t.Fatalf("untyped snapshot failure: %v", err)
			}
			return
		}
		image, nextRow := snapshotImage(t, db), db.nextRow.Load()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err = Open(dir)
		if err != nil {
			t.Fatalf("reopen after checkpoint: %v", err)
		}
		defer db.Close()
		if got := snapshotImage(t, db); got != image || db.nextRow.Load() != nextRow {
			t.Fatalf("checkpoint changed the image (next row %d -> %d)", nextRow, db.nextRow.Load())
		}
	})
}

// TestStageTxAllocatesNothing: once the log's buffers have grown,
// staging a one-INSERT transaction encodes and frames without a single
// allocation.
func TestStageTxAllocatesNothing(t *testing.T) {
	w, err := openWAL(iofault.Disk{}, filepath.Join(t.TempDir(), "wal.log"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	recs := []walRecord{{op: walOpInsert, table: "RESULT_FILE", row: 9, vals: codecEdgeRow()}}
	stage := func() {
		w.pending, w.nPending = w.pending[:0], 0
		if _, err := w.stageTx(3, recs); err != nil {
			t.Fatal(err)
		}
	}
	stage()
	if n := testing.AllocsPerRun(100, stage); n != 0 {
		t.Fatalf("stageTx allocates %.0f times per transaction, want 0", n)
	}
}

// TestStageTxEncodeErrorStagesNothing: a record that fails to encode
// fails the stage, and none of its transaction's frames stay pending.
func TestStageTxEncodeErrorStagesNothing(t *testing.T) {
	w, err := openWAL(iofault.Disk{}, filepath.Join(t.TempDir(), "wal.log"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if _, err := w.stageTx(2, []walRecord{{op: walOpDelete, table: "T", row: 1}}); err != nil {
		t.Fatal(err)
	}
	staged := len(w.pending)
	// A kind no constructor makes. A Value that is not a scalar keeps
	// its kind in the top byte of its last word.
	var bad sqltypes.Value
	*(*uint64)(unsafe.Add(unsafe.Pointer(&bad), unsafe.Sizeof(bad)-8)) = 0x7f << 56
	if bad.Kind() != 0x7f {
		t.Fatalf("crafted value has kind %v, want Kind(127)", bad.Kind())
	}
	recs := []walRecord{{op: walOpInsert, table: "T", row: 2, vals: []sqltypes.Value{sqltypes.NewInt(1), bad}}}
	if _, err := w.stageTx(3, recs); err == nil || !strings.Contains(err.Error(), "cannot encode") {
		t.Fatalf("stageTx of an unencodable value: %v", err)
	}
	if len(w.pending) != staged || w.nPending != 1 {
		t.Fatalf("failed stage left %d bytes, %d transactions pending; want %d, 1", len(w.pending), w.nPending, staged)
	}
}

// TestReplayRefusesWrongWidthRow: a checksum-valid WAL record whose row
// is narrower than its table fails the open instead of indexing past
// the row's end.
func TestReplayRefusesWrongWidthRow(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE T (A INTEGER, B INTEGER PRIMARY KEY)`)
	if err := db.wal.close(); err != nil { // crash: no checkpoint
		t.Fatal(err)
	}
	var log []byte
	for _, r := range []walRecord{
		{op: walOpBegin},
		{op: walOpInsert, table: "T", row: 50, vals: []sqltypes.Value{sqltypes.NewInt(1)}},
		{op: walOpCommit},
	} {
		log = append(log, frameBytes(encodeWALRecord(r, 99))...)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(log); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "has 1 values, want 2") {
		t.Fatalf("reopen over a one-value row of a two-column table: %v", err)
	}
}
