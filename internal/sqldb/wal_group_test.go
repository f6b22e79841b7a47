package sqldb

import (
	"bufio"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/iofault"
	"repro/internal/sqltypes"
)

// readWALFrames decodes every intact frame of a WAL file, returning the
// records with their transaction IDs in file order.
func readWALFrames(t *testing.T, path string) (recs []walRecord, txIDs []uint64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return recs, txIDs
		}
		payload := make([]byte, getUint32(hdr[0:4]))
		if _, err := io.ReadFull(br, payload); err != nil {
			t.Fatal("torn frame in synced WAL")
		}
		if crc32.ChecksumIEEE(payload) != getUint32(hdr[4:8]) {
			t.Fatal("corrupt frame in synced WAL")
		}
		rec, txID, err := decodeWALRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		txIDs = append(txIDs, txID)
	}
}

// TestGroupCommitDurabilityOrdering drives many concurrent committers
// through the group-commit path and asserts the durability contract:
// when Exec returns, the transaction's full BEGIN..COMMIT frame sequence
// is already on disk (no torn or missing acknowledged transactions), log
// order equals commit order (transaction IDs strictly increasing, each
// transaction's frames contiguous), and a crash at this instant — the
// files copied as-is to a fresh directory — recovers every acknowledged
// row.
func TestGroupCommitDurabilityOrdering(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.CheckpointEvery = 0 // keep everything in the WAL
	if _, err := db.Exec(`CREATE TABLE T (ID INTEGER PRIMARY KEY, W INTEGER)`); err != nil {
		t.Fatal(err)
	}

	const workers, each = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := db.Exec(`INSERT INTO T VALUES (?, ?)`,
					sqltypes.NewInt(int64(w*each+i)), sqltypes.NewInt(int64(w))); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Every acknowledged transaction must already be durable: inspect
	// the live WAL without closing the database (Close would checkpoint
	// and truncate it).
	recs, txIDs := readWALFrames(t, filepath.Join(dir, "wal.log"))
	var (
		open      = map[uint64]bool{}
		commits   []uint64
		lastBegin uint64
	)
	for i, rec := range recs {
		id := txIDs[i]
		switch rec.op {
		case walOpBegin:
			open[id] = true
			lastBegin = id
		case walOpCommit:
			if !open[id] {
				t.Fatalf("COMMIT for tx %d without BEGIN", id)
			}
			delete(open, id)
			commits = append(commits, id)
		case walOpEpoch: // log header, not part of any transaction
		default:
			// Frames of one transaction are staged contiguously: a
			// record must belong to the most recently begun transaction.
			if id != lastBegin {
				t.Fatalf("interleaved record: tx %d inside tx %d", id, lastBegin)
			}
		}
	}
	if len(open) != 0 {
		t.Fatalf("%d transactions left open in the log", len(open))
	}
	if want := workers*each + 1; len(commits) != want { // +1 for the CREATE TABLE
		t.Fatalf("%d committed transactions in log, want %d", len(commits), want)
	}
	for i := 1; i < len(commits); i++ {
		if commits[i] <= commits[i-1] {
			t.Fatalf("log order violates commit order: tx %d after tx %d", commits[i], commits[i-1])
		}
	}

	// Simulated crash: copy the on-disk state and recover from it.
	crashDir := t.TempDir()
	for _, name := range []string{"wal.log", "snapshot.db"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := Open(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rows, err := rec.Query(`SELECT COUNT(*) FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int(); got != workers*each {
		t.Fatalf("recovered %d rows, want %d", got, workers*each)
	}
	db.Close()
}

// TestGroupCommitExplicitTx covers the Tx.Commit path: durability after
// commit, rollback leaving no trace, and the writer lock being released
// before the fsync (a concurrent reader can run while a commit flushes).
func TestGroupCommitExplicitTx(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CheckpointEvery = 0
	if _, err := db.Exec(`CREATE TABLE T (ID INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := tx.Exec(`INSERT INTO T VALUES (?)`, sqltypes.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rep, err := replayWAL(iofault.Disk{}, filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.tail != iofault.TailClean {
		t.Fatalf("synced WAL classified %v, want clean", rep.tail)
	}
	if len(rep.committed) != 2 { // DDL + the 10-row transaction
		t.Fatalf("%d committed txns in WAL, want 2", len(rep.committed))
	}
	if len(rep.committed[1]) != 10 {
		t.Fatalf("committed tx has %d records, want 10", len(rep.committed[1]))
	}

	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec(`INSERT INTO T VALUES (?)`, sqltypes.NewInt(99)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT COUNT(*) FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Int() != 10 {
		t.Fatalf("rollback leaked rows: %v", rows.Data[0][0])
	}
}

// TestGroupCommitFailureUnwindsReverseOrder: when one flush batch holds
// overlapping transactions and the fsync fails, the batch must unwind
// in reverse commit order. T1 inserts a row, T2 deletes it; undoing T1
// before T2 would no-op the delete-of-insert and then resurrect the row
// via T2's undo, leaving state that never existed. Both committers must
// see the failure, and the table must return to its pre-batch state.
func TestGroupCommitFailureUnwindsReverseOrder(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CheckpointEvery = 0
	if err := db.ExecScript(`CREATE TABLE T (ID INTEGER PRIMARY KEY);
		INSERT INTO T VALUES (1)`); err != nil {
		t.Fatal(err)
	}

	// Break the log: further writes hit a closed file descriptor.
	db.mu.Lock()
	db.wal.mu.Lock()
	db.wal.f.Close()
	db.wal.mu.Unlock()

	// Stage two overlapping transactions back-to-back under the writer
	// lock (exactly what concurrent committers produce inside one group
	// window), then complete them in ARRIVAL order — the order that
	// corrupted state before the reverse-order unwind existed.
	mustStage := func(sql string) func() error {
		t.Helper()
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		tx := db.newTx()
		if _, _, err := db.execStmtLocked(tx, stmt, nil); err != nil {
			t.Fatal(err)
		}
		finish, err := db.commitTx(tx)
		if err != nil {
			t.Fatal(err)
		}
		return finish
	}
	fin1 := mustStage(`INSERT INTO T VALUES (2)`)
	fin2 := mustStage(`DELETE FROM T WHERE ID = 2`)
	db.mu.Unlock()

	if err := fin1(); err == nil {
		t.Fatal("T1 commit acknowledged despite WAL failure")
	}
	if err := fin2(); err == nil {
		t.Fatal("T2 commit acknowledged despite WAL failure")
	}

	rows, err := db.Query(`SELECT ID FROM T ORDER BY ID`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0].Int() != 1 {
		ids := make([]int64, len(rows.Data))
		for i := range rows.Data {
			ids[i] = rows.Data[i][0].Int()
		}
		t.Fatalf("post-failure table = %v, want [1] (pre-batch state)", ids)
	}

	// The failure is sticky: later commits fail and roll back too.
	if _, err := db.Exec(`INSERT INTO T VALUES (3)`); err == nil {
		t.Fatal("commit succeeded on a poisoned WAL")
	}
	rows, _ = db.Query(`SELECT COUNT(*) FROM T`)
	if rows.Data[0][0].Int() != 1 {
		t.Fatalf("sticky-failure commit leaked rows: %v", rows.Data[0][0])
	}
}

// TestGroupCommitBatches asserts that committers staged inside one
// group window share fsyncs. Timing-independent: N transactions are
// staged back-to-back under the writer lock (the state concurrent
// committers produce while a flush is in progress) and then completed
// concurrently — the elected leader must drain them all in one flush.
func TestGroupCommitBatches(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CheckpointEvery = 0
	if _, err := db.Exec(`CREATE TABLE T (ID INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	const n = 16
	db.mu.Lock()
	wal := db.wal
	wal.mu.Lock()
	flushesBefore := wal.flushes
	wal.mu.Unlock()
	finishes := make([]func() error, n)
	for i := 0; i < n; i++ {
		stmt, err := Parse(`INSERT INTO T VALUES (?)`)
		if err != nil {
			t.Fatal(err)
		}
		tx := db.newTx()
		if _, _, err := db.execStmtLocked(tx, stmt, []sqltypes.Value{sqltypes.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
		if finishes[i], err = db.commitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	db.mu.Unlock()

	var wg sync.WaitGroup
	for _, finish := range finishes {
		wg.Add(1)
		go func(finish func() error) {
			defer wg.Done()
			if err := finish(); err != nil {
				t.Error(err)
			}
		}(finish)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	wal.mu.Lock()
	durable, seq, flushes := wal.durable, wal.seq, wal.flushes-flushesBefore
	wal.mu.Unlock()
	if durable != seq {
		t.Fatalf("pending frames after all commits acked: durable=%d staged=%d", durable, seq)
	}
	if flushes != 1 {
		t.Fatalf("%d commits staged in one window took %d flushes, want 1", n, flushes)
	}
	rows, err := db.Query(`SELECT COUNT(*) FROM T`)
	if err != nil || rows.Data[0][0].Int() != n {
		t.Fatalf("rows=%v err=%v, want %d", rows.Data[0][0], err, n)
	}
}
