package sqldb

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sqltypes"
)

// governDB opens an in-memory database under the given governance
// options and seeds `big` with rows rows across sims distinct SIM
// values. Row count must comfortably exceed the interrupt stride (256)
// so every streaming loop crosses at least one cancellation checkpoint.
func governDB(t testing.TB, opts Options, rows, sims int) *DB {
	t.Helper()
	db, err := OpenWith("", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() }) //nolint:errcheck // idempotent
	if _, err := db.Exec(`CREATE TABLE big (id INTEGER PRIMARY KEY, sim VARCHAR(30), v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := db.Exec(`INSERT INTO big VALUES (?, ?, ?)`,
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("S%05d", i%sims)),
			sqltypes.NewInt(int64(i%97))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// longJoinSQL is the canonical long-running statement: an unindexable
// cross join whose predicate never holds, so it burns through every
// row pair hitting interrupt checkpoints without materialising output.
const longJoinSQL = `SELECT COUNT(*) FROM big a, big b WHERE a.v + b.v < 0`

func counterValue(t *testing.T, db *DB, name string) int64 {
	t.Helper()
	m, ok := db.Metrics().Find(name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return m.Value
}

// TestCancelShapes drives a canceled context through each streaming
// shape — heap scan, hash aggregation, group fold, sort, hash join,
// nested-loop join — and requires the distinguishable ErrCanceled,
// followed by the identical statement succeeding on a live context
// with the same result as an untouched run.
func TestCancelShapes(t *testing.T) {
	db := governDB(t, Options{}, 2000, 50)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	shapes := []struct{ name, sql string }{
		{"heap-scan", `SELECT id FROM big WHERE v < 90`},
		{"hash-agg", `SELECT sim, COUNT(*), SUM(v) FROM big GROUP BY sim`},
		{"agg-fold", `SELECT COUNT(*), SUM(v) FROM big WHERE v < 96`},
		{"sort", `SELECT id, v FROM big ORDER BY v, id`},
		{"hash-join", `SELECT COUNT(*) FROM big a, big b WHERE a.sim = b.sim`},
		{"nested-loop", `SELECT COUNT(*) FROM big a, big b WHERE a.v + b.v < 2`},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			if _, err := db.QueryContext(canceled, s.sql); !errors.Is(err, ErrCanceled) {
				t.Fatalf("canceled %s: err = %v, want ErrCanceled", s.name, err)
			}
			want, err := db.Query(s.sql)
			if err != nil {
				t.Fatalf("%s after cancel: %v", s.name, err)
			}
			got, err := db.QueryContext(context.Background(), s.sql)
			if err != nil {
				t.Fatalf("%s on live context after cancel: %v", s.name, err)
			}
			if len(got.Data) != len(want.Data) {
				t.Fatalf("%s: %d rows after cancellation, want %d", s.name, len(got.Data), len(want.Data))
			}
		})
	}
	if c := counterValue(t, db, "sqldb_statements_canceled_total"); c < int64(len(shapes)) {
		t.Fatalf("sqldb_statements_canceled_total = %d, want >= %d", c, len(shapes))
	}
}

// TestCancelMidStatementLatency is the acceptance-criterion timing
// check: a statement canceled mid-flight returns ErrCanceled within
// 50ms of the cancel, and the identical statement then succeeds.
func TestCancelMidStatementLatency(t *testing.T) {
	db := governDB(t, Options{}, 1500, 50)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(ctx, longJoinSQL)
		errCh <- err
	}()
	// 1500x1500 pairs keep the join busy for hundreds of milliseconds;
	// 30ms in, it is deep inside the nested loop.
	time.Sleep(30 * time.Millisecond)
	start := time.Now()
	cancel()
	err := <-errCh
	latency := time.Since(start)
	if err == nil {
		t.Fatal("long join completed before the cancel — enlarge the table")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-statement cancel: err = %v, want ErrCanceled", err)
	}
	if latency > 50*time.Millisecond {
		t.Fatalf("cancel-to-return latency %v, want <= 50ms", latency)
	}
	// The identical statement succeeds on a fresh context: no poison,
	// no leaked latch, no stuck admission slot.
	rows, err := db.QueryContext(context.Background(), longJoinSQL)
	if err != nil {
		t.Fatalf("identical statement after cancel: %v", err)
	}
	if rows.Data[0][0].Int() != 0 {
		t.Fatalf("join matched %d rows, want 0", rows.Data[0][0].Int())
	}
}

// TestCancelDMLPreWALNoEffect: DML canceled before its WAL frames are
// staged unwinds through the MVCC abort path and leaves zero visible
// change; the identical statement then succeeds in full. This is the
// documented cancellation boundary (govern.go).
func TestCancelDMLPreWALNoEffect(t *testing.T) {
	db := governDB(t, Options{}, 600, 10)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	sumBefore := mustInt(t, db, `SELECT SUM(v) FROM big`)
	countBefore := mustInt(t, db, `SELECT COUNT(*) FROM big`)

	if _, err := db.ExecContext(canceled, `UPDATE big SET v = v + 1`); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled UPDATE: %v, want ErrCanceled", err)
	}
	if _, err := db.ExecContext(canceled, `DELETE FROM big WHERE v < 97`); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled DELETE: %v, want ErrCanceled", err)
	}
	if _, err := db.ExecContext(canceled, `INSERT INTO big VALUES (?, ?, ?)`,
		sqltypes.NewInt(999999), sqltypes.NewString("SX"), sqltypes.NewInt(1)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled INSERT: %v, want ErrCanceled", err)
	}

	if got := mustInt(t, db, `SELECT SUM(v) FROM big`); got != sumBefore {
		t.Fatalf("canceled UPDATE leaked: SUM(v) %d -> %d", sumBefore, got)
	}
	if got := mustInt(t, db, `SELECT COUNT(*) FROM big`); got != countBefore {
		t.Fatalf("canceled INSERT/DELETE leaked: COUNT %d -> %d", countBefore, got)
	}

	// Identical statements on a live context succeed in full.
	res, err := db.ExecContext(context.Background(), `UPDATE big SET v = v + 1`)
	if err != nil {
		t.Fatalf("UPDATE after canceled attempt: %v", err)
	}
	if int64(res.RowsAffected) != countBefore {
		t.Fatalf("UPDATE touched %d rows, want %d", res.RowsAffected, countBefore)
	}
	if got := mustInt(t, db, `SELECT SUM(v) FROM big`); got != sumBefore+countBefore {
		t.Fatalf("post-cancel UPDATE: SUM(v) = %d, want %d", got, sumBefore+countBefore)
	}
}

func mustInt(t *testing.T, db *DB, sql string) int64 {
	t.Helper()
	rows, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rows.Data[0][0].Int()
}

// TestStatementDeadlines covers both deadline sources — the
// per-database SetStatementTimeout default and an explicit context
// deadline — and then proves a deadline-killed read left no latch
// behind: DML (table write latch) and DDL (exclusive engine lock)
// both succeed immediately afterwards.
func TestStatementDeadlines(t *testing.T) {
	db := governDB(t, Options{}, 1200, 50)

	db.SetStatementTimeout(2 * time.Millisecond)
	if _, err := db.QueryContext(context.Background(), longJoinSQL); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("SetStatementTimeout kill: %v, want ErrDeadlineExceeded", err)
	}
	db.SetStatementTimeout(0)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if _, err := db.QueryContext(ctx, longJoinSQL); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("context deadline kill: %v, want ErrDeadlineExceeded", err)
	}
	if c := counterValue(t, db, "sqldb_statements_timed_out_total"); c < 2 {
		t.Fatalf("sqldb_statements_timed_out_total = %d, want >= 2", c)
	}

	// Latch-free: the write latch and the exclusive engine lock are
	// both immediately acquirable after the deadline kills.
	if _, err := db.Exec(`UPDATE big SET v = v + 1 WHERE id = 7`); err != nil {
		t.Fatalf("DML after deadline kill: %v", err)
	}
	if _, err := db.Exec(`CREATE INDEX big_v ON big (v)`); err != nil {
		t.Fatalf("DDL after deadline kill: %v", err)
	}
	if got := mustInt(t, db, `SELECT COUNT(*) FROM big WHERE v >= 0`); got != 1200 {
		t.Fatalf("post-deadline read: %d rows, want 1200", got)
	}
}

// TestMemoryBudget: a hash aggregation over more groups than the
// budget allows fails with ErrMemoryBudget (instead of growing without
// bound), the pool drains back to zero, and budget-friendly statements
// on the same database keep working.
func TestMemoryBudget(t *testing.T) {
	// 2000 distinct SIM values: the hash-agg table alone wants
	// ~2000 x (key + groupFootprint) >> 8KB.
	db := governDB(t, Options{MemoryBudget: 8 << 10}, 2000, 2000)

	_, err := db.QueryContext(context.Background(), `SELECT sim, COUNT(*) FROM big GROUP BY sim`)
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("hash-agg over budget: %v, want ErrMemoryBudget", err)
	}
	if _, err := db.QueryContext(context.Background(), `SELECT id, sim, v FROM big ORDER BY v, id`); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("sort buffer over budget: %v, want ErrMemoryBudget", err)
	}
	if used := db.MemoryInUse(); used != 0 {
		t.Fatalf("MemoryInUse = %d after failed statements, want 0 (pool leak)", used)
	}
	if c := counterValue(t, db, "sqldb_mem_budget_rejected_total"); c < 2 {
		t.Fatalf("sqldb_mem_budget_rejected_total = %d, want >= 2", c)
	}
	// A single-group fold buffers almost nothing and stays admissible.
	if got := mustInt(t, db, `SELECT COUNT(*) FROM big`); got != 2000 {
		t.Fatalf("budget-friendly query after rejections: %d, want 2000", got)
	}
	if used := db.MemoryInUse(); used != 0 {
		t.Fatalf("MemoryInUse = %d after successful statement, want 0", used)
	}
}

// TestAdmissionQueueThenShed is the overload acceptance criterion:
// MaxConcurrentStatements=N under 4N concurrent clients admits N,
// queues up to the bound, and sheds the rest with ErrAdmissionRejected
// — goroutines never pile up behind the semaphore.
func TestAdmissionQueueThenShed(t *testing.T) {
	const n = 2 // 4N = 8 clients
	db := governDB(t, Options{MaxConcurrentStatements: n, AdmissionQueue: 1}, 1500, 50)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, 4*n)
	for i := 0; i < 4*n; i++ {
		go func() {
			_, err := db.QueryContext(ctx, longJoinSQL)
			errs <- err
		}()
	}

	// Sheds return immediately; admitted and queued statements block on
	// the long join until the cancel below. With 2 slots + 1 queue
	// entry, at least 5 of the 8 must shed.
	var shed, canceled, other int
	collected := 0
	deadline := time.After(10 * time.Second)
	for collected < 5 {
		select {
		case err := <-errs:
			collected++
			classifyAdmissionErr(t, err, &shed, &canceled, &other)
		case <-deadline:
			t.Fatalf("only %d of the expected sheds returned (shed=%d canceled=%d)", collected, shed, canceled)
		}
	}
	cancel()
	for collected < 4*n {
		select {
		case err := <-errs:
			collected++
			classifyAdmissionErr(t, err, &shed, &canceled, &other)
		case <-time.After(10 * time.Second):
			t.Fatalf("statements hung after cancel: %d/%d returned", collected, 4*n)
		}
	}
	if other != 0 {
		t.Fatalf("unexpected error class under overload (shed=%d canceled=%d other=%d)", shed, canceled, other)
	}
	if shed < 5 {
		t.Fatalf("shed %d of %d, want >= 5 (N admitted + 1 queued at most)", shed, 4*n)
	}
	if got := counterValue(t, db, "sqldb_statements_shed_total"); got != int64(shed) {
		t.Fatalf("sqldb_statements_shed_total = %d, want %d", got, shed)
	}
	if depth := db.AdmissionQueueDepth(); depth != 0 {
		t.Fatalf("AdmissionQueueDepth = %d after drain, want 0", depth)
	}
	// The database is healthy: a fresh client admits instantly.
	if got := mustInt(t, db, `SELECT COUNT(*) FROM big`); got != 1500 {
		t.Fatalf("query after overload: %d, want 1500", got)
	}
}

func classifyAdmissionErr(t *testing.T, err error, shed, canceled, other *int) {
	t.Helper()
	switch {
	case errors.Is(err, ErrAdmissionRejected):
		*shed++
	case errors.Is(err, ErrCanceled):
		*canceled++
	default:
		t.Logf("unexpected overload error: %v", err)
		*other++
	}
}

// TestCloseDrainsLongScan is the Close-vs-in-flight regression: Close
// broadcasts shutdown, the running scan observes it at the next
// checkpoint and fails with ErrCanceled (wrapping ErrClosed), Close
// completes its WAL teardown, and later statements get ErrClosed.
func TestCloseDrainsLongScan(t *testing.T) {
	db := governDB(t, Options{}, 1500, 50)
	errCh := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(context.Background(), longJoinSQL)
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond) // the join is mid-flight
	closeStart := time.Now()
	if err := db.Close(); err != nil {
		t.Fatalf("Close with in-flight scan: %v", err)
	}
	if took := time.Since(closeStart); took > db.CloseGrace {
		t.Fatalf("Close took %v, want well under the %v grace (drain, not timeout)", took, db.CloseGrace)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, ErrClosed) {
			t.Fatalf("drained scan error = %v, want ErrCanceled wrapping ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight scan never returned after Close")
	}
	if _, err := db.Query(`SELECT COUNT(*) FROM big`); !errors.Is(err, ErrClosed) {
		t.Fatalf("statement after Close: %v, want ErrClosed", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestClosedDBRefusesEveryEntryPoint: after Close, Checkpoint,
// ExecScript, Begin and Vacuum each fail with ErrClosed and change
// nothing, in memory and on disk: a file-backed directory keeps the
// bytes Close left, and reopens with only what was committed before it.
func TestClosedDBRefusesEveryEntryPoint(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, `CREATE TABLE T (ID INTEGER PRIMARY KEY)`)
		mustExec(t, db, `INSERT INTO T VALUES (1)`)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		before := dirImage(t, dir)
		if err := db.Checkpoint(); !errors.Is(err, ErrClosed) {
			t.Errorf("dir %q: Checkpoint after Close = %v, want ErrClosed", dir, err)
		}
		if err := db.ExecScript(`CREATE TABLE U (ID INTEGER)`); !errors.Is(err, ErrClosed) {
			t.Errorf("dir %q: ExecScript after Close = %v, want ErrClosed", dir, err)
		}
		if tx, err := db.Begin(); !errors.Is(err, ErrClosed) {
			if tx != nil {
				tx.Rollback() //nolint:errcheck
			}
			t.Errorf("dir %q: Begin after Close = %v, want ErrClosed", dir, err)
		}
		if err := db.Vacuum(); !errors.Is(err, ErrClosed) {
			t.Errorf("dir %q: Vacuum after Close = %v, want ErrClosed", dir, err)
		}
		if dir == "" {
			continue
		}
		if after := dirImage(t, dir); after != before {
			t.Errorf("calls after Close changed the directory:\n%s\nwant\n%s", after, before)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if _, err := re.Query(`SELECT * FROM U`); err == nil {
			t.Error("table U created after Close survived a reopen")
		}
		rows, err := re.Query(`SELECT COUNT(*) FROM T`)
		if err != nil || rows.Data[0][0].Int() != 1 {
			t.Errorf("reopened T: %v, %v", rows, err)
		}
		re.Close() //nolint:errcheck
	}
}

// dirImage lists each file of dir with its size and content hash ("" for
// an in-memory database).
func dirImage(t *testing.T, dir string) string {
	t.Helper()
	if dir == "" {
		return ""
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d %x\n", e.Name(), len(data), sha256.Sum256(data))
	}
	return b.String()
}

// TestCanceledStatementsNeverMutate is the visibility property test:
// across many statements whose contexts are canceled at random points,
// the final visible state is exactly the set of acknowledged effects —
// every ErrCanceled statement contributed nothing (all-or-nothing per
// statement), on both the sharded write path (FK-free table) and the
// exclusive path (FK-bearing table).
func TestCanceledStatementsNeverMutate(t *testing.T) {
	db, err := OpenWith("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck
	// prop is FK-free (sharded path); child references parent
	// (exclusive path).
	for _, ddl := range []string{
		`CREATE TABLE prop (id INTEGER PRIMARY KEY, v INTEGER)`,
		`CREATE TABLE parent (id INTEGER PRIMARY KEY)`,
		`CREATE TABLE child (id INTEGER PRIMARY KEY, pid INTEGER REFERENCES parent (id))`,
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	const seeded = 400
	for i := 0; i < seeded; i++ {
		if _, err := db.Exec(`INSERT INTO prop VALUES (?, 0)`, sqltypes.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(`INSERT INTO parent VALUES (1)`); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	run := func(sql string, args ...sqltypes.Value) error {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(time.Duration(rng.Intn(1500))*time.Microsecond, cancel)
		_, err := db.ExecContext(ctx, sql, args...)
		timer.Stop()
		cancel()
		if err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: unexpected error class %v", sql, err)
		}
		return err
	}

	ackedUpdates := int64(0)
	ackedIns := make(map[int64]bool)
	for i := 0; i < 160; i++ {
		switch i % 3 {
		case 0: // sharded-path insert
			id := int64(10000 + i)
			if run(`INSERT INTO prop VALUES (?, 0)`, sqltypes.NewInt(id)) == nil {
				ackedIns[id] = true
			}
		case 1: // sharded-path multi-row update (atomicity probe)
			if run(`UPDATE prop SET v = v + 1 WHERE id < ?`, sqltypes.NewInt(seeded)) == nil {
				ackedUpdates++
			}
		default: // exclusive-path insert (FK check forces the engine lock)
			id := int64(20000 + i)
			if run(`INSERT INTO child VALUES (?, 1)`, sqltypes.NewInt(id)) == nil {
				ackedIns[id] = true
			}
		}
	}

	// Visible state == acknowledged effects, exactly.
	rows, err := db.Query(`SELECT id, v FROM prop`)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for _, r := range rows.Data {
		id, v := r[0].Int(), r[1].Int()
		seen[id] = true
		if id < seeded && v != ackedUpdates {
			t.Fatalf("row %d has v=%d, want %d (torn or phantom update)", id, v, ackedUpdates)
		}
		if id >= 10000 && !ackedIns[id] {
			t.Fatalf("canceled insert %d is visible", id)
		}
	}
	crows, err := db.Query(`SELECT id FROM child`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range crows.Data {
		seen[r[0].Int()] = true
		if !ackedIns[r[0].Int()] {
			t.Fatalf("canceled exclusive-path insert %d is visible", r[0].Int())
		}
	}
	for id := range ackedIns {
		if !seen[id] {
			t.Fatalf("acknowledged insert %d is missing", id)
		}
	}
}

// TestSlowLogCancelReason: governed failures land in the slow-query
// log tagged with their cancel reason and remaining deadline budget,
// and DB.Close closes the log writer.
func TestSlowLogCancelReason(t *testing.T) {
	db := governDB(t, Options{}, 1200, 50)
	log := &closableLog{}
	db.SetTraceThreshold(time.Nanosecond)
	db.SetSlowQueryLog(log)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(canceled, `SELECT id FROM big WHERE v < 90`); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled query: %v", err)
	}
	db.SetStatementTimeout(2 * time.Millisecond)
	if _, err := db.QueryContext(context.Background(), longJoinSQL); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("deadline query: %v", err)
	}
	db.SetStatementTimeout(0)

	lines := strings.Split(strings.TrimSpace(log.buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d slow-log lines, want 2:\n%s", len(lines), log.buf.String())
	}
	var first, second Trace
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if first.CancelReason != "canceled" {
		t.Fatalf("canceled trace reason %q, want \"canceled\"", first.CancelReason)
	}
	if second.CancelReason != "deadline" {
		t.Fatalf("deadline trace reason %q, want \"deadline\"", second.CancelReason)
	}
	// DeadlineNs is the budget left at admission: a scheduling stall
	// before it is read can leave it negative, so only its presence and
	// its ceiling, the configured timeout, are fixed.
	if second.DeadlineNs == 0 || second.DeadlineNs > int64(2*time.Millisecond) {
		t.Fatalf("deadline trace carries no budget within the 2ms timeout: %+v", second)
	}

	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !log.closed {
		t.Fatal("slow-query log writer not closed by DB.Close")
	}
}

// closableLog records whether Close was called, standing in for the
// *os.File the daemons hand to SetSlowQueryLog.
type closableLog struct {
	buf    strings.Builder
	closed bool
}

func (c *closableLog) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *closableLog) Close() error                { c.closed = true; return nil }

// TestAdmissionReleasedOnError: statements that fail for ordinary,
// non-governance reasons (unknown table, bad SQL) must still release
// their admission slot — a regression guard on the release path.
func TestAdmissionReleasedOnError(t *testing.T) {
	db := governDB(t, Options{MaxConcurrentStatements: 1}, 300, 10)
	for i := 0; i < 10; i++ {
		if _, err := db.QueryContext(context.Background(), `SELECT nope FROM missing`); err == nil {
			t.Fatal("query against missing table succeeded")
		}
	}
	// With a single slot, a leaked release would deadlock here.
	done := make(chan int64, 1)
	go func() { done <- mustInt(t, db, `SELECT COUNT(*) FROM big`) }()
	select {
	case got := <-done:
		if got != 300 {
			t.Fatalf("COUNT = %d, want 300", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("admission slot leaked by failed statements")
	}
	if db.MemoryInUse() != 0 || db.AdmissionQueueDepth() != 0 {
		t.Fatalf("governance state leaked: mem=%d depth=%d", db.MemoryInUse(), db.AdmissionQueueDepth())
	}
}
