package sqldb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqltypes"
)

func cacheDB(t *testing.T) *DB {
	t.Helper()
	db := memDB(t)
	db.setResultCacheCap(4 << 20)
	return db
}

// setResultCacheCap replaces the database's result cache with an empty
// one of the given byte capacity, or turns it off (bytes <= 0),
// refunding every budget charge the old one held.
func (db *DB) setResultCacheCap(bytes int64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	old := db.rcache.Load()
	if bytes <= 0 {
		db.rcache.Store(nil)
	} else {
		db.rcache.Store(newResultCache(db, bytes))
	}
	if old != nil {
		old.flush()
	}
}

// entryCount reports how many result sets are cached.
func (rc *resultCache) entryCount() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.order.Len()
}

// TestResultCacheHitAndAccessPath: the second execution of an identical
// cacheable statement is served from the cache, the hit/miss counters
// advance, and AccessPath advertises the cached state.
func TestResultCacheHitAndAccessPath(t *testing.T) {
	db := cacheDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10))`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')`)

	const q = `SELECT id, v FROM t WHERE id > 1 ORDER BY id`
	mustQuery(t, db, q).Close() // priming: a first sighting is not cached
	misses0 := counterValue(t, db, "sqldb_result_cache_misses_total")
	first := mustQuery(t, db, q)
	first.Detach()
	if got := counterValue(t, db, "sqldb_result_cache_misses_total") - misses0; got != 1 {
		t.Fatalf("misses after first query = %d, want 1", got)
	}
	second := mustQuery(t, db, q)
	second.Detach()
	if got := counterValue(t, db, "sqldb_result_cache_hits_total"); got != 1 {
		t.Fatalf("hits after second query = %d, want 1", got)
	}
	rowsMustEqual(t, "cached replay", second, first)

	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	path, err := stmt.AccessPath()
	if err != nil {
		t.Fatalf("AccessPath: %v", err)
	}
	if !strings.Contains(path, " cached") {
		t.Fatalf("AccessPath = %q, want ' cached' suffix", path)
	}

	// Distinct bound args are distinct cache keys.
	p2, err := db.Prepare(`SELECT v FROM t WHERE id = ?`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	r1, err := p2.Query(sqltypes.NewInt(1))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	r2, err := p2.Query(sqltypes.NewInt(2))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if r1.Data[0][0].AsString() != "a" || r2.Data[0][0].AsString() != "b" {
		t.Fatalf("args not part of the cache key: %v / %v", r1.Data, r2.Data)
	}
	r1.Close()
	r2.Close()
}

// TestResultCacheKeyIsExact: bound arguments that the index key
// encoding folds together — distinct integers past 2^53 (one float64
// image), INTEGER 1 and DOUBLE 1 (equal under Compare) — are different
// statements to the cache, which replays a hit with no residual check.
func TestResultCacheKeyIsExact(t *testing.T) {
	db := cacheDB(t)
	mustExec(t, db, `CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR(10))`)
	const far = int64(1) << 53
	ins, err := db.Prepare(`INSERT INTO t VALUES (?, ?)`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for id, v := range map[int64]string{far: "a", far + 1: "b", 1: "one"} {
		if _, err := ins.Exec(sqltypes.NewInt(id), sqltypes.NewString(v)); err != nil {
			t.Fatalf("insert %d: %v", id, err)
		}
	}
	byID, err := db.Prepare(`SELECT v FROM t WHERE id = ?`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	prime := func(s *Stmt, args ...sqltypes.Value) {
		for _, a := range args {
			rows, err := s.Query(a)
			if err != nil {
				t.Fatalf("priming %v: %v", a, err)
			}
			rows.Close()
		}
	}
	prime(byID, sqltypes.NewInt(far), sqltypes.NewInt(far+1))
	for _, tc := range []struct {
		id   int64
		want string
	}{{far, "a"}, {far + 1, "b"}, {far, "a"}} {
		rows, err := byID.Query(sqltypes.NewInt(tc.id))
		if err != nil || len(rows.Data) != 1 {
			t.Fatalf("id %d: %d rows, err %v", tc.id, len(rows.Data), err)
		}
		if got := rows.Data[0][0].AsString(); got != tc.want {
			t.Errorf("id %d: cache served %q, want %q", tc.id, got, tc.want)
		}
		rows.Close()
	}

	echo, err := db.Prepare(`SELECT v, ? FROM t WHERE id = 1`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	prime(echo, sqltypes.NewInt(1), sqltypes.NewDouble(1), sqltypes.NewString("1"))
	for _, arg := range []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewDouble(1), sqltypes.NewString("1"), sqltypes.NewInt(1)} {
		rows, err := echo.Query(arg)
		if err != nil || len(rows.Data) != 1 {
			t.Fatalf("echo %v: %d rows, err %v", arg, len(rows.Data), err)
		}
		if got := rows.Data[0][1]; got.Kind() != arg.Kind() {
			t.Errorf("echo of %s %v: cache served a %s", arg.Kind(), arg, got.Kind())
		}
		rows.Close()
	}
	if got := counterValue(t, db, "sqldb_result_cache_hits_total"); got != 2 {
		t.Errorf("hits = %d, want 2 (the repeated far id and the repeated INTEGER 1)", got)
	}
}

// TestResultCacheInvalidationOnWrite: a committed write to a referenced
// table must never let a later query observe the stale cached result.
func TestResultCacheInvalidationOnWrite(t *testing.T) {
	db := cacheDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10), (2, 20)`)

	const q = `SELECT COUNT(*), SUM(v) FROM t`
	r := mustQuery(t, db, q)
	if r.Data[0][0].Int() != 2 {
		t.Fatalf("count = %v, want 2", r.Data[0][0])
	}
	r.Close()
	mustQuery(t, db, q).Close() // hit, warm the entry

	mustExec(t, db, `INSERT INTO t VALUES (3, 30)`)
	r = mustQuery(t, db, q)
	if r.Data[0][0].Int() != 3 || r.Data[0][1].Int() != 60 {
		t.Fatalf("post-insert cached read stale: %v", r.Data)
	}
	r.Close()

	mustQuery(t, db, q).Close()
	mustExec(t, db, `UPDATE t SET v = 0 WHERE id = 1`)
	r = mustQuery(t, db, q)
	if r.Data[0][1].Int() != 50 {
		t.Fatalf("post-update cached read stale: %v", r.Data)
	}
	r.Close()

	mustQuery(t, db, q).Close()
	mustExec(t, db, `DELETE FROM t WHERE id = 3`)
	r = mustQuery(t, db, q)
	if r.Data[0][0].Int() != 2 || r.Data[0][1].Int() != 20 {
		t.Fatalf("post-delete cached read stale: %v", r.Data)
	}
	r.Close()

	if got := counterValue(t, db, "sqldb_result_cache_invalidations_total"); got == 0 {
		t.Fatal("invalidations counter never advanced")
	}
}

// TestResultCacheDDLFlush: any schema change flushes the whole cache
// (the schema epoch is part of every entry's validity check).
func TestResultCacheDDLFlush(t *testing.T) {
	db := cacheDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10))`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a')`)
	mustQuery(t, db, `SELECT v FROM t`).Close() // priming
	mustQuery(t, db, `SELECT v FROM t`).Close()
	rc := db.rcache.Load()
	if rc.entryCount() != 1 {
		t.Fatalf("entries before DDL = %d, want 1", rc.entryCount())
	}
	mustExec(t, db, `CREATE TABLE other (k INTEGER PRIMARY KEY)`)
	if rc.entryCount() != 0 {
		t.Fatalf("entries after DDL = %d, want 0", rc.entryCount())
	}
	if rc.bytesUsed() != 0 {
		t.Fatalf("bytes after DDL = %d, want 0", rc.bytesUsed())
	}
	r := mustQuery(t, db, `SELECT v FROM t`)
	if r.Data[0][0].AsString() != "a" {
		t.Fatalf("post-DDL query: %v", r.Data)
	}
	r.Close()
}

// TestResultCacheLRUEviction: a byte-capped cache evicts least-recently
// used entries instead of growing without bound. Later keys are
// executed more often, so they are hotter than the entries they evict.
func TestResultCacheLRUEviction(t *testing.T) {
	db := memDB(t)
	db.setResultCacheCap(8 << 10)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, pad VARCHAR(100))`)
	pad := strings.Repeat("x", 100)
	for i := 0; i < 40; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, sqltypes.NewInt(int64(i)), sqltypes.NewString(pad))
	}
	rc := db.rcache.Load()
	// One row per entry (~900 bytes) stays under the per-entry cap
	// (capBytes/4); forty of them overflow the 8 KiB cache.
	for i := 0; i < 40; i++ {
		for rep := 0; rep <= i/10; rep++ {
			mustQuery(t, db, fmt.Sprintf(`SELECT id, pad FROM t WHERE id = %d`, i)).Close() // priming
		}
		r := mustQuery(t, db, fmt.Sprintf(`SELECT id, pad FROM t WHERE id = %d`, i))
		r.Close()
		if used, cap := rc.bytesUsed(), int64(8<<10); used > cap {
			t.Fatalf("cache bytes %d exceed cap %d", used, cap)
		}
	}
	if got := counterValue(t, db, "sqldb_result_cache_evictions_total"); got == 0 {
		t.Fatal("no evictions under byte pressure")
	}
}

// TestResultCacheEquivalenceSequential replays one seeded DML+query
// script against a cache-on and a cache-off database and requires every
// query result to match exactly.
func TestResultCacheEquivalenceSequential(t *testing.T) {
	setup := func(t *testing.T, cached bool) *DB {
		db := memDB(t)
		if !cached {
			db.setResultCacheCap(0)
		}
		mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, bucket INTEGER, v DOUBLE)`)
		return db
	}
	on, off := setup(t, true), setup(t, false)

	queries := []string{
		`SELECT COUNT(*) FROM t`,
		`SELECT bucket, COUNT(*), SUM(v) FROM t GROUP BY bucket ORDER BY bucket`,
		`SELECT id, v FROM t WHERE bucket = 2 ORDER BY id`,
		`SELECT id FROM t ORDER BY v DESC LIMIT 5`,
	}
	rng := rand.New(rand.NewSource(7))
	next := int64(0)
	for step := 0; step < 400; step++ {
		switch rng.Intn(4) {
		case 0:
			args := []sqltypes.Value{
				sqltypes.NewInt(next),
				sqltypes.NewInt(int64(rng.Intn(5))),
				sqltypes.NewDouble(rng.Float64() * 100),
			}
			next++
			mustExec(t, on, `INSERT INTO t VALUES (?, ?, ?)`, args...)
			mustExec(t, off, `INSERT INTO t VALUES (?, ?, ?)`, args...)
		case 1:
			if next > 0 {
				id := sqltypes.NewInt(rng.Int63n(next))
				mustExec(t, on, `UPDATE t SET v = v + 1 WHERE id = ?`, id)
				mustExec(t, off, `UPDATE t SET v = v + 1 WHERE id = ?`, id)
			}
		case 2:
			if next > 0 {
				id := sqltypes.NewInt(rng.Int63n(next))
				mustExec(t, on, `DELETE FROM t WHERE id = ?`, id)
				mustExec(t, off, `DELETE FROM t WHERE id = ?`, id)
			}
		case 3:
			q := queries[rng.Intn(len(queries))]
			a, b := mustQuery(t, on, q), mustQuery(t, off, q)
			rowsMustEqual(t, fmt.Sprintf("step %d %s", step, q), a, b)
			a.Close()
			b.Close()
		}
	}
	if counterValue(t, on, "sqldb_result_cache_hits_total") == 0 {
		t.Fatal("script never hit the cache — equivalence test exercised nothing")
	}
}

// TestResultCacheConcurrentNoStaleReads is the load-bearing visibility
// property under -race: a writer that just committed row i must observe
// COUNT(*) == i+1 on the very next query even while reader goroutines
// keep the same statement hot in the cache; readers must observe
// monotonically non-decreasing counts.
func TestResultCacheConcurrentNoStaleReads(t *testing.T) {
	db := cacheDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)

	const q = `SELECT COUNT(*) FROM t`
	const writes = 300
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 6; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := int64(-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := db.Query(q)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				n := rows.Data[0][0].Int()
				rows.Close()
				if n < last {
					t.Errorf("reader count went backwards: %d after %d", n, last)
					return
				}
				last = n
			}
		}()
	}

	for i := 0; i < writes; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 0)`, sqltypes.NewInt(int64(i)))
		rows := mustQuery(t, db, q)
		if n := rows.Data[0][0].Int(); n != int64(i+1) {
			t.Fatalf("stale read after commit: COUNT = %d, want %d", n, i+1)
		}
		rows.Close()
	}
	close(stop)
	readers.Wait()
}

// TestResultCacheMemoryBudget: cached bytes are charged against
// Options.MemoryBudget, an entry that would blow the budget is rejected
// with a full refund (the query itself still succeeds), and disabling
// the cache returns every charged byte.
func TestResultCacheMemoryBudget(t *testing.T) {
	db, err := OpenWith("", Options{MemoryBudget: 12_000})
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	db.setResultCacheCap(4 << 20)

	mustExec(t, db, `CREATE TABLE small (id INTEGER PRIMARY KEY, v VARCHAR(10))`)
	mustExec(t, db, `INSERT INTO small VALUES (1, 'a'), (2, 'b')`)
	// Wide VARCHAR rows: the execution-time charge (row footprints only)
	// stays within budget, but the cache entry also accounts the string
	// payloads and exceeds it.
	mustExec(t, db, `CREATE TABLE big (id INTEGER PRIMARY KEY, pad VARCHAR(250))`)
	pad := strings.Repeat("y", 250)
	for i := 0; i < 50; i++ {
		mustExec(t, db, `INSERT INTO big VALUES (?, ?)`, sqltypes.NewInt(int64(i)), sqltypes.NewString(pad))
	}

	mustQuery(t, db, `SELECT id, v FROM small ORDER BY id`).Close() // priming
	mustQuery(t, db, `SELECT id, v FROM small ORDER BY id`).Close()
	rc := db.rcache.Load()
	held := db.MemoryInUse()
	if held <= 0 || held != rc.bytesUsed() {
		t.Fatalf("MemoryInUse = %d, cache holds %d — cached bytes not charged", held, rc.bytesUsed())
	}

	mustQuery(t, db, `SELECT id, pad FROM big`).Close() // priming
	r := mustQuery(t, db, `SELECT id, pad FROM big`)
	if len(r.Data) != 50 {
		t.Fatalf("big query rows = %d, want 50", len(r.Data))
	}
	r.Close()
	if rc.hasStmt(`SELECT id, pad FROM big`) {
		t.Fatal("over-budget entry was published")
	}
	if got := db.MemoryInUse(); got != held {
		t.Fatalf("MemoryInUse = %d after rejected insert, want %d (full refund)", got, held)
	}

	// The small entry is still live and served.
	mustQuery(t, db, `SELECT id, v FROM small ORDER BY id`).Close()
	if counterValue(t, db, "sqldb_result_cache_hits_total") == 0 {
		t.Fatal("small entry lost")
	}

	db.setResultCacheCap(0)
	if got := db.MemoryInUse(); got != 0 {
		t.Fatalf("MemoryInUse = %d after cache disabled, want 0", got)
	}
}

// TestResultCacheCancellationNoPartialEntry: a statement that dies
// under cancellation must not publish a partial result.
func TestResultCacheCancellationNoPartialEntry(t *testing.T) {
	db := cacheDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	for i := 0; i < 500; i += 100 {
		vals := make([]string, 0, 100)
		for j := i; j < i+100; j++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", j, j))
		}
		mustExec(t, db, `INSERT INTO t VALUES `+strings.Join(vals, ", "))
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	const q = `SELECT id, v FROM t WHERE v >= 0`
	if _, err := db.QueryContext(canceled, q); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled query: err = %v, want ErrCanceled", err)
	}
	rc := db.rcache.Load()
	if rc.hasStmt(q) || rc.entryCount() != 0 {
		t.Fatal("canceled statement published a cache entry")
	}

	// The same statement on a live context executes, caches and hits.
	mustQuery(t, db, q).Close() // priming
	r, err := db.Query(q)
	if err != nil {
		t.Fatalf("live query: %v", err)
	}
	if len(r.Data) != 500 {
		t.Fatalf("rows = %d, want 500", len(r.Data))
	}
	r.Close()
	if !rc.hasStmt(q) {
		t.Fatal("live statement did not cache")
	}
}

// TestResultCacheTraceStates: EXPLAIN ANALYZE traces carry the
// cache:"hit"|"miss"|"bypass" tag, and no tag when the cache is off.
func TestResultCacheTraceStates(t *testing.T) {
	db := cacheDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2)`)

	stmt, err := db.Prepare(`SELECT id FROM t ORDER BY id`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if _, err := stmt.Trace(); err != nil { // priming
		t.Fatalf("trace: %v", err)
	}
	tr, err := stmt.Trace()
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	if tr.Cache != "miss" {
		t.Fatalf("first trace cache = %q, want miss", tr.Cache)
	}
	tr, err = stmt.Trace()
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	if tr.Cache != "hit" {
		t.Fatalf("second trace cache = %q, want hit", tr.Cache)
	}
	if !strings.Contains(tr.Path, " cached") {
		t.Fatalf("hit trace path = %q, want ' cached'", tr.Path)
	}

	volatile, err := db.Prepare(`SELECT id, NOW() FROM t`)
	if err != nil {
		t.Fatalf("prepare volatile: %v", err)
	}
	tr, err = volatile.Trace()
	if err != nil {
		t.Fatalf("trace volatile: %v", err)
	}
	if tr.Cache != "bypass" {
		t.Fatalf("volatile trace cache = %q, want bypass", tr.Cache)
	}

	off := memDB(t)
	off.setResultCacheCap(0)
	mustExec(t, off, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	s2, err := off.Prepare(`SELECT id FROM t`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	tr, err = s2.Trace()
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	if tr.Cache != "" {
		t.Fatalf("cache-off trace cache = %q, want empty", tr.Cache)
	}
}

// TestResultCacheSnapshotTxBypass: statements inside an explicit
// transaction read their own snapshot and never consult the cache, so a
// cached entry can't leak newer data into an older transaction.
func TestResultCacheSnapshotTxBypass(t *testing.T) {
	db := cacheDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	mustQuery(t, db, `SELECT COUNT(*) FROM t`).Close() // seed the entry

	tx, err := db.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (2)`); err != nil {
		t.Fatalf("tx insert: %v", err)
	}
	rows, err := tx.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatalf("tx query: %v", err)
	}
	if n := rows.Data[0][0].Int(); n != 2 {
		t.Fatalf("tx sees COUNT = %d, want 2 (own write)", n)
	}
	rows.Close()
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	r := mustQuery(t, db, `SELECT COUNT(*) FROM t`)
	if n := r.Data[0][0].Int(); n != 2 {
		t.Fatalf("post-commit COUNT = %d, want 2", n)
	}
	r.Close()
}

// declines reads sqldb_result_cache_declines_total for one reason.
func declines(t *testing.T, db *DB, reason string) int64 {
	t.Helper()
	m, ok := db.Metrics().Find("sqldb_result_cache_declines_total", "reason", reason)
	if !ok {
		t.Fatalf("declines{reason=%q} not registered", reason)
	}
	return m.Value
}

// TestResultCacheAdmitsOnRepeat: a first execution is not cached, the
// second (a repeat that would have hit) fills, the third hits.
func TestResultCacheAdmitsOnRepeat(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10))`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a'), (2, 'b')`)
	rc := db.rcache.Load()
	const q = `SELECT id, v FROM t ORDER BY id`
	for i, want := range []int{0, 1, 1} {
		rows := mustQuery(t, db, q)
		rowsMustEqual(t, fmt.Sprintf("execution %d", i+1), rows,
			&Rows{Columns: []string{"ID", "V"}, Data: [][]sqltypes.Value{
				{sqltypes.NewInt(1), sqltypes.NewString("a")}, {sqltypes.NewInt(2), sqltypes.NewString("b")}}})
		rows.Close()
		if got := rc.entryCount(); got != want {
			t.Fatalf("after execution %d: %d entries, want %d", i+1, got, want)
		}
	}
	if got := counterValue(t, db, "sqldb_result_cache_hits_total"); got != 1 {
		t.Fatalf("hits = %d, want 1 (the third execution)", got)
	}
	if got := declines(t, db, "first_sighting"); got != 1 {
		t.Fatalf("first-sighting declines = %d, want 1", got)
	}
}

// TestResultCacheSkipsFillAcrossWrite: a statement whose source table
// is written between every pair of sightings is never filled — every
// sighting is the first at its table stamp.
func TestResultCacheSkipsFillAcrossWrite(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	rc := db.rcache.Load()
	const q = `SELECT COUNT(*), SUM(v) FROM t`
	for i := 0; i < 20; i++ {
		rows := mustQuery(t, db, q)
		if n := rows.Data[0][0].Int(); n != int64(i) {
			t.Fatalf("step %d: COUNT = %d", i, n)
		}
		rows.Close()
		if rc.entryCount() != 0 {
			t.Fatalf("step %d: a statement over a table written between sightings was cached", i)
		}
		mustExec(t, db, `INSERT INTO t VALUES (?, 1)`, sqltypes.NewInt(int64(i)))
	}
	if got := counterValue(t, db, "sqldb_result_cache_hits_total"); got != 0 {
		t.Fatalf("hits = %d, want 0", got)
	}
	if got := declines(t, db, "stamp_moved"); got != 19 {
		t.Fatalf("stamp-moved declines = %d, want 19", got)
	}
}

// TestResultCacheHotEntrySurvivesColdChurn: a key hit every 8th
// statement stays resident while 200 distinct keys, each seen twice,
// stream past a full cache — a cold candidate never displaces a hotter
// entry. The entries are sized so that four fill the cache.
func TestResultCacheHotEntrySurvivesColdChurn(t *testing.T) {
	db := memDB(t)
	db.setResultCacheCap(8 << 10)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, pad VARCHAR(1200))`)
	pad := strings.Repeat("p", 1150)
	for i := 0; i <= 200; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, sqltypes.NewInt(int64(i)), sqltypes.NewString(pad))
	}
	stmt, err := db.Prepare(`SELECT id, pad FROM t WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	query := func(id int) {
		t.Helper()
		rows, err := stmt.Query(sqltypes.NewInt(int64(id)))
		if err != nil || len(rows.Data) != 1 || rows.Data[0][0].Int() != int64(id) {
			t.Fatalf("id %d: %v, err %v", id, rows, err)
		}
		rows.Close()
	}
	query(0)
	query(0) // the hot key is admitted
	cold := 0
	for s := 0; cold < 400; s++ {
		if s%8 != 0 {
			query(1 + cold/2)
			cold++
			continue
		}
		hits := counterValue(t, db, "sqldb_result_cache_hits_total")
		query(0)
		if counterValue(t, db, "sqldb_result_cache_hits_total") != hits+1 {
			t.Fatalf("statement %d: the hot key was evicted by cold churn (after %d cold statements)", s, cold)
		}
	}
	if got := db.rcache.Load().entryCount(); got != 4 {
		t.Fatalf("%d entries, want a full cache of 4", got)
	}
	if declines(t, db, "colder_than_victim") == 0 {
		t.Fatal("no cold candidate met a full cache")
	}
}

// TestResultCacheResidentBytesHonest: what the cache charges is what it
// keeps on the heap — after two collections, the heap growth of a cache
// filled to its cap is within 1.25× of bytesUsed.
func TestResultCacheResidentBytesHonest(t *testing.T) {
	db := memDB(t)
	const capBytes = 256 << 10
	db.setResultCacheCap(capBytes)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	for i := 0; i <= 600; i += 100 {
		vals := make([]string, 0, 100)
		for j := i; j < i+100; j++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", j, 2*j))
		}
		mustExec(t, db, `INSERT INTO t VALUES `+strings.Join(vals, ", "))
	}
	stmt, err := db.Prepare(`SELECT v FROM t WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	query := func(id int) {
		rows, err := stmt.Query(sqltypes.NewInt(int64(id)))
		if err != nil || len(rows.Data) != 1 {
			t.Fatalf("id %d: err %v", id, err)
		}
		rows.Close()
	}
	query(600) // warm the plan and the arena pools
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for id := 0; id < 600; id++ {
		query(id)
		query(id)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	rc := db.rcache.Load()
	used := rc.bytesUsed()
	if used < capBytes*9/10 {
		t.Fatalf("cache holds %d of %d bytes: not filled to its cap", used, capBytes)
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d entries charged %d bytes; the heap grew %d bytes (%.2f×)", rc.entryCount(), used, grew, float64(grew)/float64(used))
	if float64(grew) > 1.25*float64(used) || 1.25*float64(grew) < float64(used) {
		t.Fatalf("the heap grew %d bytes for %d charged: not within 1.25×", grew, used)
	}
	runtime.KeepAlive(db)
}

// TestResultCacheMissAllocs: on a miss the cache allocates nothing — no
// key string, no copy — so a statement whose argument cycles through
// first sightings allocates no more than with the cache off. 22 is the
// same query's count with the cache off before the cache was armed by
// default.
func TestResultCacheMissAllocs(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10))`)
	for i := 0; i < 1000; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprint("v", i)))
	}
	stmt, err := db.Prepare(`SELECT id, v FROM t WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	args := make([]sqltypes.Value, 1)
	id := int64(0)
	allocs := testing.AllocsPerRun(500, func() {
		id++
		args[0] = sqltypes.NewInt(id)
		rows, err := stmt.Query(args...)
		if err != nil || len(rows.Data) != 1 {
			t.Fatalf("id %d: err %v", id, err)
		}
		rows.Close()
	})
	if got := counterValue(t, db, "sqldb_result_cache_hits_total"); got != 0 {
		t.Fatalf("%d hits: the arguments did not cycle through first sightings", got)
	}
	if allocs > 22 {
		t.Fatalf("a first-sighting miss costs %v allocations, want ≤ 22 (the cache-off count)", allocs)
	}
}

// TestResultCacheHitAllocs: a hit shares the cached entry — at most two
// allocations (the statement's interrupt and the Rows header), the same
// Data backing array for every hit, and Close on a hit releases nothing.
func TestResultCacheHitAllocs(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10))`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
	stmt, err := db.Prepare(`SELECT id, v FROM t WHERE id >= ? ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	args := []sqltypes.Value{sqltypes.NewInt(2)}
	query := func() *Rows {
		rows, err := stmt.Query(args...)
		if err != nil || len(rows.Data) != 2 {
			t.Fatalf("query: %v, err %v", rows, err)
		}
		return rows
	}
	query().Close()
	query().Close() // fills
	allocs := testing.AllocsPerRun(200, func() { query().Close() })
	if allocs > 2 {
		t.Fatalf("a hit costs %v allocations, want ≤ 2", allocs)
	}
	a, b := query(), query()
	if &a.Data[0][0] != &b.Data[0][0] {
		t.Fatal("two hits do not share the entry's Data backing array")
	}
	b.Close()
	if b.Data == nil || a.Data[1][1].AsString() != "c" || query().Data[0][1].AsString() != "b" {
		t.Fatal("Close on a hit released the shared entry")
	}
}
