package sqldb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqltypes"
)

func cacheDB(t *testing.T) *DB {
	t.Helper()
	db := memDB(t)
	db.SetResultCache(4 << 20)
	return db
}

// TestResultCacheHitAndAccessPath: the second execution of an identical
// cacheable statement is served from the cache, the hit/miss counters
// advance, and AccessPath advertises the cached state.
func TestResultCacheHitAndAccessPath(t *testing.T) {
	db := cacheDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10))`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')`)

	const q = `SELECT id, v FROM t WHERE id > 1 ORDER BY id`
	first := mustQuery(t, db, q)
	first.Detach()
	if got := counterValue(t, db, "sqldb_result_cache_misses_total"); got != 1 {
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
// used entries instead of growing without bound.
func TestResultCacheLRUEviction(t *testing.T) {
	db := memDB(t)
	db.SetResultCache(8 << 10)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, pad VARCHAR(100))`)
	pad := strings.Repeat("x", 100)
	for i := 0; i < 40; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, sqltypes.NewInt(int64(i)), sqltypes.NewString(pad))
	}
	rc := db.rcache.Load()
	// One row per entry (~240 bytes) stays under the per-entry cap
	// (capBytes/8); forty of them overflow the 8 KiB cache.
	for i := 0; i < 40; i++ {
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
		if cached {
			db.SetResultCache(4 << 20)
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
	db.SetResultCache(4 << 20)

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

	mustQuery(t, db, `SELECT id, v FROM small ORDER BY id`).Close()
	rc := db.rcache.Load()
	held := db.MemoryInUse()
	if held <= 0 || held != rc.bytesUsed() {
		t.Fatalf("MemoryInUse = %d, cache holds %d — cached bytes not charged", held, rc.bytesUsed())
	}

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

	db.SetResultCache(0)
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
