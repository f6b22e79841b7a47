package sqldb

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/sqltypes"
)

// arenaFixture builds a deterministic multi-table dataset that exercises
// every result-path shape: single-table scans, index paths, joins,
// grouped and fold aggregates, sorts and top-k.
func arenaFixture(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE sim (id INTEGER PRIMARY KEY, name VARCHAR(30), bucket INTEGER, score DOUBLE, ok BOOLEAN)`)
	mustExec(t, db, `CREATE TABLE run (rid INTEGER PRIMARY KEY, sim_id INTEGER, cost DOUBLE)`)
	ins, err := db.Prepare(`INSERT INTO sim VALUES (?, ?, ?, ?, ?)`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for i := 0; i < 500; i++ {
		if _, err := ins.Exec(
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("S%03d", i%97)),
			sqltypes.NewInt(int64(i%7)),
			sqltypes.NewDouble(float64(i)*0.25),
			sqltypes.NewBool(i%3 == 0),
		); err != nil {
			t.Fatalf("insert sim %d: %v", i, err)
		}
	}
	insRun, err := db.Prepare(`INSERT INTO run VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for i := 0; i < 200; i++ {
		if _, err := insRun.Exec(
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(i*2%500)),
			sqltypes.NewDouble(float64(i)+0.5),
		); err != nil {
			t.Fatalf("insert run %d: %v", i, err)
		}
	}
}

// arenaShapes are the query shapes whose arena/columnar results must be
// the reference evaluator's.
var arenaShapes = []struct {
	name string
	sql  string
}{
	{"projection", `SELECT id, name, score FROM sim WHERE ok = TRUE`},
	{"star", `SELECT * FROM sim WHERE bucket = 3`},
	{"expr-proj", `SELECT id + 1, score * 2.0, name FROM sim WHERE id < 200`},
	{"sort", `SELECT id, name FROM sim WHERE bucket < 4 ORDER BY name, id DESC`},
	{"topk", `SELECT id, score FROM sim ORDER BY score DESC LIMIT 10`},
	{"limit-offset", `SELECT id FROM sim WHERE ok = TRUE LIMIT 25 OFFSET 5`},
	{"limit-no-order", `SELECT id, bucket FROM sim LIMIT 40`},
	{"distinct", `SELECT DISTINCT bucket FROM sim ORDER BY bucket`},
	{"group", `SELECT bucket, COUNT(*), SUM(score) FROM sim GROUP BY bucket ORDER BY bucket`},
	{"fold", `SELECT COUNT(*), MIN(score), MAX(score) FROM sim WHERE ok = TRUE`},
	{"having", `SELECT name, COUNT(*) FROM sim GROUP BY name HAVING COUNT(*) > 4 ORDER BY name`},
	{"join", `SELECT sim.id, sim.name, run.cost FROM sim, run WHERE sim.id = run.sim_id AND sim.ok = TRUE ORDER BY run.rid`},
	{"group-limit", `SELECT bucket, COUNT(*) FROM sim GROUP BY bucket ORDER BY COUNT(*) DESC LIMIT 3`},
}

func rowsMustEqual(t *testing.T, name string, got, want *Rows) {
	t.Helper()
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: columns %v != %v", name, got.Columns, want.Columns)
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d rows, want %d", name, len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if len(got.Data[i]) != len(want.Data[i]) {
			t.Fatalf("%s row %d: width %d != %d", name, i, len(got.Data[i]), len(want.Data[i]))
		}
		for j := range got.Data[i] {
			if !got.Data[i][j].Equal(want.Data[i][j]) {
				t.Fatalf("%s row %d col %d: %s != %s", name, i, j,
					got.Data[i][j].String(), want.Data[i][j].String())
			}
		}
	}
}

// TestArenaReferenceEquivalence checks the arena/columnar result path
// produces exactly the reference evaluator's rows across projections,
// sorts, top-k, LIMIT without ORDER BY (a heap scan and the reference
// read in the same deterministic order, so early-stop picks identical
// rows), DISTINCT, joins and aggregates.
func TestArenaReferenceEquivalence(t *testing.T) {
	db := memDB(t)
	arenaFixture(t, db)
	ref := newRefEval(db)
	for _, shape := range arenaShapes {
		ref.check(t, shape.sql)
	}
}

// TestArenaBoundaryEquivalence holds arena ≡ reference at every result
// size where the arena path changes what it allocates from: an empty
// result, the first and the last plain-heap chunk and all of them
// together, a full colBatch, the nominal colBatchRows, a pooled slab
// and the end of the row list's plain-heap head — one row either side
// of each, for a 1-column and a 40-column
// projection, bare and computed, through the batch path (unsorted) and
// the per-row path (sorted).
func TestArenaBoundaryEquivalence(t *testing.T) {
	db := memDB(t)
	const wide = 40
	cols := make([]string, wide)
	marks := make([]string, wide)
	for j := range cols {
		cols[j] = fmt.Sprintf("c%d INTEGER", j)
		marks[j] = "?"
	}
	mustExec(t, db, `CREATE TABLE wide (`+strings.Join(cols, ", ")+`)`)
	ins, err := db.Prepare(`INSERT INTO wide VALUES (` + strings.Join(marks, ", ") + `)`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	const tableRows = arenaChunkValues + 8
	args := make([]sqltypes.Value, wide)
	for i := 0; i < tableRows; i++ {
		for j := range args {
			args[j] = sqltypes.NewInt(int64(i*wide + j))
		}
		if _, err := ins.Exec(args...); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	ref := newRefEval(db)
	for _, proj := range []struct {
		ncols int
		list  string
	}{{1, "c0"}, {1, "c0 + 1"}, {wide, "*"}} {
		edges := []int{
			0, 1,
			arenaFirstValues / proj.ncols,
			arenaHeapValues / proj.ncols,
			(2*arenaHeapValues - arenaFirstValues) / proj.ncols,
			newColBatch(make([]Expr, proj.ncols)).rows,
			colBatchRows,
			arenaChunkValues / proj.ncols,
			rowListHeapRows,
		}
		for _, edge := range edges {
			for n := max(edge-1, 0); n <= edge+1; n++ {
				for _, sql := range []string{
					fmt.Sprintf(`SELECT %s FROM wide WHERE c0 < %d`, proj.list, n*wide),
					fmt.Sprintf(`SELECT %s FROM wide LIMIT %d`, proj.list, n),
					fmt.Sprintf(`SELECT %s FROM wide WHERE c0 < %d ORDER BY c1 DESC`, proj.list, n*wide),
				} {
					if got := len(ref.check(t, sql).rows()); got != n {
						t.Fatalf("%s: %d rows, want %d", sql, got, n)
					}
				}
			}
		}
	}
}

// TestRowListKeepsOrder: a rowList hands back exactly the rows added,
// in order, at every size around its plain-heap head and its pooled
// blocks, and after a truncate to any of those sizes; the blocks go
// back to the pool cleared.
func TestRowListKeepsOrder(t *testing.T) {
	rows := make([][]sqltypes.Value, rowListHeapRows+2*rowBlockRows+2)
	for i := range rows {
		rows[i] = []sqltypes.Value{sqltypes.NewInt(int64(i))}
	}
	var sizes []int
	for _, edge := range []int{0, rowListHeapRows, rowListHeapRows + rowBlockRows, rowListHeapRows + 2*rowBlockRows} {
		sizes = append(sizes, max(edge-1, 0), edge, edge+1)
	}
	check := func(what string, got [][]sqltypes.Value, n int) {
		t.Helper()
		if len(got) != n || (n == 0) != (got == nil) {
			t.Fatalf("%s: %d rows (nil %v), want %d", what, len(got), got == nil, n)
		}
		for i, r := range got {
			if &r[0] != &rows[i][0] {
				t.Fatalf("%s: row %d is not the %d-th row added", what, i, i)
			}
		}
	}
	for _, n := range sizes {
		var l rowList
		for _, r := range rows[:n] {
			l.add(r)
		}
		check(fmt.Sprintf("take of %d", n), l.take(), n)
		for _, m := range sizes {
			if m > n {
				continue
			}
			for _, r := range rows[:n] {
				l.add(r)
			}
			l.truncate(m)
			for _, r := range rows[m:n] {
				l.add(r)
			}
			check(fmt.Sprintf("%d truncated to %d and refilled", n, m), l.take(), n)
		}
	}
	b := rowBlockPool.Get().(*rowBlock)
	for i, r := range b {
		if r != nil {
			t.Fatalf("a pooled block still holds a row at %d", i)
		}
	}
}

// TestProjectionWiderThanSlab: a projection of more expressions than a
// slab has slots (alloc serves such a row straight from the heap)
// still batches at least one row at a time and equals the reference.
func TestProjectionWiderThanSlab(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE w (a INTEGER)`)
	mustExec(t, db, `INSERT INTO w VALUES (1), (2), (3)`)
	sql := `SELECT a` + strings.Repeat(`, a`, arenaChunkValues) + ` FROM w`
	got := mustQuery(t, db, sql)
	if len(got.Data) != 3 || len(got.Data[0]) != arenaChunkValues+1 {
		t.Fatalf("%d rows × %d columns, want 3 × %d", len(got.Data), len(got.Data[0]), arenaChunkValues+1)
	}
	got.Close()
	newRefEval(db).check(t, sql)
}

// TestColBatchFlushErrorLeavesNoPartialRows: a computed column that
// fails part-way through a flush must not leave rows in out.Data whose
// earlier columns were filled and later ones were not; rows of batches
// flushed before the failing one stay, complete.
func TestColBatchFlushErrorLeavesNoPartialRows(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE e (id INTEGER, d INTEGER)`)
	mustExec(t, db, `INSERT INTO e VALUES (1, 1)`)
	stmt, err := db.Prepare(`SELECT id, 10 / d, id + 1 FROM e`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if _, err := stmt.Query(); err != nil { // builds and binds the plan
		t.Fatalf("query: %v", err)
	}
	src := func(id, d int64) []sqltypes.Value {
		return []sqltypes.Value{sqltypes.NewInt(id), sqltypes.NewInt(d)}
	}
	ctx, ar := &evalCtx{}, &rowArena{}
	var rl rowList
	cb := newColBatch(stmt.plan.proj)
	cb.push(&rl, src(1, 2))
	cb.push(&rl, src(2, 5))
	if err := cb.flush(ctx, ar, &rl); err != nil {
		t.Fatalf("clean flush: %v", err)
	}
	cb.push(&rl, src(3, 1))
	cb.push(&rl, src(4, 0)) // 10 / 0
	cb.push(&rl, src(5, 1))
	if err := cb.flush(ctx, ar, &rl); err == nil {
		t.Fatal("flush over a zero divisor succeeded")
	}
	out := &Rows{}
	out.Data = rl.take()
	if len(out.Data) != 2 {
		t.Fatalf("out.Data holds %d rows after a failed flush, want the 2 of the clean one", len(out.Data))
	}
	for i, row := range out.Data {
		if len(row) != 3 || row[0].Int() != int64(i+1) || row[1].IsNull() || row[2].Int() != int64(i+2) {
			t.Fatalf("row %d incomplete: %v", i, row)
		}
	}
	mustExec(t, db, `INSERT INTO e VALUES (2, 0)`)
	if _, err := stmt.Query(); err == nil {
		t.Fatal("query over a zero divisor succeeded")
	}
}

// totalAlloc runs f and returns the bytes and the objects it allocated.
func totalAlloc(f func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestSmallResultFootprint pins what a page-sized indexed SELECT
// allocates beyond the rows it returns. Results are left unclosed, as
// core.Search leaves them: nothing here may depend on a release.
func TestSmallResultFootprint(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE f (k INTEGER, grp INTEGER, name VARCHAR(30), v DOUBLE, ok BOOLEAN)`)
	mustExec(t, db, `CREATE INDEX f_k ON f (k)`)
	mustExec(t, db, `CREATE INDEX f_grp ON f (grp)`)
	ins, err := db.Prepare(`INSERT INTO f VALUES (?, ?, ?, ?, ?)`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for i := 0; i < 20_000; i++ {
		if _, err := ins.Exec(sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i/50)),
			sqltypes.NewString(fmt.Sprintf("N%05d", i)), sqltypes.NewDouble(float64(i)), sqltypes.NewBool(i%2 == 0)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	const (
		statements = 1000
		overhead   = 8 << 10 // bytes per statement beyond rows × cols × sizeof(Value)
		allocs     = 32      // measured: 20 for one row, 28 for fifty
	)
	for _, tc := range []struct {
		sql        string
		rows, cols int
	}{
		{`SELECT k, name, v FROM f WHERE k = ?`, 1, 3},
		{`SELECT * FROM f WHERE grp = ? LIMIT 20`, 20, 5},
		{`SELECT * FROM f WHERE grp = ?`, 50, 5},
	} {
		stmt, err := db.Prepare(tc.sql)
		if err != nil {
			t.Fatalf("prepare %s: %v", tc.sql, err)
		}
		arg := 0
		query := func() {
			arg = (arg + 7) % 400
			rows, err := stmt.Query(sqltypes.NewInt(int64(arg)))
			if err != nil || len(rows.Data) != tc.rows {
				t.Fatalf("%s: %d rows, err %v", tc.sql, len(rows.Data), err)
			}
		}
		query() // plan built and bound outside the measurement
		total, _ := totalAlloc(func() {
			for i := 0; i < statements; i++ {
				query()
			}
		})
		perStmt := total / statements
		result := uint64(tc.rows * tc.cols * int(unsafe.Sizeof(sqltypes.Value{})))
		if perStmt > result+overhead {
			t.Errorf("%s: %d B/statement, result is %d B: %d B overhead, want ≤ %d",
				tc.sql, perStmt, result, perStmt-result, overhead)
		}
		if n := testing.AllocsPerRun(statements, query); n > allocs {
			t.Errorf("%s: %.0f allocs/statement, want ≤ %d", tc.sql, n, allocs)
		}
	}
}

// TestTopKCandidateFootprint pins what the report's top-k shape costs
// per candidate row: WHERE c = ? ORDER BY n DESC LIMIT 20 matches 2,500
// rows of a heap scan and keeps 20. The selection streams: a candidate
// is keyed into a scratch cell, compared with the worst of the 20 held
// and dropped, so the statement is sized by what it holds and returns,
// and a candidate costs next to nothing.
func TestTopKCandidateFootprint(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE f (name VARCHAR(30), k VARCHAR(30), c VARCHAR(8), n INTEGER)`)
	ins, err := db.Prepare(`INSERT INTO f VALUES (?, ?, ?, ?)`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	const tableRows, classes = 20_000, 8
	for i := 0; i < tableRows; i++ {
		if _, err := ins.Exec(sqltypes.NewString(fmt.Sprintf("N%05d", i)), sqltypes.NewString(fmt.Sprintf("K%03d", i/50)),
			sqltypes.NewString(fmt.Sprintf("C%d", i%classes)), sqltypes.NewInt(int64(i*7919%tableRows))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	stmt, err := db.Prepare(`SELECT name, k, n FROM f WHERE c = ? ORDER BY n DESC LIMIT 20`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	// Measured 5.98 B/candidate — 15 KB a statement, whatever it scans;
	// 397 while every candidate was projected and keyed before the
	// selection ran.
	const (
		statements   = 200
		candidates   = tableRows / classes
		perCandidate = 6.28
	)
	arg := 0
	query := func() {
		arg = (arg + 3) % classes
		rows, err := stmt.Query(sqltypes.NewString(fmt.Sprintf("C%d", arg)))
		if err != nil || len(rows.Data) != 20 {
			t.Fatalf("%d rows, err %v", len(rows.Data), err)
		}
		rows.Close()
	}
	query() // plan built and bound outside the measurement
	total, _ := totalAlloc(func() {
		for i := 0; i < statements; i++ {
			query()
		}
	})
	if got := float64(total) / statements / candidates; got > perCandidate {
		t.Errorf("top-k: %.2f B/candidate over %d candidates, want ≤ %v", got, candidates, perCandidate)
	}
}

// TestLargeResultRecyclesSlabs guards the other side of the size split:
// a closed 100k-row projection draws pooled slabs, a repeat reuses them,
// and the statement stays within the recorded Ablation_Arena/arena
// footprint (2.6 MB, ≤ 100 allocs) once fresh slabs are set aside.
func TestLargeResultRecyclesSlabs(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE big (id INTEGER, sim VARCHAR(30), v DOUBLE, ok BOOLEAN, n INTEGER)`)
	ins, err := db.Prepare(`INSERT INTO big VALUES (?, ?, ?, ?, ?)`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	const tableRows = 100_000
	for i := 0; i < tableRows; i++ {
		if _, err := ins.Exec(sqltypes.NewInt(int64(i)), sqltypes.NewString("S"), sqltypes.NewDouble(float64(i)),
			sqltypes.NewBool(i%2 == 0), sqltypes.NewInt(int64(i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Count slabs the pool had to make (the race detector drops a
	// quarter of all Puts, so recycling is never total under -race).
	fresh := 0
	poolNew := arenaChunkPool.New
	arenaChunkPool.New = func() any { fresh++; return poolNew() }
	defer func() { arenaChunkPool.New = poolNew }()
	query := func() {
		rows := mustQuery(t, db, `SELECT n, id, sim, v, ok FROM big WHERE ok = TRUE`)
		if len(rows.Data) != tableRows/2 {
			t.Fatalf("%d rows, want %d", len(rows.Data), tableRows/2)
		}
		rows.Close()
	}
	// Two collections empty the pool, so the first run pays for its
	// slabs; none may run in between, or the pool is emptied again.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const slabBytes = arenaChunkValues * int(unsafe.Sizeof(sqltypes.Value{}))
	first, _ := totalAlloc(query)
	firstFresh := fresh
	if want := tableRows / 2 * 5 / arenaChunkValues; firstFresh < want {
		t.Fatalf("first run drew %d fresh slabs, want ≥ %d: large results must be pooled", firstFresh, want)
	}
	fresh = 0
	second, objects := totalAlloc(query)
	if second*2 > first || fresh*2 > firstFresh {
		t.Errorf("second run allocated %d B (%d fresh slabs), first %d B (%d): slabs were not recycled",
			second, fresh, first, firstFresh)
	}
	if net := second - uint64(fresh*slabBytes); net > 2_600_000 {
		t.Errorf("closed 100k-row projection allocated %d B besides fresh slabs, want ≤ 2.6 MB", net)
	}
	if net := objects - uint64(fresh); net > 100 {
		t.Errorf("closed 100k-row projection made %d allocations besides fresh slabs, want ≤ 100", net)
	}
}

// TestResultBytesPerReturnedRow pins that a result costs the rows it
// returns, not the table's: a 4,000-row index range over a 100,000-row
// table, as SELECT * and as a computed projection, and a 50,000-row
// SELECT * (BenchmarkAblation_Arena's shape). A stored-order projection
// draws no slab at all, even from an emptied pool. Results are Closed,
// so a computed one reuses its slabs; slabs and header blocks the pools
// had to make afresh are set aside (the race detector drops a quarter
// of all Puts).
func TestResultBytesPerReturnedRow(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE big (k INTEGER, sim VARCHAR(30), v DOUBLE, ok BOOLEAN, n INTEGER)`)
	mustExec(t, db, `CREATE INDEX big_k ON big (k)`)
	ins, err := db.Prepare(`INSERT INTO big VALUES (?, ?, ?, ?, ?)`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	const tableRows, window = 100_000, 4_000
	for i := 0; i < tableRows; i++ {
		if _, err := ins.Exec(sqltypes.NewInt(int64(i)), sqltypes.NewString("S"), sqltypes.NewDouble(float64(i)),
			sqltypes.NewBool(i%2 == 0), sqltypes.NewInt(int64(i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	freshSlabs, freshBlocks := 0, 0
	slabNew, blockNew := arenaChunkPool.New, rowBlockPool.New
	arenaChunkPool.New = func() any { freshSlabs++; return slabNew() }
	rowBlockPool.New = func() any { freshBlocks++; return blockNew() }
	defer func() { arenaChunkPool.New, rowBlockPool.New = slabNew, blockNew }()
	const (
		statements = 20
		slabBytes  = arenaChunkValues * int(unsafe.Sizeof(sqltypes.Value{}))
		blockBytes = rowBlockRows * 24
	)
	for _, tc := range []struct {
		sql    string
		ranged bool // takes a [lo, lo+window) key range
		rows   int
		perRow float64
		stored bool
	}{
		{`SELECT * FROM big WHERE k >= ? AND k < ?`, true, window, 40, true},
		{`SELECT k, v + 1 FROM big WHERE k >= ? AND k < ?`, true, window, 40, false},
		{`SELECT * FROM big WHERE ok = TRUE`, false, tableRows / 2, 26, true},
	} {
		stmt, err := db.Prepare(tc.sql)
		if err != nil {
			t.Fatalf("prepare %s: %v", tc.sql, err)
		}
		lo := 0
		query := func() {
			var args []sqltypes.Value
			if tc.ranged {
				lo = (lo + window) % (tableRows - window)
				args = []sqltypes.Value{sqltypes.NewInt(int64(lo)), sqltypes.NewInt(int64(lo + window))}
			}
			rows, err := stmt.Query(args...)
			if err != nil || len(rows.Data) != tc.rows {
				t.Fatalf("%s: %d rows, err %v", tc.sql, len(rows.Data), err)
			}
			rows.Close()
		}
		// Two collections empty the pools: the first run pays for
		// whatever it draws.
		runtime.GC()
		runtime.GC()
		freshSlabs = 0
		query()
		if tc.stored && freshSlabs != 0 {
			t.Errorf("%s: drew %d fresh slabs, want 0: stored rows need no arena", tc.sql, freshSlabs)
		}
		freshSlabs, freshBlocks = 0, 0
		total, _ := totalAlloc(func() {
			for i := 0; i < statements; i++ {
				query()
			}
		})
		net := total - uint64(freshSlabs*slabBytes+freshBlocks*blockBytes)
		if got := float64(net) / statements / float64(tc.rows); got > tc.perRow {
			t.Errorf("%s: %.1f B per returned row, want ≤ %v", tc.sql, got, tc.perRow)
		}
	}
}

// TestStoredOrderRowsAreStoredVersions: every stored-order projection —
// SELECT *, the same list spelled out, a table star, through an index
// or the heap, under ORDER BY, DISTINCT, LIMIT/OFFSET and a result
// cache hit — returns the visible versions' own vals, clipped to their
// width; a reordered list returns copies.
func TestStoredOrderRowsAreStoredVersions(t *testing.T) {
	db := memDB(t)
	arenaFixture(t, db)
	schema, _ := db.cat.Table("sim")
	stored := map[*sqltypes.Value]bool{}
	db.data[schema.Name].scan(snapLatest, func(_ *rowSlot, vals []sqltypes.Value) bool {
		stored[unsafe.SliceData(vals)] = true
		return true
	})
	for _, tc := range []struct {
		sql   string
		alias bool
	}{
		{`SELECT * FROM sim WHERE bucket = 3`, true},
		{`SELECT id, name, bucket, score, ok FROM sim WHERE id < 50`, true},
		{`SELECT s.* FROM sim s WHERE s.id >= 450`, true},
		{`SELECT * FROM sim ORDER BY score DESC LIMIT 10`, true},
		{`SELECT * FROM sim ORDER BY name, id`, true},
		{`SELECT DISTINCT * FROM sim WHERE ok = TRUE`, true},
		{`SELECT * FROM sim LIMIT 5 OFFSET 3`, true},
		{`SELECT name, id, bucket, score, ok FROM sim WHERE bucket = 3`, false},
	} {
		// Three runs: a miss, the fill on the repeat, then a cache hit.
		for run := 0; run < 3; run++ {
			rows := mustQuery(t, db, tc.sql)
			if len(rows.Data) == 0 {
				t.Fatalf("%s: no rows", tc.sql)
			}
			for i, row := range rows.Data {
				if stored[unsafe.SliceData(row)] != tc.alias {
					t.Fatalf("%s run %d row %d: shares a stored version = %v, want %v", tc.sql, run, i, !tc.alias, tc.alias)
				}
				if tc.alias && cap(row) != len(row) {
					t.Fatalf("%s row %d: capacity %d past its %d columns", tc.sql, i, cap(row), len(row))
				}
			}
		}
	}
}

// TestStoredOrderResultOutlivesWrites: a SELECT * result's rows are the
// versions its statement saw. Held across an UPDATE, a DELETE, VACUUM
// and a checkpoint — and read from another goroutine all the while — it
// still reads its as-of values while the table reads the new ones, and
// appending to one of its rows leaves the table alone.
func TestStoredOrderResultOutlivesWrites(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, `CREATE TABLE kv (id INTEGER PRIMARY KEY, v VARCHAR(20), n INTEGER)`)
	for i := 0; i < 200; i++ {
		mustExec(t, db, `INSERT INTO kv VALUES (?, ?, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("v%d", i)), sqltypes.NewInt(int64(i)))
	}
	asOf := func(row []sqltypes.Value) bool {
		id := row[0].Int()
		return len(row) == 3 && row[1].AsString() == fmt.Sprintf("v%d", id) && row[2].Int() == id
	}
	held := mustQuery(t, db, `SELECT * FROM kv ORDER BY id`)
	if len(held.Data) != 200 {
		t.Fatalf("held %d rows, want 200", len(held.Data))
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for i, row := range held.Data {
				if !asOf(row) {
					t.Errorf("held row %d changed while the table was written: %v", i, row)
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	mustExec(t, db, `UPDATE kv SET v = 'new', n = n + 1000 WHERE id < 100`)
	mustExec(t, db, `DELETE FROM kv WHERE id >= 150`)
	if err := db.Vacuum(); err != nil {
		t.Fatalf("Vacuum: %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	close(done)
	wg.Wait()

	for i, row := range held.Data {
		if row[0].Int() != int64(i) || !asOf(row) {
			t.Fatalf("held row %d is not as of its snapshot: %v", i, row)
		}
	}
	now := mustQuery(t, db, `SELECT * FROM kv ORDER BY id`)
	if len(now.Data) != 150 {
		t.Fatalf("table reads %d rows after the DELETE, want 150", len(now.Data))
	}
	for i, row := range now.Data {
		updated := row[1].AsString() == "new" && row[2].Int() == int64(i)+1000
		if row[0].Int() != int64(i) || (i < 100 && !updated) || (i >= 100 && !asOf(row)) {
			t.Fatalf("table row %d reads %v after the UPDATE", i, row)
		}
	}

	one := mustQuery(t, db, `SELECT * FROM kv WHERE id = 120`)
	grown := append(one.Data[0], sqltypes.NewString("tail"))
	grown[0] = sqltypes.NewInt(-1)
	again := mustQuery(t, db, `SELECT * FROM kv WHERE id = 120`)
	if len(again.Data) != 1 || !asOf(again.Data[0]) || again.Data[0][0].Int() != 120 {
		t.Fatalf("appending to a result row changed the table: %v", again.Data)
	}
}

// TestArenaConcurrentQueries runs many readers against the arena path
// while a writer mutates the table, under -race. Each reader verifies a
// per-row invariant (score == id * 0.25) that chunk-reuse corruption
// would break.
func TestArenaConcurrentQueries(t *testing.T) {
	db := memDB(t)
	arenaFixture(t, db)

	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 500; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Exec(`INSERT INTO sim VALUES (?, 'W', 0, ?, FALSE)`,
				sqltypes.NewInt(int64(i)), sqltypes.NewDouble(float64(i)*0.25)); err != nil {
				t.Errorf("writer insert: %v", err)
				return
			}
		}
	}()

	const readers = 8
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 60; n++ {
				rows, err := db.Query(`SELECT id, score FROM sim WHERE ok = TRUE ORDER BY id LIMIT 50`)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				for _, row := range rows.Data {
					id, score := row[0].Int(), row[1].Double()
					if score != float64(id)*0.25 {
						t.Errorf("row invariant broken: id=%d score=%v", id, score)
						rows.Close()
						return
					}
				}
				rows.Close()
			}
		}()
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
}

// TestJoinAllocsFlatPerRow: a three-table index nested-loop join
// assembles every row in one buffer and probes into reused buffers, so
// what it allocates per statement hardly grows with the rows it joins —
// the copies of the delivered rows and of the result come in arena
// chunks and batches, not one allocation per row.
func TestJoinAllocsFlatPerRow(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE A (AID INTEGER PRIMARY KEY, GRP INTEGER)`)
	mustExec(t, db, `CREATE INDEX A_GRP ON A (GRP)`)
	mustExec(t, db, `CREATE TABLE B (BID INTEGER PRIMARY KEY, AID INTEGER, CID INTEGER, NOTE VARCHAR(20))`)
	mustExec(t, db, `CREATE INDEX B_AID ON B (AID)`)
	mustExec(t, db, `CREATE TABLE C (CID INTEGER PRIMARY KEY, NAME VARCHAR(20))`)
	// Group 0 holds 40 rows of A and group 1 the next 400; each joins
	// one B row and, through it, one C row.
	const small, large = 40, 400
	for i := 0; i < small+large; i++ {
		n, grp := sqltypes.NewInt(int64(i)), sqltypes.NewInt(0)
		if i >= small {
			grp = sqltypes.NewInt(1)
		}
		mustExec(t, db, `INSERT INTO A VALUES (?, ?)`, n, grp)
		mustExec(t, db, `INSERT INTO B VALUES (?, ?, ?, ?)`, n, n, sqltypes.NewInt(int64(i%50)), sqltypes.NewString("b"))
		if i < 50 {
			mustExec(t, db, `INSERT INTO C VALUES (?, ?)`, n, sqltypes.NewString(fmt.Sprintf("c%d", i)))
		}
	}
	stmt, err := db.Prepare(`SELECT A.AID, B.BID, C.NAME FROM A JOIN B ON B.AID = A.AID
		JOIN C ON C.CID = B.CID WHERE A.GRP = ? AND A.AID <> ?`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if p, _ := stmt.AccessPath(); !strings.Contains(p, "inl(B.AID)") || !strings.Contains(p, "inl(C.CID)") {
		t.Fatalf("path = %q, want index probes into B and C", p)
	}
	allocs := func(grp, joined int) float64 {
		nonce := int64(0)
		query := func() {
			// A fresh second argument every time keeps the result cache out.
			nonce--
			out, err := stmt.Query(sqltypes.NewInt(int64(grp)), sqltypes.NewInt(nonce))
			if err != nil || len(out.Data) != joined {
				t.Fatalf("%d rows, err %v", len(out.Data), err)
			}
			out.Close()
		}
		return testing.AllocsPerRun(50, query)
	}
	few, many := allocs(0, small), allocs(1, large)
	if many-few > 4 {
		t.Errorf("%.0f allocs for %d joined rows, %.0f for %d: want a difference ≤ 4", few, small, many, large)
	}
}

// TestJoinFoldFootprint pins what a join that feeds a GROUP BY allocates
// per joined row: rows are assembled in one buffer, probes fill reused
// buffers, and the delivered copies stream into the fold from the
// scratch arena's recycled slabs, so what is left is the statement's
// fixed cost spread over its rows. Slabs the pool had to make afresh
// are set aside (the race detector drops a quarter of all Puts).
func TestJoinFoldFootprint(t *testing.T) {
	db := buildJoinDB(t, 100, 10_000, false, false)
	defer db.Close()
	stmt, err := db.Prepare(`SELECT P.NAME, COUNT(*), SUM(C.V) FROM CHI C JOIN PAR P ON C.K = P.PID GROUP BY P.NAME`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	joined := mustQuery(t, db, `SELECT COUNT(*) FROM CHI C JOIN PAR P ON C.K = P.PID`).Data[0][0].Int()
	// Measured 0.123 B/joined row (about 1.1 KB a statement over 9,032
	// rows); 36.8 while every level of the join allocated its own row
	// and every probe its own candidate list, and 253 while the join's
	// output was collected, level by level, before the fold saw a row.
	const (
		statements   = 50
		perJoinedRow = 0.13
		slabBytes    = arenaChunkValues * int(unsafe.Sizeof(sqltypes.Value{}))
	)
	fresh := 0
	poolNew := arenaChunkPool.New
	arenaChunkPool.New = func() any { fresh++; return poolNew() }
	defer func() { arenaChunkPool.New = poolNew }()
	query := func() {
		rows, err := stmt.Query()
		if err != nil || len(rows.Data) != 7 {
			t.Fatalf("%d rows, err %v", len(rows.Data), err)
		}
		rows.Close()
	}
	query() // plan built and bound, slabs pooled, outside the measurement
	fresh = 0
	total, _ := totalAlloc(func() {
		for i := 0; i < statements; i++ {
			query()
		}
	})
	if got := float64(total-uint64(fresh*slabBytes)) / statements / float64(joined); got > perJoinedRow {
		t.Errorf("join → GROUP BY: %.1f B/joined row over %d rows, want ≤ %v", got, joined, perJoinedRow)
	}
}
