package sqldb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sqltypes"
)

// traceDB builds the two-table fixture the trace tests share: an
// indexed observation table (500 rows over 10 sims) and a small
// dimension table, enough to exercise the index-only, grouped-fold,
// join, full-scan and top-k access paths.
func traceDB(t *testing.T) *DB {
	t.Helper()
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE obs (id INTEGER PRIMARY KEY, sim VARCHAR(8), v INTEGER)`)
	mustExec(t, db, `CREATE INDEX obs_sim ON obs (sim) USING ORDERED`)
	mustExec(t, db, `CREATE TABLE runs (sim VARCHAR(8) PRIMARY KEY, owner VARCHAR(8))`)
	for i := 0; i < 500; i++ {
		mustExec(t, db, `INSERT INTO obs VALUES (?, ?, ?)`,
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("S%d", i%10)),
			sqltypes.NewInt(int64(i%97)))
	}
	for i := 0; i < 10; i++ {
		mustExec(t, db, `INSERT INTO runs VALUES (?, ?)`,
			sqltypes.NewString(fmt.Sprintf("S%d", i)),
			sqltypes.NewString(fmt.Sprintf("U%d", i%3)))
	}
	return db
}

// traceStmt runs st once with every statement over the trace threshold
// and returns the trace the slow-query log wrote for it — EXPLAIN
// ANALYZE, read the way an operator reads it. A SELECT runs as Query,
// anything else as Exec.
func traceStmt(t testing.TB, st *Stmt, args ...sqltypes.Value) Trace {
	t.Helper()
	var buf bytes.Buffer
	st.db.SetSlowQueryLog(&buf)
	st.db.SetTraceThreshold(time.Nanosecond)
	var err error
	if _, ok := st.ast.(*SelectStmt); ok {
		_, err = st.Query(args...)
	} else {
		_, err = st.Exec(args...)
	}
	st.db.SetTraceThreshold(0)
	st.db.SetSlowQueryLog(nil)
	if err != nil {
		t.Fatalf("%s: %v", st.Text(), err)
	}
	return slowLogLines(t, &buf, 1)[0]
}

// slowLogLines decodes the slow-query log written to buf, which must
// hold exactly n lines.
func slowLogLines(t testing.TB, buf *bytes.Buffer, n int) []Trace {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != n || lines[0] == "" {
		t.Fatalf("got %d slow-log lines, want %d:\n%s", len(lines), n, buf.String())
	}
	out := make([]Trace, n)
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &out[i]); err != nil {
			t.Fatalf("slow-log line is not JSON: %v\n%s", err, line)
		}
	}
	return out
}

// heapReadsTotal sums the per-table heap-read counters the trace layer
// must agree with.
func heapReadsTotal(db *DB, tables ...string) int64 {
	var n int64
	for _, tb := range tables {
		n += db.HeapRowReads(tb)
	}
	return n
}

// TestTraceHeapReadAccounting is the EXPLAIN ANALYZE property test:
// for every access-path shape the planner can choose, the traced
// per-node heap-read counts must sum to the statement total, and the
// statement total must equal the engine's own HeapRowReads delta —
// i.e. the trace spans cover every heap-touching stage, and an
// index-only path really does report zero heap reads.
func TestTraceHeapReadAccounting(t *testing.T) {
	db := traceDB(t)
	tables := []string{"OBS", "RUNS"}

	cases := []struct {
		name     string
		sql      string
		args     []sqltypes.Value
		wantRows int64
	}{
		{"index-only-count", `SELECT COUNT(*) FROM obs WHERE sim = ?`,
			[]sqltypes.Value{sqltypes.NewString("S3")}, 1},
		{"group-fold", `SELECT sim, COUNT(*), AVG(v) FROM obs GROUP BY sim`, nil, 10},
		{"join", `SELECT o.id, r.owner FROM obs o, runs r WHERE o.sim = r.sim AND o.v < 5`, nil, -1},
		{"full-scan", `SELECT id FROM obs WHERE v = 42`, nil, -1},
		{"top-k", `SELECT id, v FROM obs ORDER BY v DESC LIMIT 5`, nil, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := db.Prepare(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			path, err := st.AccessPath()
			if err != nil {
				t.Fatal(err)
			}

			before := heapReadsTotal(db, tables...)
			tr := traceStmt(t, st, tc.args...)
			delta := heapReadsTotal(db, tables...) - before

			if tr.Kind != "select" {
				t.Fatalf("Kind = %q, want select", tr.Kind)
			}
			if tr.Path != path {
				t.Fatalf("trace path %q != AccessPath %q", tr.Path, path)
			}
			if tr.HeapReads != delta {
				t.Fatalf("trace HeapReads = %d, engine delta = %d (path %s)", tr.HeapReads, delta, path)
			}
			var nodeSum int64
			for _, n := range tr.Nodes {
				if n.WallNs < 0 || n.Rows < 0 || n.HeapReads < 0 {
					t.Fatalf("negative node measurement: %+v", n)
				}
				nodeSum += n.HeapReads
			}
			if len(tr.Nodes) == 0 {
				t.Fatalf("trace has no plan nodes (path %s)", path)
			}
			if nodeSum != tr.HeapReads {
				t.Fatalf("node heap-read sum %d != statement total %d (path %s, nodes %+v)",
					nodeSum, tr.HeapReads, path, tr.Nodes)
			}
			if tc.wantRows >= 0 && tr.Rows != tc.wantRows {
				t.Fatalf("Rows = %d, want %d", tr.Rows, tc.wantRows)
			}
			if tr.WallNs <= 0 {
				t.Fatalf("WallNs = %d, want > 0", tr.WallNs)
			}

			// The index-only path is the reason heap reads are worth
			// tracing: it must report zero.
			if tc.name == "index-only-count" {
				if !strings.Contains(path, "index-only") {
					t.Fatalf("expected an index-only path, planner chose %q", path)
				}
				if tr.HeapReads != 0 {
					t.Fatalf("index-only path did %d heap reads", tr.HeapReads)
				}
			}
		})
	}
}

// TestTraceDMLPipeline traces an INSERT on a durable database and
// checks the commit-pipeline breakdown: a dml node with the affected
// row count, a group-commit batch of at least one transaction, and the
// WAL fsync histogram advancing.
func TestTraceDMLPipeline(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE evt (id INTEGER PRIMARY KEY, v INTEGER)`)

	st, err := db.Prepare(`INSERT INTO evt VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	tr := traceStmt(t, st, sqltypes.NewInt(1), sqltypes.NewInt(10))
	if tr.Kind != "exec" || tr.Rows != 1 {
		t.Fatalf("kind=%q rows=%d, want exec/1", tr.Kind, tr.Rows)
	}
	var dml *TraceNode
	for i := range tr.Nodes {
		if tr.Nodes[i].Node == "dml" {
			dml = &tr.Nodes[i]
		}
	}
	if dml == nil || dml.Rows != 1 {
		t.Fatalf("missing dml node with rows=1: %+v", tr.Nodes)
	}
	if tr.GroupCommitBatch < 1 {
		t.Fatalf("GroupCommitBatch = %d, want >= 1", tr.GroupCommitBatch)
	}
	if tr.WALStageNs < 0 || tr.FsyncWaitNs < 0 {
		t.Fatalf("negative pipeline timing: %+v", tr)
	}

	fsync, ok := db.Metrics().Find("sqldb_wal_fsync_ns")
	if !ok || fsync.Hist == nil || fsync.Hist.Count == 0 {
		t.Fatalf("sqldb_wal_fsync_ns not populated: %+v", fsync)
	}
	batch, _ := db.Metrics().Find("sqldb_wal_group_commit_batch")
	if batch.Hist == nil || batch.Hist.Count != fsync.Hist.Count {
		t.Fatalf("batch histogram count %+v != fsync count %d", batch.Hist, fsync.Hist.Count)
	}
	commits, _ := db.Metrics().Find("sqldb_commits_total")
	if commits.Value < 2 { // CREATE TABLE + INSERT
		t.Fatalf("sqldb_commits_total = %d, want >= 2", commits.Value)
	}
}

// TestSlowQueryLog sets a one-nanosecond threshold so every statement
// qualifies, and checks the log receives one parseable JSON trace per
// statement with plan nodes attached — then that a zero threshold
// turns the log off again.
func TestSlowQueryLog(t *testing.T) {
	db := traceDB(t)
	var buf bytes.Buffer
	db.SetTraceThreshold(time.Nanosecond)
	db.SetSlowQueryLog(&buf)

	if _, err := db.Query(`SELECT COUNT(*) FROM obs WHERE v < 50`); err != nil {
		t.Fatal(err)
	}
	tr := slowLogLines(t, &buf, 1)[0]
	if tr.Kind != "select" || tr.SQL == "" || len(tr.Nodes) == 0 || tr.WallNs <= 0 {
		t.Fatalf("bad slow-log record: %+v", tr)
	}
	if tr.Time == "" {
		t.Fatal("slow-log record has no timestamp")
	}
	slow, _ := db.Metrics().Find("sqldb_slow_queries_total")
	if slow.Value != 1 {
		t.Fatalf("sqldb_slow_queries_total = %d, want 1", slow.Value)
	}

	// DML over the threshold logs the commit pipeline too.
	buf.Reset()
	if _, err := db.Exec(`UPDATE obs SET v = v + 1 WHERE id = 7`); err != nil {
		t.Fatal(err)
	}
	dtr := slowLogLines(t, &buf, 1)[0]
	if dtr.Kind != "exec" {
		t.Fatalf("bad DML slow-log record: %+v", dtr)
	}

	// Threshold zero: tracing off, nothing logged, counter frozen.
	db.SetTraceThreshold(0)
	buf.Reset()
	if _, err := db.Query(`SELECT COUNT(*) FROM obs`); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("slow log written with tracing disabled: %s", buf.String())
	}
	slow, _ = db.Metrics().Find("sqldb_slow_queries_total")
	if slow.Value != 2 {
		t.Fatalf("sqldb_slow_queries_total = %d, want 2", slow.Value)
	}
}

// TestSlowLogTraceFields reads EXPLAIN ANALYZE the way an operator
// does, from the slow-query log's JSON lines: a SELECT that misses the
// result cache, the same SELECT when the cache serves it, and an UPDATE
// on a durable database, with the access path, cache state, plan nodes,
// heap reads and the DML commit-pipeline fields each one carries.
func TestSlowLogTraceFields(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE obs (id INTEGER PRIMARY KEY, sim VARCHAR(8), v INTEGER)`)
	mustExec(t, db, `CREATE INDEX obs_sim ON obs (sim)`)
	for i := 0; i < 50; i++ {
		mustExec(t, db, `INSERT INTO obs VALUES (?, ?, ?)`, sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("S%d", i%10)), sqltypes.NewInt(int64(i)))
	}
	const q = `SELECT id, v FROM obs WHERE sim = ? ORDER BY id`
	arg := sqltypes.NewString("S3")
	st, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	path, err := st.AccessPath()
	if err != nil || !strings.Contains(path, "(OBS.SIM)") {
		t.Fatalf("path %q, err %v: want a path on OBS.SIM", path, err)
	}
	mustQuery(t, db, q, arg) // a first sighting: the next execution fills the cache

	var buf bytes.Buffer
	db.SetSlowQueryLog(&buf)
	db.SetTraceThreshold(time.Nanosecond)
	mustQuery(t, db, q, arg)
	mustQuery(t, db, q, arg)
	mustExec(t, db, `UPDATE obs SET v = v + 1 WHERE id = ?`, sqltypes.NewInt(7))
	db.SetTraceThreshold(0)
	lines := slowLogLines(t, &buf, 3)
	miss, hit, upd := lines[0], lines[1], lines[2]

	for _, tr := range lines {
		if tr.SQL == "" || tr.Time == "" || tr.WallNs <= 0 {
			t.Fatalf("bad slow-log record: %+v", tr)
		}
	}
	var nodeReads int64
	for _, n := range miss.Nodes {
		nodeReads += n.HeapReads
	}
	if miss.Kind != "select" || miss.Path != path || miss.Cache != "miss" || miss.Rows != 5 ||
		miss.HeapReads != 5 || len(miss.Nodes) == 0 || nodeReads != miss.HeapReads {
		t.Fatalf("cache-miss record: %+v", miss)
	}
	if hit.Kind != "select" || hit.Path != path || hit.Cache != "hit" || hit.Rows != 5 ||
		hit.HeapReads != 0 || len(hit.Nodes) != 0 {
		t.Fatalf("cache-hit record: %+v", hit)
	}
	if upd.Kind != "exec" || upd.Path != "" || upd.Cache != "" || upd.Rows != 1 ||
		len(upd.Nodes) != 1 || upd.Nodes[0].Node != "dml" || upd.Nodes[0].Rows != 1 {
		t.Fatalf("UPDATE record: %+v", upd)
	}
	if upd.WALStageNs <= 0 || upd.FsyncWaitNs <= 0 || upd.GroupCommitBatch < 1 || upd.BarrierWaitNs < 0 ||
		upd.BarrierWaitNs+upd.WALStageNs+upd.FsyncWaitNs > upd.WallNs {
		t.Fatalf("UPDATE commit pipeline: barrier %d, stage %d, fsync %d ns, batch %d, wall %d ns",
			upd.BarrierWaitNs, upd.WALStageNs, upd.FsyncWaitNs, upd.GroupCommitBatch, upd.WallNs)
	}
}

// TestEngineMetricsLifecycle walks the remaining metric families
// through their state machine: plan-cache hit/miss counters, the
// dead-row gauge rising on DELETE, and the vacuum counters reclaiming
// it.
func TestEngineMetricsLifecycle(t *testing.T) {
	db := traceDB(t)

	miss0, _ := db.Metrics().Find("sqldb_plan_cache_misses_total")
	hit0, _ := db.Metrics().Find("sqldb_plan_cache_hits_total")
	const q = `SELECT COUNT(*) FROM obs WHERE v = 13`
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	miss1, _ := db.Metrics().Find("sqldb_plan_cache_misses_total")
	hit1, _ := db.Metrics().Find("sqldb_plan_cache_hits_total")
	if miss1.Value != miss0.Value+1 {
		t.Fatalf("plan-cache misses %d -> %d, want +1", miss0.Value, miss1.Value)
	}
	if hit1.Value != hit0.Value+1 {
		t.Fatalf("plan-cache hits %d -> %d, want +1", hit0.Value, hit1.Value)
	}
	entries, ok := db.Metrics().Find("sqldb_plan_cache_entries")
	if !ok || entries.Value < 1 {
		t.Fatalf("sqldb_plan_cache_entries = %+v, want >= 1", entries)
	}

	mustExec(t, db, `DELETE FROM obs WHERE id < 100`)
	dead, _ := db.Metrics().Find("sqldb_dead_rows")
	if dead.Value <= 0 {
		t.Fatalf("sqldb_dead_rows = %d after DELETE, want > 0", dead.Value)
	}

	if err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	passes, _ := db.Metrics().Find("sqldb_vacuum_passes_total")
	if passes.Value < 1 {
		t.Fatalf("sqldb_vacuum_passes_total = %d, want >= 1", passes.Value)
	}
	reclaimed, _ := db.Metrics().Find("sqldb_vacuum_rows_reclaimed_total")
	if reclaimed.Value <= 0 {
		t.Fatalf("sqldb_vacuum_rows_reclaimed_total = %d, want > 0", reclaimed.Value)
	}
	dead, _ = db.Metrics().Find("sqldb_dead_rows")
	if dead.Value != 0 {
		t.Fatalf("sqldb_dead_rows = %d after vacuum, want 0", dead.Value)
	}
}
