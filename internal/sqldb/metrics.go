package sqldb

import (
	"time"

	"repro/internal/telemetry"
)

// dbMetrics holds the engine's telemetry registry and the hot-path
// metric handles, resolved once at Open so instrumentation sites pay an
// atomic add, not a registry lookup. Metric families:
//
//	sqldb_wal_fsync_ns                 histogram  WAL flush write+fsync latency
//	sqldb_wal_group_commit_batch       histogram  transactions drained per flush
//	sqldb_wal_poison_total             counter    flush failures that poisoned the log
//	sqldb_commits_total                counter    committed transactions
//	sqldb_plan_cache_hits_total        counter    statement-cache hits
//	sqldb_plan_cache_misses_total      counter    statement-cache misses (parse+bind)
//	sqldb_plan_cache_entries           gauge      statements currently cached
//	sqldb_barrier_wait_ns              histogram  write-barrier wait of an autocommit DML/DDL statement
//	sqldb_vacuum_pass_ns               histogram  vacuum pass duration
//	sqldb_vacuum_passes_total          counter    completed vacuum passes
//	sqldb_vacuum_rows_reclaimed_total  counter    dead versions+postings reclaimed
//	sqldb_autovacuum_triggers_total    counter    background vacuums started
//	sqldb_dead_rows                    gauge      dead-version debt awaiting vacuum
//	sqldb_snapshot_age_ns              gauge      age of the newest commit stamp
//	sqldb_slow_queries_total           counter    statements over the trace threshold
//	sqldb_statements_canceled_total    counter    statements stopped by cancellation
//	sqldb_statements_timed_out_total   counter    statements stopped by their deadline
//	sqldb_result_cache_hits_total      counter    result cache hits (statement not re-executed)
//	sqldb_result_cache_misses_total    counter    result cache misses on cacheable statements
//	sqldb_result_cache_declines_total  counter    completed misses not cached, by reason
//	sqldb_result_cache_evictions_total counter    entries evicted by LRU capacity pressure
//	sqldb_result_cache_invalidations_total counter entries dropped by table writes
//	sqldb_result_cache_bytes           gauge      bytes currently held by the result cache
//	sqldb_result_cache_capacity_bytes  gauge      the result cache's byte capacity
type dbMetrics struct {
	reg *telemetry.Registry

	walFsyncNs  *telemetry.Histogram
	walBatch    *telemetry.Histogram
	walPoison   *telemetry.Counter
	commits     *telemetry.Counter
	planHits    *telemetry.Counter
	planMisses  *telemetry.Counter
	barrierNs   *telemetry.Histogram
	vacuumNs    *telemetry.Histogram
	vacuumPass  *telemetry.Counter
	vacuumRows  *telemetry.Counter
	autoVacuum  *telemetry.Counter
	slowQueries *telemetry.Counter

	stmtCanceled *telemetry.Counter
	stmtTimedOut *telemetry.Counter

	rcHits          *telemetry.Counter
	rcMisses        *telemetry.Counter
	rcEvicts        *telemetry.Counter
	rcInvalidations *telemetry.Counter
	rcDeclines      [len(declineReasons)]*telemetry.Counter
}

// newDBMetrics builds the registry and registers the engine's metric
// set, including the callback gauges that read live engine state at
// scrape time.
func newDBMetrics(db *DB) *dbMetrics {
	reg := telemetry.New()
	m := &dbMetrics{
		reg:         reg,
		walFsyncNs:  reg.Histogram("sqldb_wal_fsync_ns", "WAL flush write+fsync latency in nanoseconds."),
		walBatch:    reg.Histogram("sqldb_wal_group_commit_batch", "Transactions drained per WAL group-commit flush."),
		walPoison:   reg.Counter("sqldb_wal_poison_total", "WAL flush failures that poisoned the database."),
		commits:     reg.Counter("sqldb_commits_total", "Committed transactions."),
		planHits:    reg.Counter("sqldb_plan_cache_hits_total", "Plan-cache hits."),
		planMisses:  reg.Counter("sqldb_plan_cache_misses_total", "Plan-cache misses (full parse and bind)."),
		barrierNs:   reg.Histogram("sqldb_barrier_wait_ns", "Write-barrier acquisition wait in nanoseconds of an autocommit DML/DDL statement."),
		vacuumNs:    reg.Histogram("sqldb_vacuum_pass_ns", "Vacuum pass duration in nanoseconds."),
		vacuumPass:  reg.Counter("sqldb_vacuum_passes_total", "Completed vacuum passes."),
		vacuumRows:  reg.Counter("sqldb_vacuum_rows_reclaimed_total", "Dead row versions and stale index postings reclaimed by vacuum."),
		autoVacuum:  reg.Counter("sqldb_autovacuum_triggers_total", "Background auto-vacuum passes triggered."),
		slowQueries: reg.Counter("sqldb_slow_queries_total", "Statements that exceeded the trace threshold."),

		stmtCanceled: reg.Counter("sqldb_statements_canceled_total", "Statements stopped by context cancellation or shutdown."),
		stmtTimedOut: reg.Counter("sqldb_statements_timed_out_total", "Statements stopped by their deadline."),

		rcHits:          reg.Counter("sqldb_result_cache_hits_total", "Result-cache hits (statement answered without execution)."),
		rcMisses:        reg.Counter("sqldb_result_cache_misses_total", "Result-cache misses on cacheable statements."),
		rcEvicts:        reg.Counter("sqldb_result_cache_evictions_total", "Result-cache entries evicted by LRU capacity pressure."),
		rcInvalidations: reg.Counter("sqldb_result_cache_invalidations_total", "Result-cache entries dropped by table writes."),
	}
	for i, reason := range declineReasons {
		m.rcDeclines[i] = reg.Counter("sqldb_result_cache_declines_total", "Completed result cache misses not cached, by reason.", "reason", reason)
	}
	reg.GaugeFunc("sqldb_dead_rows", "Dead row versions and stale index postings awaiting vacuum.", db.deadRowDebt)
	reg.GaugeFunc("sqldb_snapshot_age_ns", "Age of the newest published commit stamp in nanoseconds.", func() int64 {
		last := db.lastCommitWall.Load()
		if last == 0 {
			return 0
		}
		return time.Now().UnixNano() - last
	})
	reg.GaugeFunc("sqldb_plan_cache_entries", "Statements currently held by the plan cache.", func() int64 {
		return int64(db.plans.len())
	})
	reg.GaugeFunc("sqldb_result_cache_bytes", "Bytes currently held by the result cache.", func() int64 {
		return db.rcache.bytesUsed()
	})
	reg.GaugeFunc("sqldb_result_cache_capacity_bytes", "Byte capacity of the result cache.", func() int64 {
		return db.rcache.capBytes
	})
	return m
}

// walMetrics returns the handle set the WAL writer records into.
func (m *dbMetrics) walMetrics() walMetrics {
	return walMetrics{fsyncNs: m.walFsyncNs, batch: m.walBatch, poison: m.walPoison}
}

// deadRowDebt sums the dead-version debt across all tables — the
// quantity auto-vacuum triggers on.
func (db *DB) deadRowDebt() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var dead int64
	for _, td := range db.data {
		dead += td.dead.Load()
	}
	return dead
}

// Metrics exposes the engine's telemetry registry: the webui's /metrics
// page writes it with WritePrometheus, and MetricsSnapshot gives
// programmatic access.
func (db *DB) Metrics() *telemetry.Registry { return db.met.reg }

// MetricsSnapshot captures every engine metric (counters, gauges and
// histogram percentile summaries) for tests, status pages and bench
// tooling.
func (db *DB) MetricsSnapshot() []telemetry.Metric { return db.met.reg.Snapshot() }
