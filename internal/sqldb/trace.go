package sqldb

import (
	"encoding/json"
	"io"
	"time"
)

// TraceNode is one plan-node measurement inside an execution trace:
// how long the stage ran, how many rows it produced and how many heap
// row versions it visited (zero for an index-only COUNT).
type TraceNode struct {
	Node      string `json:"node"`
	Rows      int64  `json:"rows"`
	HeapReads int64  `json:"heap_reads"`
	WallNs    int64  `json:"wall_ns"`
}

// Trace is an EXPLAIN ANALYZE record for one statement execution: the
// access-path description the planner chose plus measured per-node wall
// time and row/heap-read counts, and — for DML — the commit-pipeline
// breakdown (latch or barrier wait, WAL staging, fsync wait and the
// group-commit batch the fsync rode in). Traces marshal to one JSON
// object; the slow-query log emits them one per line.
type Trace struct {
	Time string `json:"time"`
	SQL  string `json:"sql"`
	Kind string `json:"kind"` // "select" | "exec"
	// Path is the planner's access-path description (see Stmt.AccessPath);
	// empty for non-SELECT statements.
	Path string `json:"path,omitempty"`
	// Cache records the statement's result cache interaction: "hit"
	// (served without execution), "miss" (executed, then cached if
	// admitted) or "bypass" (cacheable=false — volatile functions). Empty
	// when the result cache is disabled or for non-SELECT statements.
	Cache     string      `json:"cache,omitempty"`
	Rows      int64       `json:"rows"`
	HeapReads int64       `json:"heap_reads"`
	WallNs    int64       `json:"wall_ns"`
	Nodes     []TraceNode `json:"nodes,omitempty"`

	// DML commit-pipeline breakdown (all zero for SELECT).
	LatchWaitNs      int64 `json:"latch_wait_ns,omitempty"`
	BarrierWaitNs    int64 `json:"barrier_wait_ns,omitempty"`
	WALStageNs       int64 `json:"wal_stage_ns,omitempty"`
	FsyncWaitNs      int64 `json:"fsync_wait_ns,omitempty"`
	GroupCommitBatch int64 `json:"group_commit_batch,omitempty"`

	// Slow is set when the statement exceeded the slow-query threshold
	// (always false for traces forced via Stmt.Trace under the threshold).
	Slow bool `json:"slow,omitempty"`

	// CancelReason records why a governed statement stopped early:
	// "canceled", "deadline", "memory" or "shutdown". Empty for
	// statements that ran to completion.
	CancelReason string `json:"cancel_reason,omitempty"`
	// DeadlineNs is the statement's remaining deadline budget at
	// admission (ctx deadline or the SetStatementTimeout default);
	// zero when the statement had no deadline.
	DeadlineNs int64 `json:"deadline_ns,omitempty"`
}

// execTrace is the in-flight collector behind a Trace. A nil *execTrace
// is the disabled path: every method no-ops, so execution code calls
// span()/endHeap() unconditionally.
type execTrace struct {
	db    *DB
	t     *Trace
	start time.Time
	h0    int64
}

// newTrace starts collecting a trace for one statement execution.
func (db *DB) newTrace(sql, kind string) *execTrace {
	return &execTrace{
		db:    db,
		t:     &Trace{Time: db.nowFn().UTC().Format(time.RFC3339Nano), SQL: sql, Kind: kind},
		start: time.Now(),
	}
}

// heapSum totals heap row-version reads across all tables. Caller must
// hold db.mu (any mode): the table map only changes under the exclusive
// lock.
func (tr *execTrace) heapSum() int64 {
	var n int64
	for _, td := range tr.db.data {
		n += td.heapReads.Load()
	}
	return n
}

// beginHeap/endHeap bracket the locked execution region and record the
// statement's total heap reads. Both need db.mu held.
func (tr *execTrace) beginHeap() {
	if tr != nil {
		tr.h0 = tr.heapSum()
	}
}

func (tr *execTrace) endHeap() {
	if tr != nil {
		tr.t.HeapReads = tr.heapSum() - tr.h0
	}
}

var noopEnd = func(int64) {}

// span starts a plan-node measurement; the returned closure ends it
// with the node's output row count. Spans that never end (a stage that
// declined to run) leave no node behind. Caller must hold db.mu.
func (tr *execTrace) span(name string) func(rows int64) {
	if tr == nil {
		return noopEnd
	}
	start := time.Now()
	h0 := tr.heapSum()
	return func(rows int64) {
		tr.t.Nodes = append(tr.t.Nodes, TraceNode{
			Node:      name,
			Rows:      rows,
			HeapReads: tr.heapSum() - h0,
			WallNs:    time.Since(start).Nanoseconds(),
		})
	}
}

// finishRows closes the trace with the statement's result cardinality.
func (tr *execTrace) finishRows(rows int64) {
	if tr == nil {
		return
	}
	tr.t.Rows = rows
	tr.t.WallNs = time.Since(tr.start).Nanoseconds()
}

// trace unwraps the collected Trace (nil when tracing was disabled).
func (tr *execTrace) trace() *Trace {
	if tr == nil {
		return nil
	}
	return tr.t
}

// setDeadline records the statement's deadline budget on the trace.
func (tr *execTrace) setDeadline(ic *interrupt) {
	if tr == nil || ic == nil {
		return
	}
	tr.t.DeadlineNs = ic.deadlineNs
}

// traceCanceled closes and logs the trace of a statement that failed
// under governance, tagging it with the cancel reason so the slow-query
// log distinguishes a deadline kill from a plain slow statement. A
// statement that failed for non-governance reasons (ic.reason empty)
// is left untraced, as before.
func (db *DB) traceCanceled(tr *execTrace, ic *interrupt, thresholdNs int64) {
	if tr == nil || ic == nil || ic.reason == "" {
		return
	}
	tr.t.CancelReason = ic.reason
	tr.finishRows(tr.t.Rows)
	db.noteSlow(tr, thresholdNs)
}

// noteSlow marks and logs the trace when it crossed the threshold:
// one JSON line per slow statement on the configured writer, plus the
// sqldb_slow_queries_total counter. Called with no engine locks held.
func (db *DB) noteSlow(tr *execTrace, thresholdNs int64) {
	if tr == nil || thresholdNs <= 0 || tr.t.WallNs < thresholdNs {
		return
	}
	tr.t.Slow = true
	db.met.slowQueries.Inc()
	db.slowMu.Lock()
	defer db.slowMu.Unlock()
	if db.slowLog == nil {
		return
	}
	line, err := json.Marshal(tr.t)
	if err != nil {
		return
	}
	db.slowLog.Write(append(line, '\n')) //nolint:errcheck // diagnostics only
}

// SetTraceThreshold enables per-statement execution tracing: every
// statement is traced, and any whose wall time reaches d is written to
// the slow-query log (see SetSlowQueryLog) as one JSON line and counted
// in sqldb_slow_queries_total. Zero disables tracing entirely — the
// default, and the near-zero-overhead path. Stmt.Trace forces a trace
// for one execution regardless of this setting.
func (db *DB) SetTraceThreshold(d time.Duration) {
	db.traceThresholdNs.Store(int64(d))
}

// SetSlowQueryLog directs slow-query JSON lines to w (nil discards
// them; the threshold counter still advances). The writer is called
// with an internal lock held, one complete line per call, so a plain
// *os.File or bytes.Buffer needs no extra synchronisation.
func (db *DB) SetSlowQueryLog(w io.Writer) {
	db.slowMu.Lock()
	db.slowLog = w
	db.slowMu.Unlock()
}
