package sqldb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Statement governance: cooperative cancellation, deadlines, memory
// budgets and admission control.
//
// Every statement execution owns one *interrupt. The streaming loops —
// heap and index scans, join candidates, fold aggregation, top-k and
// sort key assembly, DML row matching — call check() once per row; it
// polls the statement's context (and the database's close broadcast)
// every interruptStride rows, so a canceled statement stops within a
// few hundred row visits regardless of how much data remains.
// The first governance failure is sticky: once check() has reported an
// error, every later call reports the same one, so a cancellation
// surfaces through the existing scanErr/foldErr plumbing exactly like
// an evaluation error would.
//
// Cancellation boundary (the contract DML callers rely on): checks run
// only during statement execution, BEFORE commitTx stages the
// transaction's WAL frames. A canceled DML statement therefore unwinds
// through rollbackTx — mvccRefs.abort flips its stamps to the aborted
// state — and leaves no visible effect. Once commitTx has been entered
// the statement is past its last checkpoint and commits normally: a
// context that expires during the WAL stage or the group-commit fsync
// does not (and must not) undo a durable transaction.
//
// The memory budget is a database-wide byte pool (Options.MemoryBudget)
// charged by the operators that buffer unbounded state: hash-agg group
// tables, joined rows, materialised/sort row buffers. Charges are
// estimates (estimated value-slot sizes, not precise heap accounting);
// the point is to fail one statement with ErrMemoryBudget instead of
// taking the process down with an OOM kill. A statement's charges are
// released in full when it finishes.
//
// Admission control bounds concurrent statement executions
// (Options.MaxConcurrentStatements) with a bounded wait queue: an
// arriving statement over the limit queues; once the queue itself is
// full the statement is shed immediately with ErrAdmissionRejected.
// Queued statements still honor their deadlines and the database's
// close broadcast, so overload degrades into fast failures instead of
// unbounded goroutine pileup.

// Typed governance errors. Callers distinguish them with errors.Is.
var (
	// ErrCanceled reports a statement stopped by its context being
	// canceled (or by DB.Close canceling in-flight statements). The
	// database is left unpoisoned: reads simply stop, DML canceled
	// before the WAL stage rolls back cleanly.
	ErrCanceled = errors.New("sqldb: statement canceled")
	// ErrDeadlineExceeded reports a statement stopped by its context
	// deadline (per-call or the DB.SetStatementTimeout default).
	ErrDeadlineExceeded = errors.New("sqldb: statement deadline exceeded")
	// ErrMemoryBudget reports a statement that would have pushed the
	// database's buffered-operator memory (hash aggregation, joined
	// rows, sort buffers) past Options.MemoryBudget.
	ErrMemoryBudget = errors.New("sqldb: statement memory budget exceeded")
	// ErrAdmissionRejected reports a statement shed at admission: the
	// concurrent-statement limit was reached AND the wait queue was
	// full. The caller should back off and retry.
	ErrAdmissionRejected = errors.New("sqldb: statement rejected: admission queue full")
	// ErrClosed reports a statement that arrived at (or was in flight
	// across) DB.Close.
	ErrClosed = errors.New("sqldb: database is closed")
)

// interruptStride is how many check() calls pass between context polls.
// A power of two: the fast path is one branch and a mask. At even a
// pessimistic 1µs per row visit, 256 rows bound the cancellation
// latency around a quarter millisecond — far inside the 50ms target.
const interruptStride = 256

// Cancel reasons recorded on traces and the slow-query log.
const (
	cancelReasonCanceled = "canceled"
	cancelReasonDeadline = "deadline"
	cancelReasonMemory   = "memory"
	cancelReasonShutdown = "shutdown"
)

// interrupt is one statement's cancellation checker and memory-budget
// account. A nil *interrupt is the ungoverned path (internal executions,
// replay): every method no-ops.
type interrupt struct {
	db      *DB
	ctx     context.Context
	done    <-chan struct{} // ctx.Done(); nil never fires
	closing <-chan struct{} // DB close broadcast

	n      uint32 // check() calls since the last poll
	err    error  // sticky governance failure
	reason string // cancel reason for telemetry/tracing

	mem        int64 // bytes currently charged against db.memUsed
	deadlineNs int64 // effective statement deadline budget (0 = none)

	admitted bool               // holds an admission slot
	cancel   context.CancelFunc // the default timeout's context, if any
}

// check is the per-row checkpoint. The fast path — no sticky error,
// stride not yet reached — is a branch and a counter increment.
func (ic *interrupt) check() error {
	if ic == nil {
		return nil
	}
	if ic.err != nil {
		return ic.err
	}
	ic.n++
	if ic.n&(interruptStride-1) != 0 {
		return nil
	}
	return ic.poll()
}

// poll consults the context and close broadcast immediately (no stride).
// Statement entry points call it directly at phase boundaries — e.g.
// right before commitTx, the last point a DML statement can cancel.
func (ic *interrupt) poll() error {
	if ic == nil {
		return nil
	}
	if ic.err != nil {
		return ic.err
	}
	select {
	case <-ic.done:
		ic.failCtx()
	case <-ic.closing:
		ic.fail(fmt.Errorf("%w: %w", ErrCanceled, ErrClosed), cancelReasonShutdown)
	default:
	}
	return ic.err
}

// failCtx maps the context's error onto the engine's sentinel pair.
func (ic *interrupt) failCtx() {
	switch {
	case errors.Is(ic.ctx.Err(), context.DeadlineExceeded):
		ic.fail(ErrDeadlineExceeded, cancelReasonDeadline)
	default:
		ic.fail(ErrCanceled, cancelReasonCanceled)
	}
}

// fail records the sticky governance failure (first cause wins).
func (ic *interrupt) fail(err error, reason string) {
	if ic.err == nil {
		ic.err = err
		ic.reason = reason
	}
}

// rowFootprint estimates the buffered cost of retaining one row of n
// value slots: the slice header plus 32 bytes per sqltypes.Value. An
// estimate by design — see the memory-budget notes above.
func rowFootprint(n int) int64 { return 48 + 32*int64(n) }

// charge reserves n bytes of the database's memory budget for this
// statement, failing with ErrMemoryBudget when the pool is exhausted.
// Charges accumulate on the statement and release() returns them all.
func (ic *interrupt) charge(n int64) error {
	if ic == nil || ic.db == nil || ic.db.memBudget <= 0 {
		return nil
	}
	if ic.err != nil {
		return ic.err
	}
	if ic.db.memUsed.Add(n) > ic.db.memBudget {
		ic.db.memUsed.Add(-n)
		ic.db.met.memRejected.Inc()
		ic.fail(fmt.Errorf("%w (budget %d bytes)", ErrMemoryBudget, ic.db.memBudget), cancelReasonMemory)
		return ic.err
	}
	ic.mem += n
	return nil
}

// releaseMem returns every byte the statement charged to the pool.
func (ic *interrupt) releaseMem() {
	if ic == nil || ic.mem == 0 {
		return
	}
	ic.db.memUsed.Add(-ic.mem)
	ic.mem = 0
}

// admitStatement is the statement entry gate: it applies the default
// statement timeout, passes (or sheds at) admission control, and builds
// the statement's interrupt, whose release MUST be called when the
// statement finishes, on every path. ctx may be nil (the context-less
// Exec/Query entry points).
func (db *DB) admitStatement(ctx context.Context) (*interrupt, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if db.closingFlag.Load() {
		return nil, ErrClosed
	}
	cancel := func() {}
	var deadlineNs int64
	if d := time.Duration(db.stmtTimeout.Load()); d > 0 {
		if _, has := ctx.Deadline(); !has {
			ctx, cancel = context.WithTimeout(ctx, d)
		}
	}
	if dl, has := ctx.Deadline(); has {
		deadlineNs = time.Until(dl).Nanoseconds()
	}

	admitted := false
	if db.admit != nil {
		select {
		case db.admit <- struct{}{}:
			admitted = true
		default:
			// Over the concurrency limit: queue, bounded.
			if db.admitWaiting.Add(1) > int64(db.admitMaxQueue) {
				db.admitWaiting.Add(-1)
				db.met.stmtShed.Inc()
				cancel()
				return nil, ErrAdmissionRejected
			}
			start := time.Now()
			select {
			case db.admit <- struct{}{}:
				db.admitWaiting.Add(-1)
				db.met.admissionWaitNs.ObserveSince(start)
				admitted = true
			case <-ctx.Done():
				db.admitWaiting.Add(-1)
				cancel()
				if errors.Is(ctx.Err(), context.DeadlineExceeded) {
					db.met.stmtTimedOut.Inc()
					return nil, ErrDeadlineExceeded
				}
				db.met.stmtCanceled.Inc()
				return nil, ErrCanceled
			case <-db.closing:
				db.admitWaiting.Add(-1)
				cancel()
				return nil, ErrClosed
			}
		}
	}

	// Track the in-flight statement so Close can drain. Re-check the
	// closing flag after registering: a Close that raced past the first
	// check has already (or will immediately) see this registration.
	db.stmtWG.Add(1)
	if db.closingFlag.Load() {
		if admitted {
			<-db.admit
		}
		db.stmtWG.Done()
		cancel()
		return nil, ErrClosed
	}

	return &interrupt{
		db:         db,
		ctx:        ctx,
		done:       ctx.Done(),
		closing:    db.closing,
		deadlineNs: deadlineNs,
		admitted:   admitted,
		cancel:     cancel,
	}, nil
}

// release ends an admitted statement: it frees the admission slot,
// returns memory charges and records the cancellation telemetry.
func (ic *interrupt) release() {
	ic.releaseMem()
	db := ic.db
	switch ic.reason {
	case cancelReasonCanceled, cancelReasonShutdown:
		db.met.stmtCanceled.Inc()
	case cancelReasonDeadline:
		db.met.stmtTimedOut.Inc()
	}
	if ic.admitted {
		<-db.admit
	}
	db.stmtWG.Done()
	ic.cancel()
}

// SetStatementTimeout installs a default deadline applied to every
// statement whose context does not already carry one (including the
// context-less Exec/Query entry points). Zero disables the default.
func (db *DB) SetStatementTimeout(d time.Duration) {
	db.stmtTimeout.Store(int64(d))
}

// MemoryInUse reports the bytes currently charged against the
// statement memory budget (0 when no budget is configured).
func (db *DB) MemoryInUse() int64 { return db.memUsed.Load() }

// AdmissionQueueDepth reports how many statements are currently waiting
// for an admission slot.
func (db *DB) AdmissionQueueDepth() int64 { return db.admitWaiting.Load() }

// govern state embedded in DB (fields declared here to keep the
// governance surface in one file; initialised in OpenWith/initGovern).
type governState struct {
	stmtTimeout atomic.Int64 // default statement deadline, ns
	memBudget   int64        // Options.MemoryBudget; 0 = unlimited
	memUsed     atomic.Int64

	admit         chan struct{} // admission semaphore; nil = unlimited
	admitMaxQueue int
	admitWaiting  atomic.Int64

	stmtWG      sync.WaitGroup
	closing     chan struct{}
	closingFlag atomic.Bool
	closeOnce   sync.Once

	// CloseGrace bounds how long Close waits for in-flight statements
	// to observe the cancel broadcast before proceeding to teardown.
	CloseGrace time.Duration
}

// initGovern wires the admission/budget configuration at Open.
func (db *DB) initGovern(opts Options) {
	db.closing = make(chan struct{})
	db.CloseGrace = 5 * time.Second
	db.memBudget = opts.MemoryBudget
	if n := opts.MaxConcurrentStatements; n > 0 {
		db.admit = make(chan struct{}, n)
		db.admitMaxQueue = opts.AdmissionQueue
		if db.admitMaxQueue <= 0 {
			db.admitMaxQueue = 4 * n
		}
	}
}
