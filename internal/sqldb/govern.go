package sqldb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Statement governance: cooperative cancellation and deadlines, both
// carried by the caller's context, plus DB.Close's drain.
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
// The engine queues no statement and budgets no memory: the archive's
// unit of work is a handful of small indexed SELECTs, and a bound on
// concurrent statements starved exactly those behind long scans. A
// caller that wants a deadline passes one in its context.

// Typed governance errors. Callers distinguish them with errors.Is.
var (
	// ErrCanceled reports a statement stopped by its context being
	// canceled (or by DB.Close canceling in-flight statements). The
	// database is left unpoisoned: reads simply stop, DML canceled
	// before the WAL stage rolls back cleanly.
	ErrCanceled = errors.New("sqldb: statement canceled")
	// ErrDeadlineExceeded reports a statement stopped by its context
	// deadline.
	ErrDeadlineExceeded = errors.New("sqldb: statement deadline exceeded")
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
	cancelReasonShutdown = "shutdown"
)

// interrupt is one statement's cancellation checker. A nil *interrupt
// is the ungoverned path (internal executions, replay): every method
// no-ops.
type interrupt struct {
	db      *DB
	ctx     context.Context
	done    <-chan struct{} // ctx.Done(); nil never fires
	closing <-chan struct{} // DB close broadcast

	n      uint32 // check() calls since the last poll
	err    error  // sticky governance failure
	reason string // cancel reason for telemetry/tracing

	deadlineNs int64 // the context's deadline budget at admission (0 = none)
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

// admitStatement is the statement entry gate: it refuses a closed
// database, reads the context's deadline and registers the statement
// in flight. The interrupt's release MUST be called when the statement
// finishes, on every path. ctx may be nil (the context-less Exec/Query
// entry points).
func (db *DB) admitStatement(ctx context.Context) (*interrupt, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if db.closingFlag.Load() {
		return nil, ErrClosed
	}
	var deadlineNs int64
	if dl, has := ctx.Deadline(); has {
		deadlineNs = time.Until(dl).Nanoseconds()
	}

	// Track the in-flight statement so Close can drain. Re-check the
	// closing flag after registering: a Close that raced past the first
	// check has already (or will immediately) see this registration.
	db.stmtWG.Add(1)
	if db.closingFlag.Load() {
		db.stmtWG.Done()
		return nil, ErrClosed
	}

	return &interrupt{
		db:         db,
		ctx:        ctx,
		done:       ctx.Done(),
		closing:    db.closing,
		deadlineNs: deadlineNs,
	}, nil
}

// release ends an admitted statement: it records the cancellation
// telemetry and ends the in-flight registration.
func (ic *interrupt) release() {
	db := ic.db
	switch ic.reason {
	case cancelReasonCanceled, cancelReasonShutdown:
		db.met.stmtCanceled.Inc()
	case cancelReasonDeadline:
		db.met.stmtTimedOut.Inc()
	}
	db.stmtWG.Done()
}

// governState is embedded in DB: the in-flight drain and close
// broadcast (initialised in OpenWith/initGovern).
type governState struct {
	stmtWG      sync.WaitGroup
	closing     chan struct{}
	closingFlag atomic.Bool
	closeOnce   sync.Once

	// CloseGrace bounds how long Close waits for in-flight statements
	// to observe the cancel broadcast before proceeding to teardown.
	CloseGrace time.Duration
}

// initGovern wires the close broadcast at Open.
func (db *DB) initGovern() {
	db.closing = make(chan struct{})
	db.CloseGrace = 5 * time.Second
}
