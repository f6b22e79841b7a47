package sqldb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/iofault"
	"repro/internal/sqltypes"
)

// Typed durability errors. Callers distinguish them with errors.Is.
var (
	// ErrPoisoned marks a database whose durability can no longer be
	// trusted: an fsync failed (the kernel may have dropped the dirty
	// pages it covered, so retrying proves nothing), or a checkpoint
	// died after the new snapshot became visible but before the log was
	// rotated onto it. Every subsequent commit and checkpoint fails with
	// this error; reopening the directory recovers to the last state
	// that verifiably reached disk.
	ErrPoisoned = errors.New("sqldb: database poisoned by durability failure, reopen to recover")
	// ErrWALCorrupt refuses an open whose log shows mid-log corruption:
	// a bad frame with intact frames after it, i.e. damage to data that
	// was once durably written, not a torn crash tail. Opening with
	// Options.Salvage accepts the loss explicitly and recovers the
	// prefix before the damage.
	ErrWALCorrupt = errors.New("sqldb: WAL corrupt")
	// ErrSnapshotCorrupt refuses an open whose snapshot fails its
	// whole-file checksum (or predates it).
	ErrSnapshotCorrupt = errors.New("sqldb: snapshot corrupt")
)

// LinkController receives SQL/MED link-control callbacks from the engine
// whenever rows holding DATALINK values (with FILE LINK CONTROL) are
// inserted, updated or deleted. The med package implements it by talking
// to the file-manager daemons; the engine only defines the protocol:
//
//	PrepareLink/PrepareUnlink are called during statement execution,
//	inside the transaction; they must validate (e.g. file existence for
//	links) and reserve the action.
//	Commit is called after the transaction's WAL records are durable.
//	Abort is called on rollback and must release reservations. An abort
//	failure (an unreachable file server that still holds a staged
//	prepare) is surfaced alongside the rollback so the caller knows the
//	file side may leak until the coordinator retries or reconciles.
type LinkController interface {
	PrepareLink(txID uint64, url string, opts sqltypes.DatalinkOptions) error
	PrepareUnlink(txID uint64, url string, opts sqltypes.DatalinkOptions) error
	Commit(txID uint64) error
	Abort(txID uint64) error
}

// Result reports the effect of a DML statement.
type Result struct {
	RowsAffected int
}

// Rows is a fully materialised query result: it shares no mutable state
// with the engine, so it stays valid (and safe to read from any
// goroutine) after the query returns, concurrent with later writes.
//
// Rows from Query are read-only: Columns, Kinds and the Data values may
// be shared with the result cache, with every other caller served the
// same cached answer and — for a projection of a lone table's columns
// in stored order, such as SELECT * — with the table itself: each such
// row is the row version the statement saw, which the engine never
// writes after publishing it, so later writes, VACUUM and checkpoints
// leave the result as of its snapshot. Writing through such a row would
// corrupt the table, not only the cache. Reslicing Data, appending to a
// row (its capacity ends at its last column), or Detach/Close on one's
// own Rows is fine; writing through them is not.
//
// Any other projection's rows are backed by a per-statement arena
// (arena.go): plain heap for a small result, pooled slabs once it has
// outgrown that. Close releases the slabs to a reuse pool wholesale;
// after Close the Data slices must not be read. Close is optional — a
// small result has nothing to release, and an unclosed large one is
// reclaimed by the GC like any other value, its slabs just miss the
// pool. Callers that retain a result indefinitely while closing eagerly
// elsewhere call Detach first, which copies arena-backed rows onto the
// plain heap (the detached-Rows contract: after Detach, Close is a
// no-op).
type Rows struct {
	Columns []string
	Kinds   []sqltypes.Kind
	Data    [][]sqltypes.Value

	// arena backs the Data row slices of an executed SELECT; nil when no
	// row lives in arena memory — stored-order, detached, cache-served
	// and index-only aggregate results. Detach and the result cache copy
	// the rows exactly when it is non-nil.
	arena *rowArena
}

// Close releases the result's arena-backed row storage to the reuse
// pool. The Data slices are invalid afterwards. Nil-safe, idempotent,
// and a no-op for results that own no arena.
func (r *Rows) Close() {
	if r == nil || r.arena == nil {
		return
	}
	ar := r.arena
	r.arena = nil
	r.Data = nil
	ar.release()
}

// Detach copies the result out of its arena onto the plain heap, so it
// stays valid indefinitely even if the arena's chunks are recycled.
// After Detach, Close is a no-op. Nil-safe; detaching a result that
// owns no arena does nothing.
func (r *Rows) Detach() {
	if r == nil || r.arena == nil {
		return
	}
	ar := r.arena
	r.arena = nil
	if n := len(r.Data); n > 0 {
		ncols := 0
		for _, row := range r.Data {
			ncols += len(row)
		}
		flat := make([]sqltypes.Value, 0, ncols)
		for i, row := range r.Data {
			flat = append(flat, row...)
			r.Data[i] = flat[len(flat)-len(row) : len(flat) : len(flat)]
		}
	}
	ar.release()
}

// ColIndex returns the position of the first result column with the
// given name (case-insensitive), or -1.
func (r *Rows) ColIndex(name string) int {
	for i, c := range r.Columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// Get returns row i's value in the named column (Null when absent).
func (r *Rows) Get(i int, col string) sqltypes.Value {
	j := r.ColIndex(col)
	if j < 0 || i < 0 || i >= len(r.Data) {
		return sqltypes.Null
	}
	return r.Data[i][j]
}

// indexDef records a secondary index created with CREATE INDEX.
type indexDef struct {
	Name    string
	Table   string
	Columns []string // upper-cased, index order
}

// DB is an embedded SQL database with MVCC snapshot reads and a sharded
// write path. SELECTs (Query, Stmt.Query) take mu as a read lock, pin a
// commit-stamp snapshot at statement start and run concurrently — with
// each other AND with writers, which install new row versions without
// disturbing what an open reader's snapshot sees. Single-table DML with
// no foreign keys in either direction and no DATALINK columns commits
// through a per-table writer latch (tableData.wmu), so non-conflicting
// writes to different tables proceed concurrently through the shared
// WAL group-commit path. DDL, explicit transactions, FK-involved DML
// and maintenance (checkpoint, vacuum) take mu exclusively — the global
// barrier. A DB with an empty directory is purely in-memory; otherwise
// snapshot.db and wal.log in the directory provide durability with
// crash recovery.
//
// Indexes: every PRIMARY KEY and UNIQUE constraint and every CREATE
// INDEX name ON table (col, ...) builds the same B+tree over the
// canonical key encoding (see index.go, key.go). The access-path
// planner (planner.go) routes SELECT/UPDATE/DELETE through them for
// equality, range, BETWEEN and IS [NOT] NULL predicates and satisfies
// ORDER BY from an index in either direction. Indexes are not
// serialised: constraint indexes come from the CREATE TABLE text and
// named ones from CREATE INDEX, both in the DDL log, and all are
// rebuilt on open; CREATE/DROP INDEX bumps the schema epoch, so cached
// plans transparently re-plan.
//
// Locking rules (for maintainers):
//   - Catalogue/topology state — cat, data (the map itself), each
//     table's indexes list, indexes, nowFn, fullScanOnly, schemaEpoch,
//     closed — is written only under mu.Lock and may be read under
//     mu.RLock.
//   - Row and index CONTENT is MVCC-stamped: readers walk an index (or
//     copy the slots header) under a short tableData.latch read section,
//     take the *rowSlot each posting points at, and read its version
//     chain lock-free, after the latch is released, at the snapshot
//     pinned by readSnapshot. No reader looks a row up by id: a table's
//     slots are ascending by id, and tableData.slotFor (a binary search)
//     exists for WAL replay alone. A slot pointer outlives the latch
//     because slots and postings are removed only by vacuum, under
//     mu.Lock. Writers serialise per table on tableData.wmu while
//     holding mu.RLock, or skip wmu under mu.Lock.
//     Lock order: mu (any mode) → wmu → latch/commitMu. Never acquire
//     mu while holding commitMu or a wmu.
//   - Commit-path state — wal, inflight, poisonErr, txSinceCheckpoint,
//     lastTS advancement — is guarded by commitMu, so sharded writers
//     holding only mu.RLock commit safely. Exclusive paths (checkpoint,
//     unwind, Close) take commitMu too.
//   - Query results are fully materialised copies, never views into
//     storage, so they outlive the read lock.
//   - The plan cache (plans) and per-statement plan builds (Stmt.mu)
//     have their own locks, never held while acquiring mu.
//   - Commit durability happens OUTSIDE mu: commitTx stages WAL frames
//     and stamps versions under commitMu, then returns a finish closure
//     that waits for the group-commit flush after every engine lock is
//     released, so readers and other writers overlap with the fsync.
//     The walFile has its own mutex and must never be touched under mu
//     except through stageTx/checkpointLocked/vacuumLocked.
type DB struct {
	// governState holds the statement-governance machinery: default
	// statement timeout, memory budget pool, admission semaphore and
	// the Close drain bookkeeping. See govern.go.
	governState

	mu      sync.RWMutex
	cat     *Catalog
	data    map[string]*tableData
	indexes map[string]indexDef // index name (upper) → definition
	nextRow atomic.Uint64       // row-id allocator (sharded writers race)
	nextTx  atomic.Uint64       // transaction-id allocator

	// commitMu serialises the commit point: WAL staging, commit-stamp
	// allocation and lastTS publication happen under it, so on-disk
	// order, stamp order and visibility order all agree. See the
	// locking rules above for what else it guards.
	commitMu sync.Mutex
	// lastTS is the newest published commit stamp; readSnapshot loads it
	// to pin a statement's snapshot. Starts at baseStamp so snapshot-
	// loaded rows are visible to every reader.
	lastTS atomic.Uint64

	// Background vacuum coordination: vacRunning admits one auto-vacuum
	// at a time, vacWG lets Close wait the goroutine out.
	vacRunning atomic.Bool
	vacWG      sync.WaitGroup

	// schemaEpoch counts DDL statements. Prepared plans record the epoch
	// they were bound at and re-bind when it moves, so no cached plan
	// ever executes against a changed catalogue.
	schemaEpoch uint64
	// inflight lists transactions whose WAL frames are staged but whose
	// durability is not yet acknowledged, in commit order. On a flush
	// failure the whole undurable suffix is unwound in REVERSE commit
	// order (see unwindFailedLocked) so overlapping transactions restore
	// cleanly.
	inflight []*txState
	// plans is the LRU of prepared statements Exec/Query consult, so
	// unprepared callers get statement caching for free.
	plans *planCache

	// met is the telemetry registry and resolved metric handles; always
	// non-nil (set in OpenWith before any statement can run).
	met *dbMetrics
	// lastCommitWall is the wall-clock UnixNano of the newest published
	// commit stamp, feeding the sqldb_snapshot_age_ns gauge.
	lastCommitWall atomic.Int64
	// traceThresholdNs > 0 turns on per-statement tracing; statements at
	// or above it emit a slow-query JSON line. See SetTraceThreshold.
	traceThresholdNs atomic.Int64
	slowMu           sync.Mutex
	slowLog          io.Writer

	dir       string
	fs        iofault.FS // filesystem all durability I/O goes through
	gen       uint64     // checkpoint generation of the live snapshot+log
	wal       *walFile
	linkCtl   LinkController
	ddlLog    []string
	replaying bool
	closed    bool

	// poisonErr is the sticky database-level durability failure (wraps
	// ErrPoisoned). Set when a WAL flush fails or a checkpoint dies in
	// its non-atomic window; checked at every commit and checkpoint.
	poisonErr error

	// recovery describes what the Open that produced this DB found.
	recovery RecoveryInfo

	// rcache is the query result cache (resultcache.go), armed at
	// Open; nil only when an in-package test turns it off. Swapped
	// atomically so the read path loads it without touching mu's write
	// side.
	rcache atomic.Pointer[resultCache]

	// fullScanOnly disables index access paths at execution time (the
	// planner still runs; its choice is ignored). Ablation and
	// property-testing knob — see SetFullScanOnly.
	fullScanOnly bool

	// nowFn supplies the clock for NOW(); injectable for deterministic
	// tests and the network-simulated experiments.
	nowFn func() time.Time

	// walBytesSinceCheckpoint triggers automatic checkpoints.
	txSinceCheckpoint int
	// CheckpointEvery controls automatic checkpointing: after this many
	// committed transactions the engine folds the WAL into a fresh
	// snapshot. Zero disables automatic checkpoints.
	CheckpointEvery int
	// AutoVacuumDeadRows triggers a background vacuum once the total
	// count of dead row versions and dead index entries across all
	// tables exceeds it. Zero disables auto-vacuum (DB.Vacuum and
	// checkpoints still reclaim).
	AutoVacuumDeadRows int64
}

// Options tunes OpenWith.
type Options struct {
	// FS is the filesystem durability I/O goes through; nil selects the
	// real disk. Tests inject an iofault.Faults controller here.
	FS iofault.FS
	// Salvage accepts data loss on mid-log WAL corruption: instead of
	// refusing with ErrWALCorrupt, recovery keeps the intact prefix
	// before the damage and truncates the rest. RecoveryInfo.Salvaged
	// reports that it happened.
	Salvage bool
	// MaxConcurrentStatements bounds how many statements execute at
	// once. Over the limit, arrivals wait in a bounded queue (length
	// AdmissionQueue); a full queue sheds with ErrAdmissionRejected.
	// Zero disables admission control.
	MaxConcurrentStatements int
	// AdmissionQueue is the admission wait-queue bound; defaults to
	// 4×MaxConcurrentStatements when zero.
	AdmissionQueue int
	// MemoryBudget caps the bytes buffered by hash aggregation, join
	// hash builds and sort/materialise buffers across all concurrent
	// statements; a statement that would exceed it fails with
	// ErrMemoryBudget. Zero means unlimited. The result cache is
	// charged against it too, and holds at most an eighth of it.
	MemoryBudget int64
}

// RecoveryInfo describes what crash recovery found and did during Open.
type RecoveryInfo struct {
	SnapshotGen    uint64 // checkpoint generation of the loaded snapshot
	WALEpoch       uint64 // epoch declared by the log's header frame
	StaleWAL       bool   // log predated the snapshot and was discarded
	ReplayedTx     int    // committed transactions re-applied from the log
	Tail           string // tail classification: clean / torn-tail / ...
	TruncatedBytes int64  // torn-tail bytes removed from the log
	Salvaged       bool   // mid-log corruption was truncated under Salvage
}

// Open opens (creating if necessary) a database in dir. An empty dir
// yields an in-memory database with no durability.
func Open(dir string) (*DB, error) { return OpenWith(dir, Options{}) }

// OpenWith opens a database with explicit recovery options.
//
// Recovery proceeds: load + checksum-verify the snapshot, parse the
// log, classify its tail. A clean or torn tail recovers normally (the
// torn region — a crash mid-append, never acknowledged — is truncated
// away). Mid-log corruption refuses with ErrWALCorrupt unless
// opts.Salvage. A log whose epoch predates the snapshot's generation
// is a checkpoint that crashed between snapshot rename and log
// rotation; its contents are already folded into the snapshot, so it
// is discarded, not replayed.
func OpenWith(dir string, opts Options) (*DB, error) {
	db := &DB{
		cat:                NewCatalog(),
		data:               make(map[string]*tableData),
		indexes:            make(map[string]indexDef),
		plans:              newPlanCache(DefaultPlanCacheCapacity),
		dir:                dir,
		fs:                 opts.FS,
		nowFn:              time.Now,
		CheckpointEvery:    1024,
		AutoVacuumDeadRows: 16384,
	}
	db.nextTx.Store(1)
	db.nextRow.Store(1)
	db.lastTS.Store(baseStamp)
	db.initGovern(opts)
	db.met = newDBMetrics(db)
	rcBytes := int64(resultCacheBytes)
	if db.memBudget > 0 {
		rcBytes = min(rcBytes, db.memBudget/8)
	}
	db.rcache.Store(newResultCache(db, rcBytes))
	if db.fs == nil {
		db.fs = iofault.Disk{}
	}
	if dir == "" {
		return db, nil
	}
	if err := db.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db.replaying = true
	if err := db.loadSnapshotLocked(); err != nil {
		return nil, err
	}
	db.recovery.SnapshotGen = db.gen
	walPath := filepath.Join(dir, "wal.log")
	rep, err := replayWAL(db.fs, walPath)
	if err != nil {
		return nil, err
	}
	db.recovery.WALEpoch = rep.epoch
	db.recovery.Tail = rep.tail.String()
	switch {
	case rep.total == 0:
		// No log (first boot, or clean checkpoint): nothing to decide.
	case rep.hasEpoch && rep.epoch < db.gen:
		// Stale log from before the snapshot's checkpoint: the crash hit
		// between snapshot rename and log rotation. Everything in it is
		// in the snapshot already; replaying would double-apply.
		db.recovery.StaleWAL = true
		if err := db.fs.Truncate(walPath, 0); err != nil {
			return nil, err
		}
		rep = walReplay{}
	case rep.hasEpoch && rep.epoch > db.gen:
		// A log from the future of our snapshot: the snapshot rename
		// reached disk but a previous snapshot is what we read, or the
		// directory was hand-assembled. Either way replaying records
		// that assume a newer base would corrupt silently — refuse.
		return nil, fmt.Errorf("%w: log epoch %d is newer than snapshot generation %d", ErrWALCorrupt, rep.epoch, db.gen)
	case !rep.hasEpoch && rep.goodLen > 0:
		// Pre-epoch log format (or a first frame lost to corruption with
		// the rest intact — replayWAL reports the latter as TailCorrupt
		// only via frame damage, so this arm is the legacy-format one).
		// Replay it against generation 0 snapshots only.
		if db.gen != 0 {
			return nil, fmt.Errorf("%w: log carries no epoch but snapshot is generation %d", ErrWALCorrupt, db.gen)
		}
	}
	if rep.tail == iofault.TailCorrupt {
		if !opts.Salvage {
			return nil, fmt.Errorf("%w: %s in %s (%d of %d bytes recoverable; reopen with the salvage option to accept losing the rest)",
				ErrWALCorrupt, rep.detail, walPath, rep.goodLen, rep.total)
		}
		db.recovery.Salvaged = true
	}
	if rep.goodLen < rep.total {
		// Torn tail (or salvage): drop the bytes past the last intact
		// frame BEFORE reopening for append, so new commits land on the
		// frame boundary. Appending after garbage would strand every
		// later commit behind an unparseable region — silent loss on the
		// next replay.
		db.recovery.TruncatedBytes = rep.total - rep.goodLen
		if err := db.fs.Truncate(walPath, rep.goodLen); err != nil {
			return nil, err
		}
	}
	for _, tx := range rep.committed {
		// Each replayed transaction gets its own commit stamp, in log
		// order — the same order the stamps were allocated before the
		// crash — so post-replay visibility matches pre-crash visibility.
		var refs mvccRefs
		for _, rec := range tx {
			if err := db.applyWALRecord(rec, &refs); err != nil {
				return nil, fmt.Errorf("sqldb: WAL replay: %w", err)
			}
		}
		if !refs.empty() {
			ts := db.lastTS.Load() + 1
			refs.commit(ts)
			db.lastTS.Store(ts)
		}
	}
	db.recovery.ReplayedTx = len(rep.committed)
	db.replaying = false
	wal, err := openWAL(db.fs, walPath, db.gen)
	if err != nil {
		return nil, err
	}
	wal.setMetrics(db.met.walMetrics())
	db.wal = wal
	return db, nil
}

// Recovery reports what crash recovery found when this DB was opened.
func (db *DB) Recovery() RecoveryInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.recovery
}

func (db *DB) applyWALRecord(rec walRecord, refs *mvccRefs) error {
	switch rec.op {
	case walOpDDL:
		return db.applyDDLText(rec.ddl)
	case walOpInsert:
		td, ok := db.data[rec.table]
		if !ok {
			return fmt.Errorf("insert into unknown table %s", rec.table)
		}
		if err := td.checkWidth(rec.row, rec.vals); err != nil {
			return err
		}
		if uint64(rec.row) >= db.nextRow.Load() {
			db.nextRow.Store(uint64(rec.row) + 1)
		}
		return td.insert(rec.row, rec.vals, refs)
	case walOpDelete, walOpUpdate:
		td, ok := db.data[rec.table]
		if !ok {
			return fmt.Errorf("write to unknown table %s", rec.table)
		}
		// The record names its row by id alone: the one place a row is
		// looked up rather than reached through a posting or a scan.
		s, ok := td.slotFor(rec.row)
		if !ok {
			return fmt.Errorf("write to unknown row %d of %s", rec.row, rec.table)
		}
		var err error
		if rec.op == walOpDelete {
			_, err = td.delete(s, refs)
		} else if err = td.checkWidth(rec.row, rec.vals); err == nil {
			_, err = td.update(s, rec.vals, refs)
		}
		return err
	}
	return nil
}

// checkWidth refuses a logged row whose value count is not its table's
// column count. Only a writer bug or a forged file can hold one, and
// the heap and indexes index rows by column position.
func (td *tableData) checkWidth(id rowID, vals []sqltypes.Value) error {
	if len(vals) != len(td.schema.Cols) {
		return fmt.Errorf("row %d of %s has %d values, want %d", id, td.schema.Name, len(vals), len(td.schema.Cols))
	}
	return nil
}

// Close drains in-flight statements, flushes a final checkpoint and
// releases the WAL. The drain is cooperative: Close first broadcasts
// cancellation (new statements are refused with ErrClosed, running
// statements observe the broadcast at their next interrupt checkpoint
// and fail with ErrCanceled), then waits up to CloseGrace for the
// admitted set to finish before proceeding to teardown — at which point
// mu.Lock still serialises with any straggler holding the read lock. A
// poisoned database skips the checkpoint (its durability is already
// suspect; the on-disk state from the last successful fsync is what
// recovery will use) but still releases the log's descriptor. Any
// background vacuum is waited out, and the slow-query log writer is
// flushed and closed, before Close returns.
func (db *DB) Close() error {
	// Stop admission and cancel in-flight statements. Idempotent.
	db.closeOnce.Do(func() {
		db.closingFlag.Store(true)
		close(db.closing)
	})
	drained := make(chan struct{})
	go func() {
		db.stmtWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(db.CloseGrace):
		// A statement ignored the broadcast past the grace period.
		// Teardown proceeds; mu.Lock below is the hard barrier.
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	var cpErr error
	if db.dir != "" && db.poisonErr == nil {
		cpErr = db.checkpointLocked()
	}
	// Always release the descriptor, even when the checkpoint failed —
	// leaking it would hold the old log open across a reopen.
	db.commitMu.Lock()
	err := errors.Join(cpErr, db.wal.close())
	db.commitMu.Unlock()
	db.mu.Unlock()
	// A pending auto-vacuum observes closed under mu.Lock and bails.
	db.vacWG.Wait()
	// Flush and release the slow-query log so buffered trace lines are
	// not lost when the process exits right after Close.
	db.slowMu.Lock()
	if db.slowLog != nil {
		type flusher interface{ Flush() error }
		if f, ok := db.slowLog.(flusher); ok {
			err = errors.Join(err, f.Flush())
		}
		if c, ok := db.slowLog.(io.Closer); ok {
			err = errors.Join(err, c.Close())
		}
		db.slowLog = nil
	}
	db.slowMu.Unlock()
	return err
}

// SetLinkController installs the SQL/MED coordinator. It must be set
// before DATALINK columns with FILE LINK CONTROL are written; without a
// controller such writes are rejected, matching a DBMS with no Data
// Links File Manager configured.
func (db *DB) SetLinkController(lc LinkController) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.linkCtl = lc
}

// SetFullScanOnly disables (on=true) or re-enables index-driven access
// paths for SELECT/UPDATE/DELETE execution. With it on, every statement
// scans the heap and tests its full WHERE; results are identical
// because a path's key range holds every matching row, and exactly
// those when the path is residual-free (see planner.go).
// This is the ablation baseline for BenchmarkAblation_OrderedIndex and
// the oracle the planner property tests compare against. Switching
// flushes the result cache, whose row orders came from the other mode.
func (db *DB) SetFullScanOnly(on bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.fullScanOnly != on {
		db.fullScanOnly = on
		db.flushResultCache()
	}
}

// flushResultCache empties the result cache, if enabled. Called at
// every schema-epoch bump: DDL changes what a statement text means, so
// nothing cached under the old catalogue may be served.
func (db *DB) flushResultCache() {
	if rc := db.rcache.Load(); rc != nil {
		rc.flush()
	}
}

// HeapRowReads reports how many rows have been materialised out of the
// named table's heap since it was created (point gets plus scan
// visits). Access-path introspection: the index-only aggregate tests
// assert a COUNT over an indexed predicate leaves this counter
// untouched, proving the answer came from the index alone.
func (db *DB) HeapRowReads(table string) int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	td, ok := db.data[strings.ToUpper(table)]
	if !ok {
		return 0
	}
	return td.heapReads.Load()
}

// SetClock injects the NOW() clock (tests and simulation).
func (db *DB) SetClock(now func() time.Time) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.nowFn = now
}

// Catalog exposes the live schema catalogue for read-only use (XUIS
// generation, browsing). Callers must not mutate it.
func (db *DB) Catalog() *Catalog {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cat
}

// Checkpoint folds the WAL into a fresh snapshot and truncates the log.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.checkpointLocked()
}

// poisonLocked records a database-level durability failure. Sticky:
// the first cause wins; every later commit and checkpoint reports it.
// Caller holds commitMu.
func (db *DB) poisonLocked(cause error) {
	if db.poisonErr == nil {
		db.poisonErr = fmt.Errorf("%w: %v", ErrPoisoned, cause)
	}
}

// checkpointLocked folds the log into a fresh snapshot at generation
// gen+1, then rotates the log onto the new generation.
//
// Failure handling is zoned by the snapshot rename. Before it, the old
// snapshot+log pair is untouched and the error is plainly retryable.
// From the rename on, the directory may hold the NEW snapshot while the
// live log still declares the OLD epoch — any commit appended to that
// log would be skipped by replay (stale epoch) if the new snapshot is
// what a restart reads. No further commit may be acknowledged, so every
// failure in that window poisons the database; reopening recovers
// cleanly (the epoch check resolves which side of the rename won).
func (db *DB) checkpointLocked() error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.dir == "" {
		return nil
	}
	if db.poisonErr != nil {
		return db.poisonErr
	}
	// Fence the WAL before snapshotting: staged-but-unflushed
	// transactions are visible in memory, and if their flush failed
	// they will be unwound — a snapshot taken first would persist them
	// anyway and resurrect "rolled back" data on restart. A barrier
	// failure therefore aborts the checkpoint.
	if db.wal != nil {
		if err := db.wal.barrier(); err != nil {
			db.poisonLocked(err)
			return fmt.Errorf("sqldb: checkpoint aborted, WAL flush failed: %w", err)
		}
	}
	// Post-barrier every stamp is resolved and (holding mu exclusively)
	// no snapshot is open, so vacuum can fold version chains down to the
	// single current version each — the image the snapshot writer saves.
	for _, td := range db.data {
		td.vacuum()
	}
	renamed, err := db.saveSnapshotLocked(db.gen + 1)
	if err != nil {
		if renamed {
			db.poisonLocked(fmt.Errorf("checkpoint failed after snapshot rename: %v", err))
			return db.poisonErr
		}
		return err
	}
	db.gen++
	// The snapshot for db.gen is durable; rotate the log onto it. The
	// old log is now entirely redundant (its epoch is db.gen-1).
	walPath := filepath.Join(db.dir, "wal.log")
	oldErr := db.wal.close()
	db.wal = nil
	if oldErr != nil {
		db.poisonLocked(fmt.Errorf("closing pre-checkpoint WAL: %v", oldErr))
		return db.poisonErr
	}
	if err := db.fs.Truncate(walPath, 0); err != nil && !iofault.IsNotExist(err) {
		db.poisonLocked(fmt.Errorf("truncating pre-checkpoint WAL: %v", err))
		return db.poisonErr
	}
	wal, err := openWAL(db.fs, walPath, db.gen)
	if err != nil {
		db.poisonLocked(fmt.Errorf("rotating WAL onto generation %d: %v", db.gen, err))
		return db.poisonErr
	}
	wal.setMetrics(db.met.walMetrics())
	db.wal = wal
	db.txSinceCheckpoint = 0
	return nil
}

// Exec parses and executes one statement in autocommit mode. SELECT is
// allowed (the result is discarded); use Query to read rows. The parsed
// statement comes from the plan cache, so hot DML loops (link control,
// archival inserts) skip the lexer and parser after the first call.
func (db *DB) Exec(sql string, args ...sqltypes.Value) (Result, error) {
	st, err := db.preparedStmt(sql)
	if err != nil {
		return Result{}, err
	}
	return st.Exec(args...)
}

// ExecContext is Exec with cooperative cancellation: the statement is
// subject to admission control, the ctx deadline (or the
// SetStatementTimeout default when ctx has none) and per-row
// cancellation checkpoints, returning ErrCanceled/ErrDeadlineExceeded
// when stopped. A DML statement canceled before its WAL frames are
// staged rolls back cleanly; once staged, it commits (see the
// cancellation-boundary notes in govern.go).
func (db *DB) ExecContext(ctx context.Context, sql string, args ...sqltypes.Value) (Result, error) {
	st, err := db.preparedStmt(sql)
	if err != nil {
		return Result{}, err
	}
	return st.ExecContext(ctx, args...)
}

// ExecScript runs a semicolon-separated DDL/DML script, each statement
// autocommitted.
func (db *DB) ExecScript(sql string) error {
	stmts, err := ParseScript(sql)
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		if _, ok := stmt.(*TxStmt); ok {
			return fmt.Errorf("sqldb: transaction control not allowed in scripts")
		}
		db.mu.Lock()
		if db.closed {
			db.mu.Unlock()
			return ErrClosed
		}
		tx := db.newTx()
		_, _, err := db.execStmtLocked(tx, stmt, nil)
		if err != nil {
			rbErr := db.rollbackTx(tx)
			db.mu.Unlock()
			return errors.Join(err, rbErr)
		}
		finish, err := db.commitTx(tx)
		db.mu.Unlock()
		if err != nil {
			return err
		}
		if err := finish(); err != nil {
			return err
		}
	}
	return nil
}

// Query parses and executes a SELECT, returning materialised rows. It
// runs under the shared read lock — concurrent Query calls proceed in
// parallel — and reuses the cached plan when the same SQL text was seen
// before.
func (db *DB) Query(sql string, args ...sqltypes.Value) (*Rows, error) {
	st, err := db.preparedStmt(sql)
	if err != nil {
		return nil, err
	}
	return st.Query(args...)
}

// QueryContext is Query with cooperative cancellation: admission
// control, deadline (ctx's own or the SetStatementTimeout default) and
// per-row checkpoints in every scan, join, sort and fold loop. A
// canceled read leaves no latches held and the database unpoisoned.
func (db *DB) QueryContext(ctx context.Context, sql string, args ...sqltypes.Value) (*Rows, error) {
	st, err := db.preparedStmt(sql)
	if err != nil {
		return nil, err
	}
	return st.QueryContext(ctx, args...)
}

// ---------- transactions ----------

// txState is the in-flight transaction bookkeeping.
type txState struct {
	id       uint64
	refs     mvccRefs // everything this transaction stamped (see storage.go)
	redo     []walRecord
	usedLink bool

	// intr is the owning statement's cancellation checker; nil for
	// internal executions (scripts, replay, explicit Tx). DML row loops
	// poll it so a canceled statement unwinds before its WAL stage.
	intr *interrupt

	// Group-commit fields, set when the transaction's frames are staged
	// in the WAL: its commit sequence and the log it was staged into
	// (checkpoints swap db.wal, so the pointer is captured here).
	seq uint64
	wal *walFile
}

// newTx allocates a transaction. Safe under any mu mode — sharded
// writers holding only the read lock race on the atomic allocator.
func (db *DB) newTx() *txState {
	return &txState{id: db.nextTx.Add(1) - 1}
}

// readSnapshot pins a statement-level snapshot: every transaction whose
// commit stamp was published before the call is visible, everything
// later (and everything in flight) is not.
func (db *DB) readSnapshot() uint64 { return db.lastTS.Load() }

// commitTx stages the transaction's redo records into the WAL's pending
// buffer, allocates its commit stamp and publishes it — all under
// commitMu, so on-disk order, stamp order and visibility order agree —
// and returns a finish function the caller MUST invoke after releasing
// the engine locks. finish blocks until the records are durable:
// concurrent committers batch behind one fsync there (group commit),
// which is why it runs outside the locks. It then runs the link-control
// commit (only after durability, per the LinkController contract), any
// due auto-vacuum and any due checkpoint.
//
// The caller holds mu (read mode for the sharded path, plus the table's
// wmu; write mode for the global paths) across execution AND this call,
// so the stamp is installed before another writer can touch the same
// rows. A staging failure rolls the transaction back immediately and
// returns a nil finish. A flush failure inside finish unwinds the WHOLE
// undurable suffix of staged transactions in reverse commit order under
// a re-acquired exclusive lock (overlapping transactions on the same
// rows must unwind LIFO to restore cleanly); the WAL error is sticky,
// so every transaction in and after the failed batch fails the same way
// rather than diverging from disk. Until finish returns, readers can
// observe the transaction's committed-but-not-yet-durable effects —
// the standard group-commit visibility window.
func (db *DB) commitTx(tx *txState) (func() error, error) {
	db.commitMu.Lock()
	if db.poisonErr != nil {
		perr := db.poisonErr
		db.commitMu.Unlock()
		rbErr := db.rollbackTx(tx)
		return nil, errors.Join(perr, rbErr)
	}
	staged := false
	var observedSeq uint64
	if db.wal != nil {
		if len(tx.redo) > 0 {
			seq, err := db.wal.stageTx(tx.id, tx.redo)
			if err != nil {
				// Durability failed: the in-memory effects must not survive.
				db.commitMu.Unlock()
				rbErr := db.rollbackTx(tx)
				return nil, errors.Join(fmt.Errorf("sqldb: WAL append failed, transaction rolled back: %w", err), rbErr)
			}
			tx.seq = seq
			tx.wal = db.wal
			db.inflight = append(db.inflight, tx)
			staged = true
		} else {
			// Nothing to log, but the transaction's reads may have seen
			// effects of transactions staged ahead of it that are not yet
			// durable (the group-commit visibility window). Its commit
			// depends on that state: a DELETE that matched zero rows
			// because a concurrent not-yet-durable DELETE got there first
			// must not be acknowledged if that earlier flush fails and
			// unwinds. Record the dependency frontier; finish waits on it.
			observedSeq = db.wal.currentSeq()
		}
	}
	// Resolve this transaction's in-flight stamps to a fresh commit
	// stamp, then publish it. Readers pinning a snapshot after the
	// lastTS store see the new versions; open snapshots never do.
	if !tx.refs.empty() {
		ts := db.lastTS.Load() + 1
		tx.refs.commit(ts)
		db.lastTS.Store(ts)
		db.lastCommitWall.Store(time.Now().UnixNano())
	}
	db.met.commits.Inc()
	db.txSinceCheckpoint++
	checkpointDue := db.CheckpointEvery > 0 && db.txSinceCheckpoint >= db.CheckpointEvery
	wal := db.wal
	db.commitMu.Unlock()
	// Result-cache invalidation rides the commit-stamp publish: every
	// entry over a table this transaction touched is dropped. Running
	// after the commitMu release is safe — the per-table lastWrite stamp
	// (stored inside refs.commit above, before lastTS advanced) is the
	// serve-time correctness backstop; this sweep just reclaims memory
	// eagerly. See resultcache.go.
	if rc := db.rcache.Load(); rc != nil && len(tx.refs.touched) > 0 {
		rc.invalidateTables(tx.refs.touched)
	}
	linkCtl := db.linkCtl
	finish := func() error {
		if staged {
			werr := wal.waitDurable(tx.seq)
			if werr != nil {
				// The fsync failed. The kernel may already have dropped
				// the dirty pages it covered, so no retry can be trusted:
				// poison the database and unwind the undurable suffix.
				db.mu.Lock()
				db.commitMu.Lock()
				db.poisonLocked(werr)
				abortErr := db.unwindFailedLocked()
				db.commitMu.Unlock()
				db.mu.Unlock()
				return errors.Join(fmt.Errorf("sqldb: WAL flush failed, transaction rolled back: %w", werr), abortErr)
			}
			db.commitMu.Lock()
			db.dropInflightLocked(tx)
			db.commitMu.Unlock()
		} else if wal != nil && observedSeq > 0 {
			// Empty-redo commit: acknowledge only once the state it could
			// have observed is durable (no-op if nothing is in flight).
			if werr := wal.waitDurable(observedSeq); werr != nil {
				return fmt.Errorf("sqldb: commit depends on a WAL flush that failed: %w", werr)
			}
		}
		if tx.usedLink && linkCtl != nil {
			if err := linkCtl.Commit(tx.id); err != nil {
				// The DB transaction is durable; surface the file-side error
				// but do not undo committed state. Reconciliation at startup
				// repairs divergence (see med.Coordinator.Reconcile).
				return fmt.Errorf("sqldb: transaction committed but link control failed: %w", err)
			}
		}
		db.maybeAutoVacuum()
		if checkpointDue {
			db.mu.Lock()
			defer db.mu.Unlock()
			if db.closed {
				return nil
			}
			// Re-check: a concurrent finisher may have checkpointed first.
			db.commitMu.Lock()
			due := db.CheckpointEvery > 0 && db.txSinceCheckpoint >= db.CheckpointEvery
			db.commitMu.Unlock()
			if !due {
				return nil
			}
			return db.checkpointLocked()
		}
		return nil
	}
	return finish, nil
}

// dropInflightLocked removes a now-durable transaction from the staged
// list. The list is short (bounded by concurrent committers), so a
// linear scan is fine. Caller holds commitMu.
func (db *DB) dropInflightLocked(tx *txState) {
	for i, t := range db.inflight {
		if t == tx {
			db.inflight = append(db.inflight[:i], db.inflight[i+1:]...)
			return
		}
	}
}

// unwindFailedLocked rolls back every staged transaction that did not
// reach disk, newest first, after a WAL flush failure. Reverse commit
// order matters: if T1 inserted a row and T2 deleted it, undoing T2
// (re-insert) before T1 (delete) restores the pre-batch state, while
// arrival-order undo would leave the row dangling. Transactions whose
// sequence is already durable are left for their own finish to retire.
// Idempotent: the first finisher to observe the sticky error unwinds
// the batch; later ones find their transaction already gone. The
// returned error aggregates link-control abort failures from the
// unwound transactions. Caller holds mu exclusively (the stamp flips
// and structural undo must not interleave with sharded writers) plus
// commitMu (inflight).
func (db *DB) unwindFailedLocked() error {
	var durable []*txState
	var abortErrs []error
	for i := len(db.inflight) - 1; i >= 0; i-- {
		tx := db.inflight[i]
		if tx.wal.isDurable(tx.seq) {
			durable = append(durable, tx)
			continue
		}
		if err := db.rollbackTx(tx); err != nil {
			abortErrs = append(abortErrs, err)
		}
	}
	// durable was collected newest-first; restore commit order.
	for i, j := 0, len(durable)-1; i < j; i, j = i+1, j-1 {
		durable[i], durable[j] = durable[j], durable[i]
	}
	db.inflight = durable
	return errors.Join(abortErrs...)
}

// rollbackTx undoes the transaction's in-memory effects — flipping its
// MVCC stamps to the aborted state and reversing structural side
// effects, see mvccRefs.abort — and releases its link-control
// reservations. The caller must own the touched tables' writer slots
// (wmu, or mu exclusively). The returned error never means the database
// rollback failed (stamp flips cannot fail); it reports a link-control
// abort that could not reach a file server, so a staged prepare may
// survive there until the coordinator retries the abort or reconciles.
func (db *DB) rollbackTx(tx *txState) error {
	tx.refs.abort()
	if tx.usedLink && db.linkCtl != nil {
		if err := db.linkCtl.Abort(tx.id); err != nil {
			return fmt.Errorf("sqldb: link-control abort of tx %d failed (file-side reservations may leak until retry/reconcile): %w", tx.id, err)
		}
	}
	return nil
}

// ---------- vacuum ----------

// Vacuum reclaims every dead row version and dead index entry across
// all tables: version chains fold down to the single current committed
// version, index entries ended by committed deletes/updates are removed
// (B+tree nodes merge as they empty). It takes the global barrier — no
// statement is in flight while it runs — and fences the WAL first, so
// no stamp it reclaims can later be unwound.
func (db *DB) Vacuum() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.vacuumLocked()
}

// vacuumLocked is Vacuum under an already-held exclusive mu.
func (db *DB) vacuumLocked() error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.wal != nil {
		if err := db.wal.barrier(); err != nil {
			// Same contract as the checkpoint fence: an fsync failed, the
			// staged suffix will be unwound — reclaiming now would treat
			// soon-to-be-aborted versions as committed.
			db.poisonLocked(err)
			return fmt.Errorf("sqldb: vacuum aborted, WAL flush failed: %w", err)
		}
	}
	start := time.Now()
	var reclaimed int64
	for _, td := range db.data {
		reclaimed += td.dead.Load()
		td.vacuum()
	}
	db.met.vacuumNs.ObserveSince(start)
	db.met.vacuumPass.Inc()
	db.met.vacuumRows.Add(reclaimed)
	return nil
}

// maybeAutoVacuum starts a background vacuum when the dead-version debt
// crosses the configured threshold. At most one runs at a time; it
// serialises with everything else on mu like any maintenance op.
func (db *DB) maybeAutoVacuum() {
	threshold := db.AutoVacuumDeadRows
	if threshold <= 0 || db.vacRunning.Load() {
		return
	}
	var dead int64
	db.mu.RLock()
	for _, td := range db.data {
		dead += td.dead.Load()
	}
	db.mu.RUnlock()
	if dead < threshold || !db.vacRunning.CompareAndSwap(false, true) {
		return
	}
	db.met.autoVacuum.Inc()
	db.vacWG.Add(1)
	go func() {
		defer db.vacWG.Done()
		defer db.vacRunning.Store(false)
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed {
			return
		}
		db.vacuumLocked() //nolint:errcheck // best-effort; sticky errors resurface at commit
	}()
}

// Tx is an explicit transaction. It holds the database lock for its whole
// lifetime (serialisable isolation); Commit or Rollback must be called
// exactly once. Do not use the parent DB from the same goroutine while a
// Tx is open.
type Tx struct {
	db    *DB
	state *txState
	done  bool
}

// Begin starts an explicit transaction.
func (db *DB) Begin() (*Tx, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	return &Tx{db: db, state: db.newTx()}, nil
}

// Exec runs a DML statement inside the transaction. DDL is rejected:
// schema changes are autocommit-only in this engine. The statement comes
// from the plan cache, as DB.Exec's does, so a batch of INSERTs sharing
// one text is parsed once. A SELECT runs as Query does, its result
// discarded.
func (tx *Tx) Exec(sql string, args ...sqltypes.Value) (Result, error) {
	st, err := tx.stmt(sql, errTxDMLOnly)
	if err != nil {
		return Result{}, err
	}
	switch s := st.ast.(type) {
	case *SelectStmt:
		_, err := tx.query(st, s, args)
		return Result{}, err
	case *InsertStmt, *UpdateStmt, *DeleteStmt:
	default:
		return Result{}, errTxDMLOnly
	}
	res, _, err := tx.db.execStmtLocked(tx.state, st.ast, args)
	return res, err
}

// Query runs a SELECT inside the transaction through the plan cache's
// bound plan. It reads in latest-mode visibility, so it sees the
// transaction's own uncommitted writes.
func (tx *Tx) Query(sql string, args ...sqltypes.Value) (*Rows, error) {
	st, err := tx.stmt(sql, errNotSelect)
	if err != nil {
		return nil, err
	}
	sel, ok := st.ast.(*SelectStmt)
	if !ok {
		return nil, errNotSelect
	}
	return tx.query(st, sel, args)
}

// stmt returns the cached statement for sql; transaction-control text
// fails with notAllowed, the caller's error for any statement it
// cannot run.
func (tx *Tx) stmt(sql string, notAllowed error) (*Stmt, error) {
	if tx.done {
		return nil, fmt.Errorf("sqldb: transaction already finished")
	}
	st, err := tx.db.preparedStmt(sql)
	if errors.Is(err, errTxControl) {
		return nil, notAllowed
	}
	return st, err
}

// query runs a SELECT's bound plan at snapLatest. The transaction holds
// db.mu exclusively, which keeps this plan build serialised with every
// other binding of the shared AST.
func (tx *Tx) query(st *Stmt, sel *SelectStmt, args []sqltypes.Value) (*Rows, error) {
	plan, err := st.selectPlanLocked(sel)
	if err != nil {
		return nil, err
	}
	return tx.db.runSelectAt(plan, args, snapLatest, nil, tx.state.intr)
}

// Commit makes the transaction durable and releases the lock. The
// fsync (batched with concurrent committers — see commitLocked) happens
// after the lock is released, so readers and other writers proceed
// while this transaction's records reach disk.
func (tx *Tx) Commit() error {
	if tx.done {
		return fmt.Errorf("sqldb: transaction already finished")
	}
	tx.done = true
	finish, err := tx.db.commitTx(tx.state)
	tx.db.mu.Unlock()
	if err != nil {
		return err
	}
	return finish()
}

// Rollback undoes the transaction and releases the lock. A non-nil
// error reports a link-control abort that could not reach its file
// server (the database rollback itself cannot fail).
func (tx *Tx) Rollback() error {
	if tx.done {
		return nil
	}
	tx.done = true
	err := tx.db.rollbackTx(tx.state)
	tx.db.mu.Unlock()
	return err
}

// applyDDLText re-executes logged DDL during snapshot/WAL replay. Only
// the four statements that write the DDL log may appear in it.
func (db *DB) applyDDLText(sql string) error {
	stmt, err := Parse(sql)
	if err != nil {
		return err
	}
	switch stmt.(type) {
	case *CreateTableStmt, *DropTableStmt, *CreateIndexStmt, *DropIndexStmt:
	default:
		return fmt.Errorf("sqldb: %q is not DDL", sql)
	}
	tx := &txState{} // replay: no WAL, no link control
	_, _, err = db.execStmtLocked(tx, stmt, nil)
	return err
}
