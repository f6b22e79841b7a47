package sqldb

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"

	"repro/internal/iofault"
	"repro/internal/sqltypes"
)

// Write-ahead logging and snapshot persistence.
//
// On-disk layout inside the database directory:
//
//	snapshot.db — full image: header + DDL log + heaps + counters,
//	              whole-file CRC32 trailer, rotated by
//	              tmp + fsync + rename + dir-fsync
//	wal.log     — redo records for transactions committed since the
//	              last checkpoint
//
// Every WAL record is one iofault frame (length | crc32 | payload; the
// link registry of internal/dlfs shares the framing and the scan). The
// first frame of every log is an epoch frame naming the checkpoint
// generation the log applies on top of; replay ignores a log whose
// epoch does not match the snapshot's generation (a crash between the
// snapshot rename and the log rotation leaves exactly that stale log
// behind, already folded into the snapshot).
//
// Replay classifies the log tail instead of silently stopping at the
// first bad frame (iofault.ScanFrames): an incomplete final frame is
// the signature of a crash mid-append and is truncated away, while a
// bad frame with intact frames AFTER it proves mid-log corruption of
// data that was once durable — that refuses to open rather than
// silently dropping committed transactions.

const (
	walOpBegin  = byte(1)
	walOpCommit = byte(2)
	walOpInsert = byte(3)
	walOpDelete = byte(4)
	walOpUpdate = byte(5)
	walOpDDL    = byte(6)
	// walOpEpoch is the log-header frame; its txID slot carries the
	// checkpoint generation this log applies on top of.
	walOpEpoch = byte(7)
)

// walRecord is one redo record, buffered per transaction and written at
// commit.
type walRecord struct {
	op    byte
	table string
	row   rowID
	vals  []sqltypes.Value // insert: new row; update: new row
	ddl   string
}

// Group commit parameters: a leader briefly waits for straggling
// committers before draining the pending buffer (skipped once enough
// transactions are queued), so concurrent commits share one fsync.
const (
	groupCommitWindow  = 50 * time.Microsecond
	groupCommitMaxTxns = 32
)

// walFile is the append-only log writer with group commit.
//
// Committers stage their frames under the engine's writer lock
// (stageTx: pure memory append, commit order = log order), then release
// the engine lock and block in waitDurable. The first waiter becomes
// the flush leader: it drains the whole pending buffer — its own frames
// plus those of every transaction staged meanwhile — with one write and
// one Sync; the rest just wait for their sequence to become durable.
// Under concurrent commit load this turns N fsyncs into roughly one per
// fsync latency window.
//
// A write or sync failure is sticky and wraps ErrPoisoned: once an
// fsync has failed, the kernel may already have dropped the dirty pages
// it covered, so a retry that "succeeds" proves nothing — the log is
// poisoned, every in-flight and subsequent commit fails, and callers
// roll their in-memory effects back, so acknowledged state never
// diverges further from disk.
type walFile struct {
	mu       sync.Mutex
	cond     *sync.Cond
	f        iofault.File
	fs       iofault.FS
	path     string
	pending  []byte // staged frames not yet written
	enc      []byte // one record's payload, reused by every stage
	nPending int    // staged transactions in pending
	seq      uint64 // last staged commit sequence
	durable  uint64 // highest sequence known fsynced
	// durableBytes is the log length at the last successful fsync. On a
	// flush failure the file is truncated back to it: the failed batch's
	// transactions are rolled back and reported failed, so their frames
	// must not sit in the log where a later replay would resurrect them.
	durableBytes int64
	flushing     bool  // a leader is draining/syncing
	waiters      int   // committers inside waitDurable
	flushes      int   // completed flush batches (observability/tests)
	err          error // sticky write/sync failure (wraps ErrPoisoned)

	met walMetrics // nil-safe handles; zero value records nothing
	// lastBatch is the transaction count of the most recent flush batch,
	// read by execution traces to report the group-commit batch a
	// statement's fsync rode in (atomic: readers don't take w.mu).
	lastBatch atomic.Int64
}

// walMetrics is the handle set the WAL writer records into. All fields
// are nil-safe telemetry handles, so an unmetered walFile (zero value)
// pays only a nil check per flush.
type walMetrics struct {
	fsyncNs *telemetry.Histogram // write+fsync latency per flush
	batch   *telemetry.Histogram // transactions drained per flush
	poison  *telemetry.Counter   // flush failures that poisoned the log
}

// setMetrics attaches metric handles; called once right after openWAL
// (and after checkpoint rotation), before the log accepts commits.
func (w *walFile) setMetrics(m walMetrics) {
	w.mu.Lock()
	w.met = m
	w.mu.Unlock()
}

// frameBytes wraps payload in the length|crc frame header.
func frameBytes(payload []byte) []byte { return iofault.AppendFrame(nil, payload) }

// openWAL opens the log for appending, stamping a fresh (empty) log
// with an epoch frame for the given checkpoint generation — synced
// before any commit can stage, so a log on disk always declares what
// snapshot it applies to.
func openWAL(fs iofault.FS, path string, epoch uint64) (*walFile, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := fi.Size()
	if size == 0 {
		payload, _ := appendWALRecord(nil, walRecord{op: walOpEpoch}, epoch) // carries no values: cannot fail
		frame := frameBytes(payload)
		if _, err := f.Write(frame); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		size = int64(len(frame))
	}
	w := &walFile{f: f, fs: fs, path: path, durableBytes: size}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// close flushes everything staged, then closes the file. The file is
// closed even when the flush fails (callers in crash tests must not
// leak descriptors). A sticky poison error is NOT re-reported here: it
// already failed every commit it affected, and close's remaining job is
// only to release the descriptor.
func (w *walFile) close() error {
	if w == nil || w.f == nil {
		return nil
	}
	err := w.barrier()
	cerr := w.f.Close()
	if err != nil && !errors.Is(err, ErrPoisoned) {
		return err
	}
	return cerr
}

// poisoned reports the sticky failure, if any.
func (w *walFile) poisoned() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// stageTx appends BEGIN, the records and COMMIT to the pending buffer
// and returns the transaction's commit sequence for waitDurable. Called
// in commit order (DB.commitMu serialises committers, sharded and
// global alike), so on-disk order always matches in-memory commit-stamp
// order. No I/O here, and no allocation once the buffers have grown:
// each record is encoded into w.enc and framed into w.pending. A record
// that fails to encode stages nothing of its transaction.
func (w *walFile) stageTx(txID uint64, recs []walRecord) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	mark := len(w.pending)
	err := w.stageLocked(walRecord{op: walOpBegin}, txID)
	for i := 0; i < len(recs) && err == nil; i++ {
		err = w.stageLocked(recs[i], txID)
	}
	if err == nil {
		err = w.stageLocked(walRecord{op: walOpCommit}, txID)
	}
	if err != nil {
		w.pending = w.pending[:mark]
		return 0, err
	}
	w.nPending++
	w.seq++
	return w.seq, nil
}

// stageLocked frames one record onto the pending buffer; w.mu is held.
func (w *walFile) stageLocked(r walRecord, txID uint64) error {
	var err error
	if w.enc, err = appendWALRecord(w.enc[:0], r, txID); err != nil {
		return err
	}
	w.pending = iofault.AppendFrame(w.pending, w.enc)
	return nil
}

// waitDurable blocks until every staged sequence up to seq is on disk.
// The transaction is durable once it returns nil.
func (w *walFile) waitDurable(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waiters++
	defer func() { w.waiters-- }()
	for {
		if w.durable >= seq {
			return nil // our frames hit disk, even if a later flush failed
		}
		if w.err != nil {
			return w.err
		}
		if w.flushing {
			w.cond.Wait()
			continue
		}
		w.flushLocked()
	}
}

// currentSeq reports the latest staged commit sequence. A transaction
// that stages nothing itself still commits "after" everything staged so
// far — waiting on this sequence before acknowledging makes its commit
// dependency on that state explicit.
func (w *walFile) currentSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// isDurable reports whether the given commit sequence has been fsynced.
func (w *walFile) isDurable(seq uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return seq <= w.durable
}

// barrier flushes everything staged so far (checkpoint/close fence).
func (w *walFile) barrier() error {
	w.mu.Lock()
	seq := w.seq
	w.mu.Unlock()
	return w.waitDurable(seq)
}

// flushLocked elects the caller leader, drains the pending buffer and
// syncs once. Called with w.mu held; the lock is released around the
// straggler window and the file I/O.
func (w *walFile) flushLocked() {
	w.flushing = true
	if (w.nPending > 1 || w.waiters > 1) && w.nPending < groupCommitMaxTxns {
		// Company detected (another staged transaction or another
		// waiter): give concurrently-committing transactions a moment
		// to stage their frames into this flush. A lone serial
		// committer skips the window — it would be pure added latency.
		w.mu.Unlock()
		time.Sleep(groupCommitWindow)
		w.mu.Lock()
	}
	data := append([]byte(nil), w.pending...)
	target := w.seq
	batch := w.nPending
	met := w.met
	w.pending = w.pending[:0]
	w.nPending = 0
	w.mu.Unlock()

	var err error
	if len(data) > 0 {
		start := time.Now()
		if _, werr := w.f.Write(data); werr != nil {
			err = werr
		} else {
			err = w.f.Sync()
		}
		met.fsyncNs.ObserveSince(start)
		met.batch.Observe(int64(batch))
		w.lastBatch.Store(int64(batch))
	}

	w.mu.Lock()
	if err != nil && w.err == nil {
		met.poison.Inc()
		w.err = fmt.Errorf("%w: %v", ErrPoisoned, err)
		// The batch's transactions will be rolled back and reported
		// failed, but their frames may have physically reached the file
		// (a write that stuck with only the fsync failing). Cut the log
		// back to its last-synced length so a later replay cannot
		// resurrect transactions the application was told failed.
		// Best-effort: if this fails too the log is at worst torn past
		// durableBytes, which replay already handles.
		w.fs.Truncate(w.path, w.durableBytes) //nolint:errcheck
	}
	if err == nil && target > w.durable {
		w.durable = target
		w.durableBytes += int64(len(data))
	}
	w.flushes++
	w.flushing = false
	w.cond.Broadcast()
}

func putUint32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func appendWALRecord(b []byte, r walRecord, txID uint64) ([]byte, error) {
	b = appendUint64(append(b, r.op), txID)
	switch r.op {
	case walOpInsert, walOpUpdate:
		b = appendUint64(appendString(b, r.table), uint64(r.row))
		return appendRow(b, r.vals)
	case walOpDelete:
		b = appendUint64(appendString(b, r.table), uint64(r.row))
	case walOpDDL:
		b = appendString(b, r.ddl)
	}
	return b, nil
}

// decodeWALRecord parses one record payload, returning the record and
// its transaction id (the checkpoint generation, for an epoch record).
func decodeWALRecord(payload []byte) (walRecord, uint64, error) {
	d := decoder{b: payload}
	r := walRecord{op: d.uint8()}
	txID := d.uint64()
	switch r.op {
	case walOpInsert, walOpUpdate:
		r.table = d.string()
		r.row = rowID(d.uint64())
		r.vals = d.row()
	case walOpDelete:
		r.table = d.string()
		r.row = rowID(d.uint64())
	case walOpDDL:
		r.ddl = d.string()
	case walOpBegin, walOpCommit, walOpEpoch:
	default:
		d.fail(fmt.Errorf("sqldb: corrupt WAL op %d", r.op))
	}
	return r, txID, d.err
}

// ---------- replay ----------

// walFrame is one decoded frame: the record and the transaction (or,
// for the epoch frame, the checkpoint generation) it belongs to.
type walFrame struct {
	rec  walRecord
	txID uint64
}

func decodeWALFrame(payload []byte) (walFrame, error) {
	rec, txID, err := decodeWALRecord(payload)
	return walFrame{rec, txID}, err
}

// walReplay is the parsed state of one log file.
type walReplay struct {
	committed [][]walRecord // committed transactions, commit order
	epoch     uint64        // checkpoint generation from the epoch frame
	hasEpoch  bool
	goodLen   int64 // byte offset past the last intact frame
	total     int64 // file length
	tail      iofault.Tail
	detail    string // human-readable corruption description
}

// replayWAL parses the log, returning the committed transactions in
// commit order, the epoch, and the tail classification. It never
// mutates the file; the caller decides whether to truncate (torn) or
// refuse (corrupt, unless salvaging).
func replayWAL(fs iofault.FS, path string) (walReplay, error) {
	rep := walReplay{}
	data, err := iofault.ReadFile(fs, path)
	if iofault.IsNotExist(err) {
		return rep, nil
	}
	if err != nil {
		return rep, err
	}
	scan := iofault.ScanFrames(data, decodeWALFrame)
	rep.total = int64(len(data))
	rep.goodLen, rep.tail, rep.detail = scan.GoodLen, scan.Tail, scan.Detail
	pending := map[uint64][]walRecord{}
	for i, fr := range scan.Records {
		switch fr.rec.op {
		case walOpEpoch:
			// Only the log-header frame counts; a stray epoch frame
			// mid-log (never written by this engine) is ignored.
			if i == 0 {
				rep.epoch, rep.hasEpoch = fr.txID, true
			}
		case walOpBegin:
			pending[fr.txID] = nil
		case walOpCommit:
			rep.committed = append(rep.committed, pending[fr.txID])
			delete(pending, fr.txID)
		default:
			pending[fr.txID] = append(pending[fr.txID], fr.rec)
		}
	}
	return rep, nil
}

// ---------- snapshot ----------

// snapshotMagic identifies the checksummed v2 snapshot format:
//
//	"EASIADB2" | gen | nextTx | nextRow | DDL log | heaps | crc32
//
// where the trailing CRC32 (IEEE) covers every preceding byte. Loading
// verifies the checksum before trusting a single field; a mismatch
// refuses the open with ErrSnapshotCorrupt — a half-written or
// bit-rotted snapshot must never be silently half-applied.
const (
	snapshotMagic       = "EASIADB2"
	snapshotMagicLegacy = "EASIADB1"
)

// snapshotChunk is how many encoded bytes the snapshot writer gathers
// before handing them to the file.
const snapshotChunk = 1 << 16

// saveSnapshotLocked writes the complete database image for checkpoint
// generation gen, durably: tmp file + whole-file checksum + fsync +
// rename + parent-dir fsync.
//
// The returned renamed flag reports whether the rename was issued: a
// failure before it leaves the old snapshot fully intact (the
// checkpoint can simply be retried), while a failure after it means the
// directory now holds a snapshot newer than the live WAL's epoch — the
// caller must poison the database, because committing into the old log
// after that point would strand acknowledged transactions in a log
// replay will rightly skip.
func (db *DB) saveSnapshotLocked(gen uint64) (renamed bool, err error) {
	if db.dir == "" {
		return false, nil
	}
	tmp := filepath.Join(db.dir, "snapshot.tmp")
	f, err := iofault.Create(db.fs, tmp)
	if err != nil {
		return false, err
	}
	cleanup := func(werr error) (bool, error) {
		f.Close()
		db.fs.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return false, werr
	}
	// The image is encoded into buf; drain adds buf to the running
	// checksum and writes it out once it holds at least min bytes.
	var sum uint32
	buf := make([]byte, 0, 2*snapshotChunk)
	drain := func(min int) error {
		if len(buf) < min {
			return nil
		}
		sum = crc32.Update(sum, crc32.IEEETable, buf)
		_, err := f.Write(buf)
		buf = buf[:0]
		return err
	}
	buf = append(buf, snapshotMagic...)
	buf = appendUint64(buf, gen)
	buf = appendUint64(buf, db.nextTx.Load())
	buf = appendUint64(buf, db.nextRow.Load())
	// DDL log: replaying it rebuilds catalogue + indexes.
	buf = appendUint64(buf, uint64(len(db.ddlLog)))
	for _, ddl := range db.ddlLog {
		buf = appendString(buf, ddl)
	}
	// Heaps.
	names := db.cat.TableNames()
	buf = appendUint64(buf, uint64(len(names)))
	for _, name := range names {
		td := db.data[name]
		buf = appendString(buf, name)
		// Under the checkpoint barrier every stamp is resolved, so the
		// latest-mode count equals the number of rows the scan writes.
		buf = appendUint64(buf, uint64(td.live.Load()))
		var werr error
		td.scan(snapLatest, func(s *rowSlot, vals []sqltypes.Value) bool {
			if buf, werr = appendRow(appendUint64(buf, uint64(s.id)), vals); werr == nil {
				werr = drain(snapshotChunk)
			}
			return werr == nil
		})
		if werr != nil {
			return cleanup(werr)
		}
	}
	if err := drain(1); err != nil {
		return cleanup(err)
	}
	var tail [4]byte
	putUint32(tail[:], sum)
	if _, err := f.Write(tail[:]); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		db.fs.Remove(tmp) //nolint:errcheck
		return false, err
	}
	if err := db.fs.Rename(tmp, filepath.Join(db.dir, "snapshot.db")); err != nil {
		db.fs.Remove(tmp) //nolint:errcheck
		return false, err
	}
	// Make the rename durable. Past this point (including on failure)
	// the new snapshot may be what a restart sees.
	if err := db.fs.SyncDir(db.dir); err != nil {
		return true, err
	}
	return true, nil
}

// loadSnapshotLocked restores the database image; a missing snapshot is
// a clean first boot. The whole-file checksum is verified before any
// field is trusted; failure refuses the open with ErrSnapshotCorrupt.
func (db *DB) loadSnapshotLocked() error {
	path := filepath.Join(db.dir, "snapshot.db")
	data, err := iofault.ReadFile(db.fs, path)
	if iofault.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(data) >= len(snapshotMagicLegacy) && string(data[:len(snapshotMagicLegacy)]) == snapshotMagicLegacy {
		return fmt.Errorf("%w: %s is a legacy pre-checksum snapshot (re-create the archive or checkpoint with the old binary first)", ErrSnapshotCorrupt, path)
	}
	if len(data) < len(snapshotMagic)+4 || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return fmt.Errorf("%w: %s is not a database snapshot", ErrSnapshotCorrupt, path)
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != getUint32(data[len(data)-4:]) {
		return fmt.Errorf("%w: %s fails its whole-file checksum", ErrSnapshotCorrupt, path)
	}
	d := decoder{b: body[len(snapshotMagic):]}
	corrupt := func(format string, args ...any) error {
		// The checksum passed, so a parse failure means a writer bug or
		// memory corruption — still refuse, still typed.
		return fmt.Errorf("%w: %s: %s", ErrSnapshotCorrupt, path, fmt.Sprintf(format, args...))
	}
	gen, nt, nr := d.uint64(), d.uint64(), d.uint64()
	nDDL := d.uint64()
	if d.err != nil {
		return corrupt("%v", d.err)
	}
	db.gen = gen
	db.nextTx.Store(nt)
	db.nextRow.Store(nr)
	for i := uint64(0); i < nDDL; i++ {
		ddl := d.string()
		if d.err != nil {
			return corrupt("%v", d.err)
		}
		if err := db.applyDDLText(ddl); err != nil {
			return fmt.Errorf("sqldb: snapshot DDL replay: %w", err)
		}
	}
	// Snapshot rows all collapse to one commit stamp, baseStamp: visible
	// to every reader, ordered before everything the WAL replays on top.
	var refs mvccRefs
	for i, nTables := uint64(0), d.uint64(); i < nTables; i++ {
		name, nRows := d.string(), d.uint64()
		if d.err != nil {
			return corrupt("%v", d.err)
		}
		td, ok := db.data[name]
		if !ok {
			return corrupt("heap for unknown table %s", name)
		}
		for j := uint64(0); j < nRows; j++ {
			id, vals := d.uint64(), d.row()
			if d.err != nil {
				return corrupt("%v", d.err)
			}
			if err := td.checkWidth(rowID(id), vals); err != nil {
				return corrupt("%v", err)
			}
			if err := td.insert(rowID(id), vals, &refs); err != nil {
				return corrupt("row replay: %v", err)
			}
		}
	}
	if d.err != nil {
		return corrupt("%v", d.err)
	}
	if len(d.b) > 0 {
		return corrupt("%d bytes after the last heap", len(d.b))
	}
	if !refs.empty() {
		refs.commit(baseStamp)
	}
	return nil
}
