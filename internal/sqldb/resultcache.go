package sqldb

import (
	"container/list"
	"encoding/binary"
	"hash/maphash"
	"math"
	"sync"
	"unsafe"

	"repro/internal/sqltypes"
)

// Query result cache.
//
// The archive workload the paper describes is dominated by a small set
// of hot metadata queries repeated over and over between rare ingests
// (Graywulf makes the same observation for scientific result sets). The
// result cache serves those repeats from completed, size-capped result
// sets instead of re-executing the statement. Every database opens with
// it armed; it is consulted only on the auto-commit Stmt.query path
// (explicit transactions and scripts run in latest-mode visibility,
// which must observe the transaction's own writes).
//
// Identity: an entry is keyed by statement text + an exact encoding of
// its bound arguments (appendArgKey). The identity is exact on purpose: a
// hit is replayed with no residual check, so `SELECT v, ?` bound to
// INTEGER 1 and to DOUBLE 1 must be two entries, unlike the index key
// encoding, which folds equal-comparing numerics together. Plans
// containing volatile functions (NOW / CURRENT_TIMESTAMP) are never
// cached (selectPlan.cacheable).
//
// Admission (TinyLFU-style): a completed miss fills only on a repeat
// that would have hit — a direct-mapped doorkeeper must hold the same
// key hash at the same source-table write stamp — so one-off statements
// and statements over tables written between sightings never pay for a
// copy. On a full cache the candidate's sighting count must also beat
// the frequency (count at admission + hits) of every entry it would
// evict, decided before anything is copied. Counts and frequencies
// halve every doorkeeperAging sightings; declines are counted by reason.
//
// Sharing: an entry holds one *Rows built at fill (Columns, Kinds, and
// the filling result's rows: its own Data when no arena backs them — a
// stored-order projection's rows are the stored versions — else row
// headers over one flat slab copied out of the arena); a hit
// is a shallow copy of it. Rows from Query are read-only (see Rows).
//
// Visibility contract (why a hit can never be a stale read): an entry
// records asOf — the snapshot the filling statement executed at — and
// each source table carries lastWrite, the newest commit stamp that
// wrote it. Both lastWrite and the global lastTS are published under
// DB.commitMu, lastWrite first (mvccRefs.commit). A lookup at snapshot
// snap serves an entry only when
//
//	ent.epoch == current schema epoch   (no DDL in between)
//	snap >= ent.asOf                    (the reader is no older)
//	every table's lastWrite <= ent.asOf (no write since the fill)
//
// Suppose a commit with stamp ts <= snap changed a source table. Its
// lastWrite >= ts was stored before lastTS advanced to ts, and snap >=
// ts was read after; so at serve time lastWrite > ent.asOf is observed
// and the entry is rejected. Writes newer than snap can only cause
// false-negative rejections — never a wrong hit. The commit hook
// (commitTx) additionally drops entries over written tables eagerly;
// that sweep reclaims memory but the serve-time check above is the
// correctness backstop, so its timing (after commitMu is released) is
// not load-bearing. DDL flushes the whole cache (flushResultCache at
// every schema-epoch bump) and the epoch check rejects any straggler.
//
// Memory: capacity is resultCacheBytes. An entry is charged what it
// holds on the heap (entryBytes). A stored-order entry is charged its
// overhead, key and row headers alone: its rows are stored versions,
// which storage holds until a write supersedes them, and the fill
// declines, or the write's commit drops the entry, first — so no entry
// is ever the last holder of a version.
//
// Locking: mu is a leaf lock — taken under db.mu read sections (the
// lookup and fill paths) and after commitMu is released (the
// invalidation hook), never around either.

const (
	// resultCacheBytes is the capacity: room for the hot metadata
	// answers, small beside the engine's resident heap.
	resultCacheBytes = 512 << 10
	// resultCacheMaxRows caps cached result sets by row count: the cache
	// targets the hot small browse queries, not bulk exports.
	resultCacheMaxRows = 1024
	// resultCacheEntryDivisor caps one entry at capacity/divisor bytes,
	// so a single large result cannot monopolise the cache.
	resultCacheEntryDivisor = 4
	doorkeeperSlots         = 4096 // direct-mapped; a power of two
	doorkeeperAging         = 8 * doorkeeperSlots
	// entryOverhead is an entry's heap cost beyond its values, row
	// headers, payloads and key: the entry, list element, Rows header
	// and map slots.
	entryOverhead = 368
)

// Decline reasons (the reason label of sqldb_result_cache_declines_total).
const (
	declineFirstSighting = iota
	declineStampMoved
	declineColder
	declineOversize
)

var declineReasons = [...]string{"first_sighting", "stamp_moved", "colder_than_victim", "oversize"}

// cacheEntry is one cached result set.
type cacheEntry struct {
	key  string // stmt text + exact arg encoding
	hash uint64
	rows *Rows // shared by every hit; never written after fill

	bytes  int64
	freq   uint32 // sightings at admission + hits
	asOf   uint64 // snapshot the filling statement executed at
	epoch  uint64 // schema epoch at fill time
	tables []*tableData

	elem *list.Element
}

// sighting is one doorkeeper slot.
type sighting struct {
	hash, stamp uint64
	count       uint32
}

// cacheProbe carries a miss's identity hash and source-table stamp from
// lookup to fill.
type cacheProbe struct{ hash, stamp uint64 }

// resultCache is the admission-filtered, epoch- and table-version-
// invalidated LRU.
type resultCache struct {
	db   *DB
	seed maphash.Seed

	mu       sync.Mutex
	capBytes int64
	used     int64
	order    *list.List // front = most recently used; values are *cacheEntry
	entries  map[uint64]*cacheEntry
	// byTable indexes entries by source table so the commit hook drops
	// O(affected) entries, not O(cache).
	byTable map[*tableData]map[*cacheEntry]struct{}

	door      [doorkeeperSlots]sighting
	sightings int
}

func newResultCache(db *DB, capBytes int64) *resultCache {
	return &resultCache{
		db:       db,
		seed:     maphash.MakeSeed(),
		capBytes: capBytes,
		order:    list.New(),
		entries:  make(map[uint64]*cacheEntry),
		byTable:  make(map[*tableData]map[*cacheEntry]struct{}),
	}
}

// appendArgKey appends the exact encoding of bound arguments: each is
// its kind byte and an exact, self-delimiting payload. Unlike the index
// key encoding (key.go), INTEGER 1 and DOUBLE 1 stay distinct; −0/+0
// and NaN payloads too, because a spurious miss is harmless and a
// spurious hit is not.
func appendArgKey(b []byte, args []sqltypes.Value) []byte {
	for _, v := range args {
		b = append(b, byte(v.Kind()))
		switch v.Kind() {
		case sqltypes.KindInt:
			b = binary.BigEndian.AppendUint64(b, uint64(v.Int()))
		case sqltypes.KindDouble:
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.Double()))
		case sqltypes.KindBool:
			if v.Bool() {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		case sqltypes.KindTime:
			t := v.Time()
			b = binary.BigEndian.AppendUint64(b, uint64(t.Unix()))
			b = binary.BigEndian.AppendUint32(b, uint32(t.Nanosecond()))
		case sqltypes.KindString, sqltypes.KindClob, sqltypes.KindDatalink:
			b = binary.AppendUvarint(b, uint64(len(v.Str())))
			b = append(b, v.Str()...)
		case sqltypes.KindBytes:
			b = binary.AppendUvarint(b, uint64(len(v.Bytes())))
			b = append(b, v.Bytes()...)
		}
	}
	return b
}

// keyIs reports whether key is an entry's identity for a statement text
// and its argument encoding — text + "\x00" + argKey — without building
// the latter.
func keyIs(key, text string, argKey []byte) bool {
	n := len(text)
	return len(key) == n+1+len(argKey) && key[:n] == text && key[n] == 0 && key[n+1:] == string(argKey)
}

// lookup returns the cached result for the statement at (epoch, snap),
// or nil and the probe its fill needs. A hit is a shallow copy of the
// entry's shared Rows. Entries that fail the epoch or table-version
// check are dropped (they can never be served again); entries merely
// newer than the caller's snapshot are kept for newer readers. Counts a
// hit or miss on the metrics. A miss allocates nothing.
func (rc *resultCache) lookup(text string, args []sqltypes.Value, plan *selectPlan, epoch, snap uint64) (*Rows, cacheProbe) {
	var buf [64]byte
	argKey := appendArgKey(buf[:0], args)
	var h maphash.Hash
	h.SetSeed(rc.seed)
	h.WriteString(text)
	h.Write(argKey)
	p := cacheProbe{hash: h.Sum64()}
	for _, t := range plan.tables {
		p.stamp = max(p.stamp, t.data.lastWrite.Load())
	}
	rc.mu.Lock()
	ent := rc.entries[p.hash]
	if ent == nil || !keyIs(ent.key, text, argKey) || snap < ent.asOf {
		// Absent, or (snap < asOf) a reader older than the fill —
		// possible only through exotic snapshot pinning: not served, not
		// evicted.
		rc.mu.Unlock()
		rc.db.met.rcMisses.Inc()
		return nil, p
	}
	// Stale when DDL raced the flush, or a source table was written since
	// the fill (snapshots only move forward: no reader can use it again).
	stale := ent.epoch != epoch
	for _, td := range ent.tables {
		stale = stale || td.lastWrite.Load() > ent.asOf
	}
	if stale {
		rc.removeLocked(ent)
		rc.mu.Unlock()
		rc.db.met.rcInvalidations.Inc()
		rc.db.met.rcMisses.Inc()
		return nil, p
	}
	rc.order.MoveToFront(ent.elem)
	ent.freq++
	out := *ent.rows
	rc.mu.Unlock()
	rc.db.met.rcHits.Inc()
	return &out, p
}

// entryBytes is what an entry holding rows under a keyLen-byte key keeps
// on the heap: its overhead, key and row headers, and, unless the rows
// are stored versions (stored), their values and string payloads.
// Stored versions are storage's until a write supersedes them, and that
// write's commit drops the entry, so they are never the entry's alone.
func entryBytes(rows *Rows, keyLen int, stored bool) int64 {
	const (
		rowHeaderBytes = int64(unsafe.Sizeof([]sqltypes.Value(nil)))
		valueBytes     = int64(unsafe.Sizeof(sqltypes.Value{}))
	)
	b := int64(entryOverhead+keyLen) + rowHeaderBytes*int64(len(rows.Data))
	if stored {
		return b
	}
	for _, r := range rows.Data {
		b += valueBytes * int64(len(r))
		for _, v := range r {
			switch v.Kind() {
			case sqltypes.KindString, sqltypes.KindClob, sqltypes.KindDatalink, sqltypes.KindBytes:
				b += int64(v.Size())
			}
		}
	}
	return b
}

// fill offers a completed miss's result to the cache: admitted only past
// the row cap, the doorkeeper, the byte cap and the victim comparison,
// all decided before anything is copied. A decline
// is silent to the caller: the statement already succeeded.
func (rc *resultCache) fill(p cacheProbe, text string, args []sqltypes.Value, plan *selectPlan, rows *Rows, asOf, epoch uint64) {
	if len(rows.Data) > resultCacheMaxRows {
		rc.decline(declineOversize)
		return
	}
	var buf [64]byte
	argKey := appendArgKey(buf[:0], args)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	count, reason := rc.sight(p)
	// A source table written after the snapshot — before the lookup, or
	// since (read under mu, which the commit's invalidation sweep takes
	// after publishing lastWrite) — would make the entry stale on arrival
	// and, for stored rows, the last holder of versions storage let go.
	for _, t := range plan.tables {
		if t.data.lastWrite.Load() > asOf {
			count, reason = 0, declineStampMoved
		}
	}
	if count == 0 {
		rc.decline(reason)
		return
	}
	stored := plan.storedRows && rows.arena == nil
	bytes := entryBytes(rows, len(text)+1+len(argKey), stored)
	if bytes > rc.capBytes/resultCacheEntryDivisor {
		rc.decline(declineOversize)
		return
	}
	// The victims, LRU first, until the candidate fits: every one must
	// be colder than it.
	freed := rc.capBytes - rc.used
	for el := rc.order.Back(); freed < bytes && el != nil; el = el.Prev() {
		v := el.Value.(*cacheEntry)
		if v.freq >= count {
			rc.decline(declineColder)
			return
		}
		freed += v.bytes
	}
	key := text + "\x00" + string(argKey)
	if old := rc.entries[p.hash]; old != nil {
		// Raced fill of the same key (or a hash collision): keep the
		// newer answer.
		rc.removeLocked(old)
	}
	for rc.used+bytes > rc.capBytes {
		rc.removeLocked(rc.order.Back().Value.(*cacheEntry))
		rc.db.met.rcEvicts.Inc()
	}
	ent := &cacheEntry{key: key, hash: p.hash, bytes: bytes, freq: count,
		asOf: asOf, epoch: epoch, tables: make([]*tableData, len(plan.tables))}
	for i, t := range plan.tables {
		ent.tables[i] = t.data
	}
	// Arena-backed rows are Closed later, and their chunks may hold more
	// than the rows: copy those into one slab. Other rows are never
	// written, so the entry shares them: stored versions, or rows made
	// for this result alone, which entryBytes charged in full. Columns
	// and Kinds belong to this execution and are read-only from here on,
	// so the entry adopts them.
	data := rows.Data
	if rows.arena != nil {
		flat := make([]sqltypes.Value, 0, len(rows.Data)*len(rows.Columns))
		data = make([][]sqltypes.Value, len(rows.Data))
		for i, r := range rows.Data {
			flat = append(flat, r...)
			data[i] = flat[len(flat)-len(r) : len(flat) : len(flat)]
		}
	}
	ent.rows = &Rows{Columns: rows.Columns, Kinds: rows.Kinds, Data: data}
	ent.elem = rc.order.PushFront(ent)
	rc.entries[p.hash] = ent
	rc.used += bytes
	for _, td := range ent.tables {
		set := rc.byTable[td]
		if set == nil {
			set = make(map[*cacheEntry]struct{})
			rc.byTable[td] = set
		}
		set[ent] = struct{}{}
	}
}

// sight records a completed miss in the doorkeeper and returns the
// key's sighting count, or 0 and the decline reason when this is not a
// repeat at the same stamp. Caller holds rc.mu.
func (rc *resultCache) sight(p cacheProbe) (uint32, int) {
	if rc.sightings++; rc.sightings == doorkeeperAging {
		rc.sightings = 0
		for i := range rc.door {
			rc.door[i].count /= 2
		}
		for el := rc.order.Front(); el != nil; el = el.Next() {
			el.Value.(*cacheEntry).freq /= 2
		}
	}
	s := &rc.door[p.hash%doorkeeperSlots]
	if s.hash != p.hash || s.stamp != p.stamp {
		reason := declineFirstSighting
		if s.hash == p.hash {
			reason = declineStampMoved
		}
		*s = sighting{hash: p.hash, stamp: p.stamp, count: 1}
		return 0, reason
	}
	if s.count < math.MaxUint32 {
		s.count++
	}
	return s.count, 0
}

func (rc *resultCache) decline(reason int) { rc.db.met.rcDeclines[reason].Inc() }

// removeLocked unlinks an entry and refunds its bytes to the cache.
// Caller holds rc.mu.
func (rc *resultCache) removeLocked(ent *cacheEntry) {
	if ent.elem == nil {
		return
	}
	rc.order.Remove(ent.elem)
	ent.elem = nil
	delete(rc.entries, ent.hash)
	rc.used -= ent.bytes
	for _, td := range ent.tables {
		if set := rc.byTable[td]; set != nil {
			delete(set, ent)
			if len(set) == 0 {
				delete(rc.byTable, td)
			}
		}
	}
}

// invalidateTables drops every entry sourced from any of the given
// tables. Called from the commit hook after the commit stamp publishes;
// see the visibility contract above for why the timing is safe.
func (rc *resultCache) invalidateTables(tds []*tableData) {
	rc.mu.Lock()
	n := 0
	for _, td := range tds {
		set := rc.byTable[td]
		for ent := range set {
			rc.removeLocked(ent)
			n++
		}
	}
	rc.mu.Unlock()
	rc.db.met.rcInvalidations.Add(int64(n))
}

// flush empties the cache, refunding every charge. Called on DDL
// (schema-epoch bumps).
func (rc *resultCache) flush() {
	rc.mu.Lock()
	for rc.order.Len() > 0 {
		rc.removeLocked(rc.order.Back().Value.(*cacheEntry))
	}
	rc.mu.Unlock()
}

// bytesUsed reports the cache's current retained bytes (gauge).
func (rc *resultCache) bytesUsed() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.used
}
