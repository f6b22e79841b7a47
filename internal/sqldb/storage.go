package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sqltypes"
)

// rowID identifies a stored row for the lifetime of the database,
// including across WAL replay (IDs are allocated deterministically).
type rowID uint64

// ---------- MVCC stamps ----------
//
// Every row version and index entry carries a begin and an end stamp:
//
//	begin — the commit stamp of the transaction that created it,
//	        uncommittedStamp while that transaction is in flight, or
//	        abortedStamp if it rolled back;
//	end   — 0 while current, uncommittedStamp while a deleting/updating
//	        transaction is in flight, or the commit stamp that superseded
//	        it.
//
// Commit stamps are boot-local: they are allocated monotonically under
// DB.commitMu in WAL-stage order, so replay reconstructs the same
// visibility order, and a freshly loaded snapshot collapses to stamp
// baseStamp (visible to every reader).
const (
	txMark           = uint64(1) << 63 // set on all in-flight / aborted stamps
	uncommittedStamp = txMark
	abortedStamp     = txMark | 1
	baseStamp        = uint64(1) // stamp of snapshot-loaded rows

	// snapLatest is the visibility mode used by DML row matching and FK
	// checks: see the latest non-aborted state, including this
	// transaction's own uncommitted changes. Safe because same-table
	// writers serialise on tableData.wmu (or on DB.mu for the global
	// paths), so any in-flight stamp seen in this mode is our own.
	snapLatest = ^uint64(0)
)

// visibleStamp reports whether a version/entry with the given begin and
// end stamps is visible at snapshot snap.
func visibleStamp(b, e, snap uint64) bool {
	if snap == snapLatest {
		return b != abortedStamp && e == 0
	}
	if b&txMark != 0 || b > snap {
		return false // in flight, aborted, or committed after the snapshot
	}
	return e == 0 || e&txMark != 0 || e > snap
}

// rowVersion is one version of a heap row. vals is immutable after the
// version is published; visibility is controlled entirely by the stamps.
type rowVersion struct {
	vals  []sqltypes.Value
	prev  *rowVersion // next-older version
	begin atomic.Uint64
	end   atomic.Uint64
}

func (v *rowVersion) visibleAt(snap uint64) bool {
	return visibleStamp(v.begin.Load(), v.end.Load(), snap)
}

// rowSlot anchors the version chain of one row id. Slots keep their
// insertion-order position in tableData.slots for the life of the row,
// so scan order is stable across updates (a new version replaces the
// chain head in place).
type rowSlot struct {
	id   rowID
	head atomic.Pointer[rowVersion] // newest first
}

// versionAt walks the chain newest→oldest and returns the version
// visible at snap, if any. At most one version per row is visible at a
// given snapshot (versions have disjoint [begin, end) ranges).
func (s *rowSlot) versionAt(snap uint64) *rowVersion {
	for v := s.head.Load(); v != nil; v = v.prev {
		if v.visibleAt(snap) {
			return v
		}
	}
	return nil
}

// fetch returns the row values visible at snap, lock-free and uncounted:
// reader loops (index scans, join probes, boundary fetches) add to
// heapReads once per call site, not with a shared atomic RMW per row.
func (s *rowSlot) fetch(snap uint64) ([]sqltypes.Value, bool) {
	v := s.versionAt(snap)
	if v == nil {
		return nil, false
	}
	return v.vals, true
}

// mvccRefs is a transaction's record of everything it stamped, kept on
// txState until the commit is durable. Commit resolves the in-flight
// stamps to the allocated commit stamp; abort (rollback, or unwinding an
// unflushed suffix after an fsync failure) flips them back in O(touched)
// without structural surgery — vacuum reclaims the husks later.
type mvccRefs struct {
	created    []*rowVersion
	ended      []*rowVersion
	createdIdx []*idxEntry
	endedIdx   []*idxEntry
	// undo reverses the side effects that are not stamp-guarded: the
	// live/dead counters. Run in reverse order on abort.
	undo []func()
	// touched lists every table this transaction wrote. Commit
	// publishes the commit stamp to each table's lastWrite — the result
	// cache's serve-time staleness check — and the commit hook drops
	// cached entries over them. Tiny (statements touch a handful of tables), so a linear
	// dedupe beats a map.
	touched []*tableData
}

// touch records td in the transaction's written-tables set.
func (r *mvccRefs) touch(td *tableData) {
	for _, t := range r.touched {
		if t == td {
			return
		}
	}
	r.touched = append(r.touched, td)
}

func (r *mvccRefs) empty() bool {
	return len(r.created) == 0 && len(r.ended) == 0 &&
		len(r.createdIdx) == 0 && len(r.endedIdx) == 0 && len(r.undo) == 0
}

// commit resolves every in-flight stamp to ts. Must run under
// DB.commitMu so stamp order equals WAL order.
func (r *mvccRefs) commit(ts uint64) {
	for _, v := range r.created {
		v.begin.Store(ts)
	}
	for _, v := range r.ended {
		v.end.Store(ts)
	}
	for _, e := range r.createdIdx {
		e.begin.Store(ts)
	}
	for _, e := range r.endedIdx {
		e.end.Store(ts)
	}
	// Publish the write stamp per table BEFORE lastTS advances (both
	// happen under commitMu): any reader whose snapshot can see this
	// transaction observes lastWrite >= its stamps, which is what lets
	// the result cache reject entries built before this write.
	for _, td := range r.touched {
		td.lastWrite.Store(ts)
	}
}

// abort flips this transaction's stamps to the rolled-back state and
// reverses its structural side effects. Safe both before commit
// (rollback: stamps are still in-flight) and after (unwinding an
// unflushed commit suffix: the DB is poisoned and the stamps are simply
// overwritten; LIFO order across transactions keeps nested effects
// consistent).
func (r *mvccRefs) abort() {
	for _, v := range r.created {
		v.begin.Store(abortedStamp)
	}
	for _, v := range r.ended {
		v.end.Store(0)
	}
	for _, e := range r.createdIdx {
		e.begin.Store(abortedStamp)
	}
	for _, e := range r.endedIdx {
		e.end.Store(0)
	}
	for i := len(r.undo) - 1; i >= 0; i-- {
		r.undo[i]()
	}
}

// tableData is the heap + indexes for one table.
type tableData struct {
	schema *TableSchema

	// wmu serialises writer statements on this table: a sharded DML
	// statement holds it from row matching through commit-stamping, so
	// "latest" visibility during matching can never observe another
	// transaction's in-flight stamps. Global-barrier paths (DDL,
	// explicit transactions, FK-involved DML, vacuum) already exclude
	// everything via DB.mu and skip it.
	wmu sync.Mutex

	// latch guards the physical structure readers traverse: the slots
	// slice header and the index trees. Writers hold it exclusively only
	// for short structural mutations; readers hold it shared for bounded
	// batches and never nest two table latches (see index.go).
	latch sync.RWMutex

	// slots is the heap, strictly ascending by row id: ids come from one
	// allocator and are taken, inserted and WAL-staged under the table's
	// writer slot; snapshots and vacuum keep slots order. Postings point
	// into it, and a slot leaves it only in vacuum — under the barrier,
	// its postings swept with it — so a *rowSlot outlives the latch.
	slots []*rowSlot
	live  atomic.Int64 // latest committed+in-flight live rows (snapshot row counts)
	dead  atomic.Int64 // dead versions + index entries awaiting vacuum

	// indexes lists the table's indexes (see index.go) sorted by name, so
	// the planner's candidate walk and writer entry-stamping order are
	// deterministic. The PRIMARY KEY and UNIQUE constraints are
	// unique-flagged members under the fixed names pkIndexName and
	// "UNIQUE(A,B)", which no CREATE/DROP INDEX can take or reach. The
	// slice only changes under the DDL barrier.
	indexes []*orderedIndex

	// heapReads counts row materialisations out of the heap (get hits
	// and scan visits). It is the access-path introspection the
	// index-only aggregate tests assert "reads zero table rows" with;
	// atomic because SELECTs run concurrently under the read lock.
	heapReads atomic.Int64

	// lastWrite is the newest commit stamp that wrote this table,
	// published under DB.commitMu before lastTS advances. The result
	// cache serves an entry only when every source table's lastWrite is
	// <= the stamp the entry was built at (resultcache.go).
	lastWrite atomic.Uint64
}

// pkIndexName is the fixed name of a table's PRIMARY KEY index.
const pkIndexName = "PRIMARY KEY"

func newTableData(schema *TableSchema) *tableData {
	td := &tableData{schema: schema}
	constraint := func(name string, cols []string) {
		if td.index(name) != nil {
			return // the same UNIQUE tuple declared twice
		}
		idx := newOrderedIndex(name, schema, cols)
		idx.unique = true
		td.addIndex(idx)
	}
	if len(schema.PrimaryKey) > 0 {
		constraint(pkIndexName, schema.PrimaryKey)
	}
	for _, u := range schema.Uniques {
		constraint("UNIQUE("+strings.Join(u, ",")+")", u)
	}
	return td
}

// index returns the table's index of that (upper-cased) name, or nil.
func (td *tableData) index(name string) *orderedIndex {
	for _, idx := range td.indexes {
		if idx.name == name {
			return idx
		}
	}
	return nil
}

// addIndex registers idx at its name-sorted position.
func (td *tableData) addIndex(idx *orderedIndex) {
	i := sort.Search(len(td.indexes), func(i int) bool { return td.indexes[i].name > idx.name })
	td.indexes = append(td.indexes, nil)
	copy(td.indexes[i+1:], td.indexes[i:])
	td.indexes[i] = idx
}

// checkUnique enforces a PRIMARY KEY / UNIQUE index against the latest
// state: no current posting under k — committed or this transaction's
// own in-flight one — may belong to a row other than self. The owning
// writer slot excludes every other writer, and abort flips posting
// stamps back, so the MVCC postings are the whole truth and no second
// structure is kept. Key equality is value equality (key.go), so any
// live holder is a violation. SQL semantics: rows with NULL in any
// constrained column are exempt (they are still indexed; the planner
// may use them).
func (td *tableData) checkUnique(idx *orderedIndex, k string, vals []sqltypes.Value, self *rowSlot) error {
	if !idx.unique {
		return nil
	}
	for _, p := range idx.pos {
		if vals[p].IsNull() {
			return nil
		}
	}
	for _, e := range idx.lookupKey(k) {
		if e.slot == self || !entryCurrent(e) {
			continue
		}
		if _, live := e.slot.fetch(snapLatest); live {
			label := "UNIQUE"
			if idx.name == pkIndexName {
				label = pkIndexName
			}
			return fmt.Errorf("sqldb: %s violation on (%s)", label, strings.Join(idx.cols, ", "))
		}
	}
	return nil
}

// checkedKeys encodes vals' key in every index (parallel to td.indexes),
// once for the constraint checks and the postings that follow them.
func (td *tableData) checkedKeys(vals []sqltypes.Value, self *rowSlot) ([]string, error) {
	keys := make([]string, len(td.indexes))
	for i, idx := range td.indexes {
		keys[i] = idx.rowKeyOf(vals)
		if err := td.checkUnique(idx, keys[i], vals, self); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// insert installs a new row as an uncommitted version and maintains
// indexes. The caller owns the table's writer slot (wmu or the global
// barrier).
func (td *tableData) insert(id rowID, vals []sqltypes.Value, refs *mvccRefs) error {
	keys, err := td.checkedKeys(vals, nil)
	if err != nil {
		return err
	}
	refs.touch(td)
	v := &rowVersion{vals: vals}
	v.begin.Store(uncommittedStamp)
	s := &rowSlot{id: id}
	s.head.Store(v)
	td.latch.Lock()
	td.appendSlot(s)
	for i, idx := range td.indexes {
		e := &idxEntry{slot: s}
		e.begin.Store(uncommittedStamp)
		idx.insertKey(keys[i], e)
		refs.createdIdx = append(refs.createdIdx, e)
	}
	td.latch.Unlock()
	td.live.Add(1)
	refs.created = append(refs.created, v)
	refs.undo = append(refs.undo, func() {
		td.live.Add(-1)
		td.dead.Add(1)
	})
	return nil
}

// delete ends the current version of a row (uncommitted end stamp) and
// its index entries; nothing is removed structurally until vacuum.
func (td *tableData) delete(s *rowSlot, refs *mvccRefs) ([]sqltypes.Value, error) {
	v := s.versionAt(snapLatest)
	if v == nil {
		return nil, fmt.Errorf("sqldb: row %d not found in %s", s.id, td.schema.Name)
	}
	vals := v.vals
	refs.touch(td)
	v.end.Store(uncommittedStamp)
	refs.ended = append(refs.ended, v)
	td.latch.RLock()
	for _, idx := range td.indexes {
		if e := findCurrentEntry(idx, idx.rowKeyOf(vals), s); e != nil {
			e.end.Store(uncommittedStamp)
			refs.endedIdx = append(refs.endedIdx, e)
		}
	}
	td.latch.RUnlock()
	td.live.Add(-1)
	td.dead.Add(1)
	refs.undo = append(refs.undo, func() {
		td.live.Add(1)
		td.dead.Add(-1)
	})
	return vals, nil
}

// update installs a new version at the head of the row's chain,
// maintaining indexes and checking unique constraints against all rows
// but itself. Index entries are touched only for keys that changed.
func (td *tableData) update(s *rowSlot, newVals []sqltypes.Value, refs *mvccRefs) ([]sqltypes.Value, error) {
	v := s.versionAt(snapLatest)
	if v == nil {
		return nil, fmt.Errorf("sqldb: row %d not found in %s", s.id, td.schema.Name)
	}
	old := v.vals
	keys, err := td.checkedKeys(newVals, s)
	if err != nil {
		return nil, err
	}
	refs.touch(td)
	nv := &rowVersion{vals: newVals, prev: s.head.Load()}
	nv.begin.Store(uncommittedStamp)
	v.end.Store(uncommittedStamp)
	s.head.Store(nv)
	refs.created = append(refs.created, nv)
	refs.ended = append(refs.ended, v)
	td.dead.Add(1) // the superseded version
	td.latch.Lock()
	for i, idx := range td.indexes {
		oldKey := idx.rowKeyOf(old)
		if oldKey == keys[i] {
			continue // entry stays valid for both versions
		}
		if e := findCurrentEntry(idx, oldKey, s); e != nil {
			e.end.Store(uncommittedStamp)
			refs.endedIdx = append(refs.endedIdx, e)
			td.dead.Add(1)
		}
		ne := &idxEntry{slot: s}
		ne.begin.Store(uncommittedStamp)
		idx.insertKey(keys[i], ne)
		refs.createdIdx = append(refs.createdIdx, ne)
	}
	td.latch.Unlock()
	refs.undo = append(refs.undo, func() {
		td.dead.Add(1) // the aborted new version
	})
	return old, nil
}

// appendSlot adds a new row's slot under the exclusive latch, keeping
// slots ascending by id. Ids arrive in order; one that did not is placed
// by a copying insert (cap i), since scans walk the old array unlatched.
func (td *tableData) appendSlot(s *rowSlot) {
	if n := len(td.slots); n == 0 || td.slots[n-1].id < s.id {
		td.slots = append(td.slots, s)
		return
	}
	i := sort.Search(len(td.slots), func(i int) bool { return td.slots[i].id > s.id })
	td.slots = append(td.slots[:i:i], append([]*rowSlot{s}, td.slots[i:]...)...)
}

// slotFor finds a row from its id alone, by binary search: the way in for
// WAL replay; every other path has the slot, from a posting or a scan.
func (td *tableData) slotFor(id rowID) (*rowSlot, bool) {
	i := sort.Search(len(td.slots), func(i int) bool { return td.slots[i].id >= id })
	if i == len(td.slots) || td.slots[i].id != id {
		return nil, false
	}
	return td.slots[i], true
}

// get is fetch plus the read count, for the low-frequency point paths
// (DML row collection under the writer lock).
func (td *tableData) get(s *rowSlot, snap uint64) ([]sqltypes.Value, bool) {
	vals, ok := s.fetch(snap)
	if ok {
		td.heapReads.Add(1)
	}
	return vals, ok
}

// scan calls f for each row visible at snap in insertion order; f
// returns false to stop. The latch is held only long enough to copy the
// slots slice header, so long analytical scans never block writers.
func (td *tableData) scan(snap uint64, f func(s *rowSlot, vals []sqltypes.Value) bool) {
	td.latch.RLock()
	slots := td.slots
	td.latch.RUnlock()
	visited := int64(0)
	for _, s := range slots {
		v := s.versionAt(snap)
		if v == nil {
			continue
		}
		visited++
		if !f(s, v.vals) {
			break
		}
	}
	td.heapReads.Add(visited)
}

// vacuum reclaims every dead row version and dead index entry. Caller
// must hold the global barrier (DB.mu exclusively) with the WAL fenced,
// so no snapshot is live and no commit can be unwound afterwards: a
// version is reclaimable iff it is not the current committed version.
func (td *tableData) vacuum() {
	kept := make([]*rowSlot, 0, len(td.slots))
	for _, s := range td.slots {
		v := s.versionAt(snapLatest)
		if v == nil {
			continue
		}
		v.prev = nil // drop older versions
		s.head.Store(v)
		kept = append(kept, s)
	}
	td.slots = kept
	for _, idx := range td.indexes {
		idx.sweepDead()
	}
	td.dead.Store(0)
}
