package sqldb

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/sqltypes"
)

// The engine has one index structure: a B+tree (orderedIndex) over the
// canonical key encoding of key.go. PRIMARY KEY and UNIQUE constraints,
// and every CREATE INDEX, build the same tree and register it in
// tableData.indexes, so whatever enforces a key also serves the planner:
// point lookups (O(log n)), leading-prefix, range and IS [NOT] NULL
// scans, in-order scans for ORDER BY, join probes and
// index-only COUNT. CREATE INDEX ... USING HASH|ORDERED is still
// parsed — DDL logs written by earlier versions contain it — and
// ignored.

// idxEntry is one stamped index posting: the row's slot — the row
// reference itself, followed with no lookup (see tableData.slots) — and
// the MVCC begin/end stamps of the key↔row association. It is visible at
// a snapshot iff a version of the row visible there has this key, so
// index-only COUNT (from posting counts) stays exact while dead
// postings linger until vacuum. Only a
// key-changing update ends an entry and adds a new one.
type idxEntry struct {
	slot  *rowSlot
	begin atomic.Uint64
	end   atomic.Uint64
}

func (e *idxEntry) visibleAt(snap uint64) bool {
	return visibleStamp(e.begin.Load(), e.end.Load(), snap)
}

// entryCurrent reports whether the posting is the latest live one
// (latest-mode visibility; also the vacuum keep-predicate, since vacuum
// runs under the barrier with every stamp resolved).
func entryCurrent(e *idxEntry) bool {
	return e.begin.Load() != abortedStamp && e.end.Load() == 0
}

// liveEntry returns a posting stamped as committed from the start, for
// CREATE INDEX's backfill and the direct index unit tests.
func liveEntry(s *rowSlot) *idxEntry {
	e := &idxEntry{slot: s}
	e.begin.Store(baseStamp)
	return e
}

// findCurrentEntry locates the live posting for row s under key k, the
// one a delete or key-changing update must end. Caller holds the
// barrier.
func findCurrentEntry(idx *orderedIndex, k string, s *rowSlot) *idxEntry {
	for _, e := range idx.lookupKey(k) {
		if e.slot == s && entryCurrent(e) {
			return e
		}
	}
	return nil
}

// keyBound is one end of an ordered-index scan.
type keyBound struct {
	key  string
	incl bool
}

// ---------- snapshot-filtered access helpers ----------
//
// Readers go through these, holding DB.mu at least shared: they filter
// postings down to the slots of the rows visible at the snapshot.

// idxScanBatch is how many keys a range scan gathers before visiting.
const idxScanBatch = 128

// lookupVisible appends to rows the rows visible at snap under one key,
// growing rows at most once, to room for every posting under the key.
func lookupVisible(rows []*rowSlot, idx *orderedIndex, k string, snap uint64) []*rowSlot {
	es := idx.lookupKey(k)
	rows = slices.Grow(rows, len(es))
	for _, e := range es {
		if e.visibleAt(snap) {
			rows = append(rows, e.slot)
		}
	}
	return rows
}

// scanVisibleRange drives a batched range scan: up to idxScanBatch keys
// are gathered from the tree, then f runs over each key's visible rows
// (keys with no visible posting are skipped). Between batches the scan
// resumes strictly after the last delivered key. Gathering first keeps
// the tree walk a tight loop apart from the visitor's work. Calling f
// from inside the walk instead was not shown to cost the report
// workload nothing: its CPU per op median read 6.5% higher, but in
// only 10 of 16 pairs, within that workload's run-to-run spread.
func scanVisibleRange(idx *orderedIndex, lo, hi *keyBound, desc bool, snap uint64, f func(k string, rows []*rowSlot) bool) {
	buf := scanBufs.Get().(*scanBuf)
	defer scanBufs.Put(buf)
	for {
		batch, flat := buf.batch[:0], buf.flat[:0]
		idx.scanRange(lo, hi, desc, func(k string, es []*idxEntry) bool {
			start := len(flat)
			for _, e := range es {
				if e.visibleAt(snap) {
					flat = append(flat, e.slot)
				}
			}
			if len(flat) > start {
				batch = append(batch, keyRows{k: k, rows: flat[start:len(flat):len(flat)]})
			}
			return len(batch) < idxScanBatch
		})
		buf.flat = flat // keep what append grew
		for _, kv := range batch {
			if !f(kv.k, kv.rows) {
				return
			}
		}
		if len(batch) < idxScanBatch {
			return
		}
		resume := &keyBound{key: batch[len(batch)-1].k, incl: false}
		if desc {
			hi = resume
		} else {
			lo = resume
		}
	}
}

// scanBuf is one range scan's gather buffer: the keys of a batch and,
// flattened behind them, their visible rows. Pooled because it is sized
// for a full batch, which is more than a page-sized result: allocated
// per scan — per outer row, under a join probe — it would be most of
// what a small statement allocates. A scan nested inside a visitor
// draws its own buffer; visitors must not keep rows past their call. An
// idle buffer pins the keys and slots of its last batch until its next
// scan or a GC empties the pool: cheaper than clearing on every Put.
type scanBuf struct {
	batch []keyRows
	flat  []*rowSlot
}

type keyRows struct {
	k    string
	rows []*rowSlot
}

var scanBufs = sync.Pool{New: func() any {
	return &scanBuf{batch: make([]keyRows, 0, idxScanBatch), flat: make([]*rowSlot, 0, 4*idxScanBatch)}
}}

// ---------- ordered index (B+tree) ----------

// Node fan-out. Leaves hold up to btreeLeafMax key/posting entries,
// inner nodes up to btreeInnerMax children; splits happen one past the
// cap.
const (
	btreeLeafMax  = 64
	btreeInnerMax = 64
)

// orderedIndex is a B+tree over canonical key encodings supporting
// point, range and in-order scans. Keys are the concatenated canonical
// encodings of the indexed column values in declaration order (see
// key.go); the escape/terminator scheme keeps concatenation unambiguous,
// so a composite key's byte order equals the column-by-column tuple
// order and every leading prefix of a composite key is a byte prefix of
// the full key — the property the planner's prefix scans rely on.
//
// All keys live in leaves; inner nodes hold separators with
// len(seps) == len(children)-1, child i spanning [seps[i-1], seps[i]).
// Structurally removing the last posting under a key removes the leaf
// entry, and a leaf that empties out is merged away (its parent drops
// the hollow child and the adjoining separator), so delete-heavy tables
// do not accumulate dead nodes once vacuum sweeps the dead postings;
// within still-populated leaves no rebalancing happens, which is the
// right trade for the archive's insert-mostly workload.
//
// Structural mutation (insertKey, removeEntry, sweepDead) happens only
// under the barrier (DB.mu exclusively); lookups and scans hold DB.mu at
// least shared. Postings' stamps are atomics. Slices handed to visitors
// alias index storage and must not be mutated or kept past the
// statement.
type orderedIndex struct {
	name string
	cols []string // upper-cased column names, index order
	pos  []int    // schema positions, parallel to cols
	// unique marks a PRIMARY KEY / UNIQUE constraint index: writers probe
	// it for a current holder before installing a key (checkUnique).
	unique bool
	root   *btreeNode
}

// A leaf holds its keys and, parallel to them, each key's postings in
// 16 bytes (see postings): a slice per key would cost a 24-byte header
// and an 8-byte array for what is, in every unique index and in most
// others, a lone posting.
type btreeNode struct {
	leaf     bool
	keys     []string   // leaf entries
	ents     []postings // parallel to keys
	seps     []string   // inner separators
	children []*btreeNode
}

// postings is one key's postings in its leaf. A lone posting is held
// inline (one); only a key with two or more allocates a list (many),
// which then holds them all. A key in a leaf has at least one posting.
type postings struct {
	one  *idxEntry
	many *[]*idxEntry
}

// list returns the postings as a slice. A lone posting comes back as a
// one-element view of the leaf itself, valid until the next structural
// change: visitors already must not keep es past their call, and
// structural change runs under the barrier.
func (p *postings) list() []*idxEntry {
	if p.many != nil {
		return *p.many
	}
	return unsafe.Slice(&p.one, 1)
}

// add appends posting e, moving a lone posting into a list.
func (p *postings) add(e *idxEntry) {
	if p.many != nil {
		*p.many = append(*p.many, e)
		return
	}
	p.many = &[]*idxEntry{p.one, e}
	p.one = nil
}

// remove drops the first posting matching the predicate, folding a list
// left with one posting back inline, and reports whether none remain.
func (p *postings) remove(match func(*idxEntry) bool) (empty bool) {
	if p.many == nil {
		if match(p.one) {
			p.one = nil
		}
		return p.one == nil
	}
	es := *p.many
	if j := slices.IndexFunc(es, match); j >= 0 {
		es = slices.Delete(es, j, j+1)
	}
	if len(es) == 1 {
		p.one, p.many = es[0], nil
	} else {
		*p.many = es
	}
	return false
}

func newOrderedIndex(name string, schema *TableSchema, cols []string) *orderedIndex {
	ix := &orderedIndex{
		name: name,
		cols: upperAll(cols),
		pos:  make([]int, len(cols)),
		root: &btreeNode{leaf: true},
	}
	for i, c := range cols {
		ix.pos[i] = schema.ColIndex(c)
	}
	return ix
}

// rowKeyOf encodes the index key of one stored row (values already
// coerced to their column types; lookup callers must align probes via
// probeValue before encoding).
func (ix *orderedIndex) rowKeyOf(vals []sqltypes.Value) string {
	b := make([]byte, 0, 16*len(ix.pos))
	for _, p := range ix.pos {
		b = appendKey(b, vals[p])
	}
	return string(b)
}

func (ix *orderedIndex) addRow(vals []sqltypes.Value, e *idxEntry) {
	ix.insertKey(ix.rowKeyOf(vals), e)
}

// insertKey adds a posting under the already-encoded key k.
func (ix *orderedIndex) insertKey(k string, e *idxEntry) {
	right, sep := ix.root.insert(k, e)
	if right != nil {
		ix.root = &btreeNode{
			seps:     []string{sep},
			children: []*btreeNode{ix.root, right},
		}
	}
}

// removeRow structurally removes the current posting for id under the
// key of vals (the direct index unit tests; DML ends postings by stamp
// and vacuum sweeps them).
func (ix *orderedIndex) removeRow(vals []sqltypes.Value, id rowID) {
	ix.removeEntry(ix.rowKeyOf(vals), func(e *idxEntry) bool {
		return e.slot.id == id && entryCurrent(e)
	})
}

// removeEntry structurally removes the first posting under k matching
// the predicate and collapses single-child roots so the tree height
// tracks the live key count back down after bulk removal.
func (ix *orderedIndex) removeEntry(k string, match func(*idxEntry) bool) {
	ix.root.remove(k, match)
	for !ix.root.leaf && len(ix.root.children) == 1 {
		ix.root = ix.root.children[0]
	}
}

// lookupKey returns the postings stored under one encoded key (the
// full column tuple).
func (ix *orderedIndex) lookupKey(k string) []*idxEntry {
	n := ix.root
	for !n.leaf {
		n = n.children[n.childFor(k)]
	}
	i := sort.SearchStrings(n.keys, k)
	if i < len(n.keys) && n.keys[i] == k {
		return n.ents[i].list()
	}
	return nil
}

// scanRange visits entries with lo <= key <= hi in key order (reversed
// when desc); nil bounds are open ends. An exclusive bound skips entries
// equal to the bound key. The visitor returns false to stop.
func (ix *orderedIndex) scanRange(lo, hi *keyBound, desc bool, f func(k string, es []*idxEntry) bool) {
	if desc {
		ix.root.descend(lo, hi, f)
	} else {
		ix.root.ascend(lo, hi, f)
	}
}

// sweepDead structurally removes every non-current posting (vacuum,
// under the global barrier).
func (ix *orderedIndex) sweepDead() {
	type deadPosting struct {
		k string
		e *idxEntry
	}
	var dead []deadPosting
	ix.root.ascend(nil, nil, func(k string, es []*idxEntry) bool {
		for _, e := range es {
			if !entryCurrent(e) {
				dead = append(dead, deadPosting{k: k, e: e})
			}
		}
		return true
	})
	for _, d := range dead {
		victim := d.e
		ix.removeEntry(d.k, func(e *idxEntry) bool { return e == victim })
	}
}

// nodeCount reports the number of tree nodes (diagnostics and the
// delete-reclaim regression test).
func (ix *orderedIndex) nodeCount() int { return ix.root.count() }

func (n *btreeNode) count() int {
	c := 1
	for _, ch := range n.children {
		c += ch.count()
	}
	return c
}

// childFor routes key k: entries equal to a separator live in the child
// to its right, matching the "separator = first key of right sibling"
// split convention.
func (n *btreeNode) childFor(k string) int {
	return sort.Search(len(n.seps), func(i int) bool { return n.seps[i] > k })
}

// insert adds a posting under key k, returning a new right sibling and
// its separator when the node split.
func (n *btreeNode) insert(k string, e *idxEntry) (*btreeNode, string) {
	if n.leaf {
		i := sort.SearchStrings(n.keys, k)
		if i < len(n.keys) && n.keys[i] == k {
			n.ents[i].add(e)
			return nil, ""
		}
		// A full leaf splits before it takes the key, so its arrays never
		// grow past btreeLeafMax slots. A key landing past every other
		// splits at the right edge: a monotonic load leaves full leaves
		// behind, not half-full ones.
		var right *btreeNode
		if len(n.keys) == btreeLeafMax {
			mid := len(n.keys) / 2
			if i == len(n.keys) {
				mid = i
			}
			right = &btreeNode{
				leaf: true,
				keys: append([]string(nil), n.keys[mid:]...),
				ents: append([]postings(nil), n.ents[mid:]...),
			}
			n.keys = n.keys[:mid:mid]
			n.ents = n.ents[:mid:mid]
			if i >= mid {
				n, i = right, i-mid
			}
		}
		n.keys = append(n.keys, "")
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = k
		n.ents = append(n.ents, postings{})
		copy(n.ents[i+1:], n.ents[i:])
		n.ents[i] = postings{one: e}
		if right == nil {
			return nil, ""
		}
		return right, right.keys[0]
	}
	ci := n.childFor(k)
	right, sep := n.children[ci].insert(k, e)
	if right == nil {
		return nil, ""
	}
	n.seps = append(n.seps, "")
	copy(n.seps[ci+1:], n.seps[ci:])
	n.seps[ci] = sep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.children) <= btreeInnerMax {
		return nil, ""
	}
	mid := len(n.seps) / 2
	up := n.seps[mid]
	r := &btreeNode{
		seps:     append([]string(nil), n.seps[mid+1:]...),
		children: append([]*btreeNode(nil), n.children[mid+1:]...),
	}
	n.seps = n.seps[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return r, up
}

// remove deletes the first posting under key k matching the predicate
// and reports whether this node has become empty (merge-at-empty
// reclamation: a parent drops an emptied child together with one
// separator, so hollow leaves do not linger after delete-heavy
// workloads; partially-filled nodes are never rebalanced).
func (n *btreeNode) remove(k string, match func(*idxEntry) bool) (empty bool) {
	if n.leaf {
		i := sort.SearchStrings(n.keys, k)
		if i >= len(n.keys) || n.keys[i] != k {
			return len(n.keys) == 0
		}
		if n.ents[i].remove(match) {
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.ents = append(n.ents[:i], n.ents[i+1:]...)
		}
		return len(n.keys) == 0
	}
	ci := n.childFor(k)
	if n.children[ci].remove(k, match) && len(n.children) > 1 {
		// Drop the hollow child and the separator adjoining it.
		n.children = append(n.children[:ci], n.children[ci+1:]...)
		si := ci
		if si > 0 {
			si--
		}
		n.seps = append(n.seps[:si], n.seps[si+1:]...)
	}
	if len(n.children) > 1 {
		return false
	}
	// A single remaining child: this node is as empty as that child
	// (the root collapse in removeEntry flattens the chain).
	return n.children[0].emptyNode()
}

// emptyNode reports whether the subtree holds no keys. Only single-child
// chains ever need the recursion, so this stays O(height).
func (n *btreeNode) emptyNode() bool {
	if n.leaf {
		return len(n.keys) == 0
	}
	return len(n.children) == 1 && n.children[0].emptyNode()
}

// within reports whether key k satisfies the scan bounds.
func within(k string, lo, hi *keyBound) bool {
	if lo != nil && (k < lo.key || (!lo.incl && k == lo.key)) {
		return false
	}
	if hi != nil && (k > hi.key || (!hi.incl && k == hi.key)) {
		return false
	}
	return true
}

func (n *btreeNode) ascend(lo, hi *keyBound, f func(k string, es []*idxEntry) bool) bool {
	if n.leaf {
		start := 0
		if lo != nil {
			start = sort.SearchStrings(n.keys, lo.key)
		}
		for i := start; i < len(n.keys); i++ {
			if !within(n.keys[i], lo, hi) {
				if hi != nil && n.keys[i] > hi.key {
					return false
				}
				continue
			}
			if !f(n.keys[i], n.ents[i].list()) {
				return false
			}
		}
		return true
	}
	start, end := 0, len(n.children)-1
	if lo != nil {
		start = n.childFor(lo.key)
	}
	if hi != nil {
		end = n.childFor(hi.key)
	}
	for ci := start; ci <= end; ci++ {
		if !n.children[ci].ascend(lo, hi, f) {
			return false
		}
	}
	return true
}

func (n *btreeNode) descend(lo, hi *keyBound, f func(k string, es []*idxEntry) bool) bool {
	if n.leaf {
		for i := len(n.keys) - 1; i >= 0; i-- {
			if !within(n.keys[i], lo, hi) {
				if lo != nil && n.keys[i] < lo.key {
					return false
				}
				continue
			}
			if !f(n.keys[i], n.ents[i].list()) {
				return false
			}
		}
		return true
	}
	start, end := 0, len(n.children)-1
	if lo != nil {
		start = n.childFor(lo.key)
	}
	if hi != nil {
		end = n.childFor(hi.key)
	}
	for ci := end; ci >= start; ci-- {
		if !n.children[ci].descend(lo, hi, f) {
			return false
		}
	}
	return true
}
