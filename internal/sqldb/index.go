package sqldb

import (
	"slices"
	"sort"
	"sync"
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

// A posting is a row's slot filed under a key: (k, s) says that some
// version of row s has key k in this index. Postings carry no stamps.
// Posting (k, s) is visible at a snapshot iff the version of s visible
// there has key k (visibleVersion), so index-only COUNT stays exact
// while stale postings linger until vacuum. Insert posts the new row's
// keys, a key-changing update posts the new key unless the slot already
// has it, and only vacuum removes postings: it keeps (k, s) iff s
// survives and k is its one remaining version's key. Hence the
// invariant the fast path rests on: a slot whose chain holds one version
// has postings only under that version's keys.

// visibleVersion returns the version behind posting (k, s) visible at
// snap, or nil, and whether the check read the row's values. A lone
// version is visible by its stamps alone (the invariant above); in a
// longer chain, one written since the last vacuum, the version visible
// at snap has its key re-encoded and compared with k.
func (ix *orderedIndex) visibleVersion(k string, s *rowSlot, snap uint64) (v *rowVersion, read bool) {
	if v = s.head.Load(); v.prev == nil {
		if v.visibleAt(snap) {
			return v, false
		}
		return nil, false
	}
	if v = s.versionAt(snap); v == nil {
		return nil, false
	}
	if ix.hasKey(v.vals, k) {
		return v, true
	}
	return nil, true
}

// hasKey reports whether vals' key in ix is k. Each column is encoded
// into a stack buffer and matched against k's next bytes, so the
// recheck allocates nothing for a column encoding of up to 64 bytes.
func (ix *orderedIndex) hasKey(vals []sqltypes.Value, k string) bool {
	var buf [64]byte
	for _, p := range ix.pos {
		b := appendKey(buf[:0], vals[p])
		if len(k) < len(b) || k[:len(b)] != string(b) {
			return false
		}
		k = k[len(b):]
	}
	return k == ""
}

// visibleRow is a posting that passed its visibility check: the row's
// slot and its version visible at the snapshot, so a reader fetches the
// values without walking the chain again.
type visibleRow struct {
	slot *rowSlot
	ver  *rowVersion
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
// growing rows at most once, to room for every posting under the key,
// and reports how many rows' values the visibility checks read.
func lookupVisible(rows []visibleRow, idx *orderedIndex, k string, snap uint64) ([]visibleRow, int64) {
	ss := idx.lookupKey(k)
	return appendVisible(slices.Grow(rows, len(ss)), idx, k, ss, snap)
}

// appendVisible appends to rows those of key k's postings ss visible at
// snap, and reports how many rows' values the visibility checks read.
func appendVisible(rows []visibleRow, idx *orderedIndex, k string, ss []*rowSlot, snap uint64) ([]visibleRow, int64) {
	var rechecks int64
	for _, s := range ss {
		v, read := idx.visibleVersion(k, s, snap)
		if read {
			rechecks++
		}
		if v != nil {
			rows = append(rows, visibleRow{slot: s, ver: v})
		}
	}
	return rows, rechecks
}

// scanVisibleRange drives a batched range scan: up to idxScanBatch keys
// are gathered from the tree, then f runs over each key's visible rows
// (keys with no visible posting are skipped). Between batches the scan
// resumes strictly after the last delivered key. Gathering first keeps
// the tree walk a tight loop apart from the visitor's work. Calling f
// from inside the walk instead was not shown to cost the report
// workload nothing: its CPU per op median read 6.5% higher, but in
// only 10 of 16 pairs, within that workload's run-to-run spread. It
// returns how many rows' values the visibility checks read.
func scanVisibleRange(idx *orderedIndex, lo, hi *keyBound, desc bool, snap uint64, f func(k string, rows []visibleRow) bool) (rechecks int64) {
	buf := scanBufs.Get().(*scanBuf)
	defer scanBufs.Put(buf)
	for {
		batch, flat := buf.batch[:0], buf.flat[:0]
		idx.scanRange(lo, hi, desc, func(k string, ss []*rowSlot) bool {
			start := len(flat)
			var n int64
			flat, n = appendVisible(flat, idx, k, ss, snap)
			rechecks += n
			if len(flat) > start {
				batch = append(batch, keyRows{k: k, rows: flat[start:len(flat):len(flat)]})
			}
			return len(batch) < idxScanBatch
		})
		buf.flat = flat // keep what append grew
		for _, kv := range batch {
			if !f(kv.k, kv.rows) {
				return rechecks
			}
		}
		if len(batch) < idxScanBatch {
			return rechecks
		}
		resume := &keyBound{key: batch[len(batch)-1].k, incl: false}
		if desc {
			hi = resume
		} else {
			lo = resume
		}
	}
}

// scanBuf is one scan's gather buffer: the keys of a batch and,
// flattened behind them, their visible rows (a point lookup's one key
// gathers into flat alone). Pooled because it is sized
// for a full batch, which is more than a page-sized result: allocated
// per scan — per outer row, under a join probe — it would be most of
// what a small statement allocates. A scan nested inside a visitor
// draws its own buffer; visitors must not keep rows past their call. An
// idle buffer pins the keys and slots of its last batch until its next
// scan or a GC empties the pool: cheaper than clearing on every Put.
type scanBuf struct {
	batch []keyRows
	flat  []visibleRow
}

type keyRows struct {
	k    string
	rows []visibleRow
}

var scanBufs = sync.Pool{New: func() any {
	return &scanBuf{batch: make([]keyRows, 0, idxScanBatch), flat: make([]visibleRow, 0, 4*idxScanBatch)}
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
// do not accumulate dead nodes once vacuum drops the stale postings;
// within still-populated leaves no rebalancing happens, which is the
// right trade for the archive's insert-mostly workload.
//
// Structural mutation (insertKey, removeEntry, dropStale) happens only
// under the barrier (DB.mu exclusively); lookups and scans hold DB.mu at
// least shared. Slices handed to visitors alias index storage and must
// not be mutated or kept past the statement.
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

// postings is one key's postings in its leaf: the slots filed under it,
// each at most once. A lone posting is held inline (one); only a key
// with two or more allocates a list (many), which then holds them all.
// A key in a leaf has at least one posting.
type postings struct {
	one  *rowSlot
	many *[]*rowSlot
}

// list returns the postings as a slice. A lone posting comes back as a
// one-element view of the leaf itself, valid until the next structural
// change: visitors already must not keep ss past their call, and
// structural change runs under the barrier.
func (p *postings) list() []*rowSlot {
	if p.many != nil {
		return *p.many
	}
	return unsafe.Slice(&p.one, 1)
}

// add appends posting s, moving a lone posting into a list.
func (p *postings) add(s *rowSlot) {
	if p.many != nil {
		*p.many = append(*p.many, s)
		return
	}
	p.many = &[]*rowSlot{p.one, s}
	p.one = nil
}

// remove drops posting s, folding a list left with one posting back
// inline, and reports whether none remain.
func (p *postings) remove(s *rowSlot) (empty bool) {
	if p.many == nil {
		if p.one == s {
			p.one = nil
		}
		return p.one == nil
	}
	ss := *p.many
	if j := slices.Index(ss, s); j >= 0 {
		ss = slices.Delete(ss, j, j+1)
	}
	if len(ss) == 1 {
		p.one, p.many = ss[0], nil
	} else {
		*p.many = ss
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

// insertKey adds posting (k, s) under the already-encoded key k.
func (ix *orderedIndex) insertKey(k string, s *rowSlot) {
	right, sep := ix.root.insert(k, s)
	if right != nil {
		ix.root = &btreeNode{
			seps:     []string{sep},
			children: []*btreeNode{ix.root, right},
		}
	}
}

// removeEntry structurally removes posting (k, s) and collapses
// single-child roots so the tree height tracks the live key count back
// down after bulk removal.
func (ix *orderedIndex) removeEntry(k string, s *rowSlot) {
	ix.root.remove(k, s)
	for !ix.root.leaf && len(ix.root.children) == 1 {
		ix.root = ix.root.children[0]
	}
}

// lookupKey returns the postings stored under one encoded key (the
// full column tuple).
func (ix *orderedIndex) lookupKey(k string) []*rowSlot {
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
func (ix *orderedIndex) scanRange(lo, hi *keyBound, desc bool, f func(k string, ss []*rowSlot) bool) {
	if desc {
		ix.root.descend(lo, hi, f)
	} else {
		ix.root.ascend(lo, hi, f)
	}
}

// dropStale removes slot s's postings under every key that a version
// of its chain has in ix, except keep's key (every key when keep is
// nil: the row is gone). Vacuum calls it, under the barrier, for each
// slot it folds down to keep; since postings are only ever filed under
// the keys of a slot's versions, this leaves exactly (keep's key, s).
func (ix *orderedIndex) dropStale(s *rowSlot, chain, keep *rowVersion) {
	keepKey := "" // no encoded key is empty
	if keep != nil {
		keepKey = ix.rowKeyOf(keep.vals)
	}
	ix.chainKeys(chain, func(k string) {
		if k != keepKey {
			ix.removeEntry(k, s)
		}
	})
}

// chainKeys calls f once for each distinct key the versions from chain
// down have in ix.
func (ix *orderedIndex) chainKeys(chain *rowVersion, f func(k string)) {
	var seen []string
	for v := chain; v != nil; v = v.prev {
		if k := ix.rowKeyOf(v.vals); !slices.Contains(seen, k) {
			seen = append(seen, k)
			f(k)
		}
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
func (n *btreeNode) insert(k string, s *rowSlot) (*btreeNode, string) {
	if n.leaf {
		i := sort.SearchStrings(n.keys, k)
		if i < len(n.keys) && n.keys[i] == k {
			n.ents[i].add(s)
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
		n.ents[i] = postings{one: s}
		if right == nil {
			return nil, ""
		}
		return right, right.keys[0]
	}
	ci := n.childFor(k)
	right, sep := n.children[ci].insert(k, s)
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

// remove deletes posting (k, s) and reports whether this node has become empty (merge-at-empty
// reclamation: a parent drops an emptied child together with one
// separator, so hollow leaves do not linger after delete-heavy
// workloads; partially-filled nodes are never rebalanced).
func (n *btreeNode) remove(k string, s *rowSlot) (empty bool) {
	if n.leaf {
		i := sort.SearchStrings(n.keys, k)
		if i >= len(n.keys) || n.keys[i] != k {
			return len(n.keys) == 0
		}
		if n.ents[i].remove(s) {
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.ents = append(n.ents[:i], n.ents[i+1:]...)
		}
		return len(n.keys) == 0
	}
	ci := n.childFor(k)
	if n.children[ci].remove(k, s) && len(n.children) > 1 {
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

func (n *btreeNode) ascend(lo, hi *keyBound, f func(k string, ss []*rowSlot) bool) bool {
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

func (n *btreeNode) descend(lo, hi *keyBound, f func(k string, ss []*rowSlot) bool) bool {
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
