package sqldb

import (
	"sync"

	"repro/internal/sqltypes"
)

// Arena/columnar result pipeline.
//
// A projection that makes one []Value per output row costs ~36MB and
// ~100k allocs per 100k projected rows. The pipeline avoids that, and
// everything it allocates is sized by the rows a statement returns,
// never by the table or by a fixed slab — the archive UI lives on
// 1–50-row results:
//
//   - Stored-order rows: when the projection is the lone table's columns
//     in stored order (selectPlan.storedRows), a result row is the
//     visible version's vals, clipped to its width. A version is never
//     written after it is published, so the result holds it as of the
//     statement's snapshot whatever commits, vacuums or checkpoints
//     later. No arena block, no batch, no Value copy.
//
//   - rowArena: a chunked bump allocator over []sqltypes.Value for every
//     other projection. A statement starts on plain-heap chunks — the
//     first sized to the first request, later ones doubling up to
//     arenaHeapValues — that nobody owns and the GC reclaims. Only a
//     result that has outgrown those (about a page of rows) draws pooled
//     arenaChunkValues slabs, which go back to the process-wide pool
//     wholesale when the owning Rows is Closed. Computed values are
//     written into the arena by value; string/BLOB payloads are
//     immutable Go strings shared with storage, so the arena never needs
//     to own byte data to stay safe.
//
//   - colBatch: a row-pointer buffer the projection sink fills (by
//     reference) and flushes a batch at a time: one rows × columns
//     block from the arena, each column written straight into it (a
//     plain copy loop for bare column references, one evalExpr sweep
//     per computed column). No staging columns, no transposition.
//
//   - rowList: the result's row headers until the statement finishes,
//     the first page of them in a pooled head and the rest in pooled
//     fixed-size blocks reused across statements, so out.Data is made
//     once, at the exact row count, for a 1-row lookup and a 100k-row
//     export alike.
//
// Ownership rules (the contract doc.go documents for callers):
//
//   - Rows returned by Query/QueryContext/Stmt.Query own their arena.
//     A small result holds no pooled slab: Close has nothing to release
//     and leaving it unclosed costs nothing. A large result's Close
//     recycles its slabs, after which the Data slices are invalid;
//     unclosed, the slabs are reclaimed by the GC and just miss the pool.
//   - Rows.Detach copies the result out of its arena onto the plain
//     heap (and releases the arena), for callers that retain results
//     indefinitely while closing eagerly elsewhere.
//   - Every SELECT execution makes its own two arenas (runSelectAt). A
//     Rows with a nil arena — stored-order, detached, cache-served, an
//     index-only aggregate's single row — holds no arena memory: its
//     rows are stored versions or plain-heap rows, and Close releases
//     nothing. A retained stored-order result keeps the versions it
//     returned alive after VACUUM unlinks them, bounded by what callers
//     keep plus the result cache's capacity.
//
// A join assembles each combination in one row buffer per execution
// and copies a row that passes the WHERE, once, into the second,
// scratch arena: the sink may hold it (a sort entry, a group's first
// row, a batch awaiting projection) until the statement finishes, when
// the scratch arena is released. The result rows copy values out of
// it, never alias it, so no delivered row is pinned in the result's
// arena.

// arenaChunkValues is the pooled slab size in Value slots: 8192 × 32
// bytes = 256 KiB per chunk, so a 100k-row projection needs a few dozen
// chunk grabs.
const arenaChunkValues = 8192

// Plain-heap chunks grow from arenaFirstValues (512 bytes: a one-row
// result pays for little more than its row) to arenaHeapValues (16 KiB):
// together ~1000 values, a 50-row page of any archive table, and all a
// closed large result gives up to the GC before it starts recycling.
const (
	arenaFirstValues = 16
	arenaHeapValues  = 512
)

// arenaChunkPool recycles slabs across statements, as array pointers so
// a Put boxes nothing. Chunks are zeroed before being returned so a
// pooled slab never pins old string payloads and a use-after-Close
// reads NULLs, not another statement's rows.
var arenaChunkPool = sync.Pool{
	New: func() any { return new([arenaChunkValues]sqltypes.Value) },
}

// rowArena is a chunked bump allocator for result-row value slices.
// Not safe for concurrent use: each statement execution owns its own.
type rowArena struct {
	cur    []sqltypes.Value   // remaining free slots of the newest chunk
	chunks [][]sqltypes.Value // pooled slabs, for release
	heap   int                // size of the newest plain-heap chunk; past arenaHeapValues = slabs only
}

// alloc returns a zeroed n-slot slice backed by the arena (capacity
// exactly n, so appends can never bleed into a neighbouring row).
// Requests larger than a chunk are served straight from the heap.
func (a *rowArena) alloc(n int) []sqltypes.Value {
	if n > arenaChunkValues {
		return make([]sqltypes.Value, n)
	}
	if n > len(a.cur) {
		// Plain heap for the first request, whatever its size, and for
		// doubling chunks after it up to arenaHeapValues; then pooled slabs.
		if size := max(n, 2*a.heap, arenaFirstValues); a.heap == 0 || size <= arenaHeapValues {
			a.heap = size
			a.cur = make([]sqltypes.Value, size)
		} else {
			chunk := arenaChunkPool.Get().(*[arenaChunkValues]sqltypes.Value)[:]
			a.chunks = append(a.chunks, chunk)
			a.cur = chunk
		}
	}
	s := a.cur[:n:n]
	a.cur = a.cur[n:]
	return s
}

// release returns every pooled chunk to the pool, zeroed. The arena is
// reusable (empty) afterwards; any slice previously handed out of a
// slab is invalid.
func (a *rowArena) release() {
	for i, chunk := range a.chunks {
		clear(chunk)
		arenaChunkPool.Put((*[arenaChunkValues]sqltypes.Value)(chunk))
		a.chunks[i] = nil
	}
	a.chunks = a.chunks[:0]
	a.cur, a.heap = nil, 0
}

// empty reports whether the arena has handed out nothing since it was
// made or released.
func (a *rowArena) empty() bool {
	return a.heap == 0
}

// markLarge ends the plain-heap phase: the caller has seen enough rows
// to know the result is large, so every later chunk is a pooled slab.
func (a *rowArena) markLarge() {
	a.heap = arenaChunkValues
}

// colBatchRows is the most source rows a colBatch projects per flush.
const colBatchRows = 1024

// A rowList keeps its first rowListHeapRows rows in a pooled rowHead,
// so a page-sized result allocates nothing but its exact out.Data;
// past that, rows go to pooled rowBlocks — a slab's worth of row
// headers each, so a 100k-row result takes a dozen.
const (
	rowListHeapRows = 64
	rowBlockRows    = arenaChunkValues
)

type (
	rowHead  [rowListHeapRows][]sqltypes.Value
	rowBlock [rowBlockRows][]sqltypes.Value
)

// rowHeadPool and rowBlockPool recycle header storage across
// statements. Both are cleared before being returned so a pooled one
// never pins rows.
var (
	rowHeadPool  = sync.Pool{New: func() any { return new(rowHead) }}
	rowBlockPool = sync.Pool{New: func() any { return new(rowBlock) }}
)

// rowList collects a result's rows until take makes out.Data once, at
// the exact row count, however many arrived: appending to out.Data
// would leave up to twice its rows in headers, and sizing it up front
// needs a row count nobody knows.
type rowList struct {
	head   [][]sqltypes.Value
	blocks []*rowBlock
	n      int
}

// add appends row.
func (l *rowList) add(row []sqltypes.Value) {
	if l.n < rowListHeapRows {
		if l.head == nil {
			l.head = rowHeadPool.Get().(*rowHead)[:0]
		}
		l.head = append(l.head, row)
	} else {
		i := (l.n - rowListHeapRows) % rowBlockRows
		if i == 0 {
			if l.blocks == nil {
				l.blocks = make([]*rowBlock, 0, 8)
			}
			l.blocks = append(l.blocks, rowBlockPool.Get().(*rowBlock))
		}
		l.blocks[len(l.blocks)-1][i] = row
	}
	l.n++
}

// at returns the slot of row i < l.n.
func (l *rowList) at(i int) *[]sqltypes.Value {
	if i < rowListHeapRows {
		return &l.head[i]
	}
	i -= rowListHeapRows
	return &l.blocks[i/rowBlockRows][i%rowBlockRows]
}

// truncate drops rows m and later, pooling the blocks left empty;
// truncate(0) empties the list and pools its head too.
func (l *rowList) truncate(m int) {
	for i := m; i < l.n; i++ {
		*l.at(i) = nil
	}
	l.head = l.head[:min(m, len(l.head))]
	if m == 0 && l.head != nil {
		rowHeadPool.Put((*rowHead)(l.head[:rowListHeapRows]))
		l.head = nil
	}
	keep := (max(m-rowListHeapRows, 0) + rowBlockRows - 1) / rowBlockRows
	for _, b := range l.blocks[keep:] {
		rowBlockPool.Put(b)
	}
	l.blocks, l.n = l.blocks[:keep], m
}

// take returns the collected rows as one exactly sized slice (nil for
// none) and empties the list, its blocks back in the pool.
func (l *rowList) take() [][]sqltypes.Value {
	var data [][]sqltypes.Value
	if l.n > 0 {
		data = make([][]sqltypes.Value, l.n)
		at := copy(data, l.head)
		for _, b := range l.blocks {
			at += copy(data[at:], b[:])
		}
	}
	l.truncate(0)
	return data
}

// colBatch is the columnar projection of source rows that are not their
// own result rows: the sink parks them in the result's rowList by
// reference (a lone table's rows alias storage,
// which is safe under the statement's read lock; joined rows sit in the
// scratch arena until the statement ends), then flush carves one
// rows × columns block out of the arena, projects the parked rows into
// it one COLUMN at a time and puts the projected rows in their place.
type colBatch struct {
	proj   []Expr
	colIdx []int // source slot for bare ColRef projections; -1 = general expr
	rows   int   // batch size: colBatchRows, or fewer so a batch's block fits a slab
	start  int   // list position of the batch's first parked row
}

func newColBatch(proj []Expr) *colBatch {
	cb := &colBatch{
		proj:   proj,
		colIdx: make([]int, len(proj)),
		rows:   max(min(colBatchRows, arenaChunkValues/max(len(proj), 1)), 1),
	}
	for i, e := range proj {
		cb.colIdx[i] = -1
		if cr, ok := e.(*ColRef); ok && cr.Index >= 0 {
			cb.colIdx[i] = cr.Index
		}
	}
	return cb
}

// push parks one source row in l, reporting whether the batch is full
// and must be flushed before the next push.
func (cb *colBatch) push(l *rowList, row []sqltypes.Value) bool {
	l.add(row)
	return l.n-cb.start == cb.rows
}

// flush projects the parked rows column-at-a-time into one arena block
// and swaps the projected rows in for them — only once every column is
// filled: a failing expression drops the parked rows and leaves the
// rows of earlier batches as they were.
func (cb *colBatch) flush(ctx *evalCtx, ar *rowArena, l *rowList) error {
	n, ncols := l.n-cb.start, len(cb.proj)
	if n == 0 {
		return nil
	}
	if n == cb.rows {
		// A full batch proves the result large: pooled slabs from here on.
		ar.markLarge()
	}
	block := ar.alloc(n * ncols)
	for j, k := range cb.colIdx {
		for i := 0; i < n; i++ {
			row := *l.at(cb.start + i)
			if k >= 0 {
				// Bare column reference: a plain copy, no evalExpr.
				block[i*ncols+j] = row[k]
				continue
			}
			ctx.vals = row
			v, err := evalExpr(cb.proj[j], ctx)
			if err != nil {
				l.truncate(cb.start)
				return err
			}
			block[i*ncols+j] = v
		}
	}
	for i := 0; i < n; i++ {
		*l.at(cb.start + i) = block[i*ncols : (i+1)*ncols : (i+1)*ncols]
	}
	cb.start = l.n
	return nil
}
