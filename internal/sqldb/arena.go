package sqldb

import (
	"sync"

	"repro/internal/sqltypes"
)

// Arena/columnar result pipeline.
//
// A projection that makes one []Value per output row costs ~36MB and
// ~100k allocs per 100k projected rows. Two mechanisms avoid that, and
// both size what they allocate by the rows a statement returns, never
// by the table or by a fixed slab — the archive UI lives on 1–50-row
// results:
//
//   - rowArena: a chunked bump allocator over []sqltypes.Value. A
//     statement starts on plain-heap chunks — the first sized to the
//     first request, later ones doubling up to arenaHeapValues — that
//     nobody owns and the GC reclaims. Only a result that has outgrown
//     those (about a page of rows) draws pooled arenaChunkValues slabs,
//     which go back to the process-wide pool wholesale when the owning
//     Rows is Closed. Value structs are copied into the arena by value;
//     string/BLOB payloads are immutable Go strings shared with storage,
//     so the arena never needs to own byte data to stay safe.
//
//   - colBatch: a row-pointer buffer the projection sink fills (by
//     reference) and flushes a batch at a time: one rows × columns
//     block from the arena, each column written straight into it (a
//     plain copy loop for bare column references, one evalExpr sweep
//     per computed column). No staging columns, no transposition.
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
//   - Every SELECT execution makes its own two arenas (runSelectAt);
//     there is no arena-less mode. A Rows with a nil arena — detached,
//     cache-served, an index-only aggregate's single row — simply owns
//     plain-heap rows.
//
// Intermediate join rows use the second, scratch arena, released when
// the statement finishes (the result rows copy values out of them,
// never alias them), so the reuse benefits extend to the join paths
// without pinning intermediates in the result's arena.

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

// arenaChunkPool recycles slabs across statements. Chunks are zeroed
// before being returned so a pooled slab never pins old string payloads
// and a use-after-Close reads NULLs, not another statement's rows.
var arenaChunkPool = sync.Pool{
	New: func() any { return make([]sqltypes.Value, arenaChunkValues) },
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
	return a.allocCap(n, n)
}

// allocCap is alloc with extra capacity (len n, cap c ≥ n): the join
// assembly builds combined rows by appending to a base prefix, and the
// reserved capacity keeps that append inside the arena region.
func (a *rowArena) allocCap(n, c int) []sqltypes.Value {
	if c < n {
		c = n
	}
	if c > arenaChunkValues {
		return make([]sqltypes.Value, n, c)
	}
	if c > len(a.cur) {
		// Plain heap for the first request, whatever its size, and for
		// doubling chunks after it up to arenaHeapValues; then pooled slabs.
		if size := max(c, 2*a.heap, arenaFirstValues); a.heap == 0 || size <= arenaHeapValues {
			a.heap = size
			a.cur = make([]sqltypes.Value, size)
		} else {
			chunk := arenaChunkPool.Get().([]sqltypes.Value)
			a.chunks = append(a.chunks, chunk)
			a.cur = chunk
		}
	}
	s := a.cur[:n:c]
	a.cur = a.cur[c:]
	return s
}

// release returns every pooled chunk to the pool, zeroed. The arena is
// reusable (empty) afterwards; any slice previously handed out of a
// slab is invalid.
func (a *rowArena) release() {
	for i, chunk := range a.chunks {
		clear(chunk)
		arenaChunkPool.Put(chunk) //nolint:staticcheck // slabs are slice values by design
		a.chunks[i] = nil
	}
	a.chunks = a.chunks[:0]
	a.cur, a.heap = nil, 0
}

// markLarge ends the plain-heap phase: the caller has seen enough rows
// to know the result is large, so every later chunk is a pooled slab.
func (a *rowArena) markLarge() {
	a.heap = arenaChunkValues
}

// colBatchRows is the most source rows a colBatch buffers per flush.
const colBatchRows = 1024

// colBatch is the columnar projection buffer: source rows accumulate
// (by reference — a lone table's rows alias storage, which is safe under
// the statement's read lock; joined rows sit in the scratch arena until
// the statement ends), then flush carves one rows × columns
// block out of the arena and projects into it one COLUMN at a time.
type colBatch struct {
	proj   []Expr
	colIdx []int // source slot for bare ColRef projections; -1 = general expr
	src    [][]sqltypes.Value
	rows   int // batch size: colBatchRows, or fewer so a batch's block fits a slab
	est    int // out.Data capacity once a full batch proves the result large
}

// newColBatch prepares a batch for proj; est is the caller's row-count
// estimate for a result that outgrows the first batch.
func newColBatch(proj []Expr, est int) *colBatch {
	cb := &colBatch{
		proj:   proj,
		colIdx: make([]int, len(proj)),
		src:    make([][]sqltypes.Value, 0, 16),
		rows:   max(min(colBatchRows, arenaChunkValues/max(len(proj), 1)), 1),
		est:    est,
	}
	for i, e := range proj {
		cb.colIdx[i] = -1
		if cr, ok := e.(*ColRef); ok && cr.Index >= 0 {
			cb.colIdx[i] = cr.Index
		}
	}
	return cb
}

// push buffers one source row, reporting whether the batch is full and
// must be flushed before the next push.
func (cb *colBatch) push(row []sqltypes.Value) bool {
	cb.src = append(cb.src, row)
	return len(cb.src) == cb.rows
}

// flush projects the buffered rows column-at-a-time into one arena
// block and appends its rows to out.Data — only once every column is
// filled, so a failing expression leaves out.Data untouched. The first
// flush sizes out.Data: exactly, when the scan ended inside the first
// batch. The batch is empty after a successful flush.
func (cb *colBatch) flush(ctx *evalCtx, ar *rowArena, out *Rows) error {
	n, ncols := len(cb.src), len(cb.proj)
	if n == 0 {
		return nil
	}
	dataCap := n
	if n == cb.rows {
		// A full batch proves the result large: pooled slabs from here
		// on, and the caller's estimate for the row pointers.
		ar.markLarge()
		dataCap = max(n, cb.est)
	}
	block := ar.alloc(n * ncols)
	for j, k := range cb.colIdx {
		if k >= 0 {
			// Bare column reference: a plain copy loop, no dispatch.
			for i, row := range cb.src {
				block[i*ncols+j] = row[k]
			}
			continue
		}
		for i, row := range cb.src {
			ctx.vals = row
			v, err := evalExpr(cb.proj[j], ctx)
			if err != nil {
				return err
			}
			block[i*ncols+j] = v
		}
	}
	if out.Data == nil {
		out.Data = make([][]sqltypes.Value, 0, dataCap)
	}
	for i := 0; i < n; i++ {
		out.Data = append(out.Data, block[i*ncols:(i+1)*ncols:(i+1)*ncols])
	}
	cb.src = cb.src[:0]
	return nil
}
