package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dlfs"
	"repro/internal/med"
	"repro/internal/sqldb"
	"repro/internal/sqltypes"
)

// Spans are recorded from this directory only: around the calls the
// harness makes into public functions, and inside the decorators on
// the three seams the product exposes (core.FileHost,
// sqldb.LinkController, http.RoundTripper). Spans inside the product
// are a later change (ROADMAP item 4).

type spanName uint8

const (
	spOp      spanName = iota // one reader op
	spWriteOp                 // one writer step
	spForm
	spSearch
	spFK
	spPK
	spDownload
	spDownloadURL
	spArchiveFile
	spInsert
	spUpdate
	spRollup
	spJoin
	spTopK
	spProject
	spMedPrepare
	spMedCommit
	spMedAbort
	spDlfsPut
	spDlfsPrepare
	spDlfsCommit
	spDlfsAbort
	spDlfsEnsure
	spDlfsOpen
	spDlfsStat
	// Shadow calls repeat a part of the op just finished, outside its
	// timed window, to split a page into the layers below webui.
	spShadowSearch
	spShadowCompile
	spShadowPrepare
	spShadowQuery
	spShadowMint
	spShadowValidate
	nSpanNames
)

var spanLabels = [nSpanNames]string{
	"op", "write_op", "webui.form", "webui.search", "webui.fk", "webui.pk", "webui.download",
	"core.download_url", "core.archive_file", "sqldb.insert", "sqldb.update",
	"sqldb.rollup", "sqldb.join", "sqldb.topk", "sqldb.project",
	"med.prepare", "med.commit", "med.abort",
	"dlfs.put", "dlfs.prepare", "dlfs.commit", "dlfs.abort", "dlfs.ensure", "dlfs.open", "dlfs.stat",
	"shadow.core.search", "shadow.core.qbe_compile", "shadow.sqldb.prepare", "shadow.sqldb.query",
	"shadow.med.mint", "shadow.med.validate",
}

type span struct {
	name       spanName
	parent, op int32 // index of the enclosing span and of the op span; -1 = none
	start, end int64 // ns since the tracer's base
}

// lane is the span buffer of one client goroutine. It is preallocated
// and never shared, so recording a span is two clock reads and a store.
type lane struct {
	base  time.Time
	on    bool // false during the untraced blocks of a traced run
	spans []span
	stack []int32
	op    int32
}

func newLane(base time.Time, capacity int) *lane {
	return &lane{base: base, spans: make([]span, 0, capacity), stack: make([]int32, 0, 8), op: -1}
}

// begin opens a span under the innermost open one. A nil or switched-off
// lane returns -1, which end ignores.
func (l *lane) begin(name spanName) int32 {
	if l == nil || !l.on || len(l.spans) == cap(l.spans) {
		return -1
	}
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	idx := int32(len(l.spans))
	if name == spOp || name == spWriteOp {
		l.op = idx
	}
	l.spans = append(l.spans, span{name: name, parent: parent, op: l.op, start: int64(time.Since(l.base))})
	l.stack = append(l.stack, idx)
	return idx
}

func (l *lane) end(idx int32) {
	if idx < 0 {
		return
	}
	l.spans[idx].end = int64(time.Since(l.base))
	l.stack = l.stack[:len(l.stack)-1]
}

func (s span) dur() int64 { return s.end - s.start }

// tracer owns the lanes. Decorators cannot see which goroutine called
// them, so they pick the lane by what the call does: only a writer
// Puts, prepares and commits; only a reader opens and stats. In ingest
// the single client is both.
type tracer struct {
	read, write *lane
}

// tracedHost decorates a core.FileHost with a span per call.
type tracedHost struct {
	core.FileHost
	t *tracer
}

func (h tracedHost) Prepare(txID uint64, op med.LinkOp) error {
	defer h.t.write.end(h.t.write.begin(spDlfsPrepare))
	return h.FileHost.Prepare(txID, op)
}
func (h tracedHost) Commit(txID uint64) error {
	defer h.t.write.end(h.t.write.begin(spDlfsCommit))
	return h.FileHost.Commit(txID)
}
func (h tracedHost) Abort(txID uint64) error {
	defer h.t.write.end(h.t.write.begin(spDlfsAbort))
	return h.FileHost.Abort(txID)
}
func (h tracedHost) EnsureLinked(path string, opts sqltypes.DatalinkOptions) error {
	defer h.t.write.end(h.t.write.begin(spDlfsEnsure))
	return h.FileHost.EnsureLinked(path, opts)
}
func (h tracedHost) PutFile(path string, r io.Reader) error {
	defer h.t.write.end(h.t.write.begin(spDlfsPut))
	return h.FileHost.PutFile(path, r)
}
func (h tracedHost) OpenFile(path, token string) (io.ReadCloser, error) {
	defer h.t.read.end(h.t.read.begin(spDlfsOpen))
	return h.FileHost.OpenFile(path, token)
}
func (h tracedHost) StatFile(path string) (dlfs.FileInfo, error) {
	defer h.t.read.end(h.t.read.begin(spDlfsStat))
	return h.FileHost.StatFile(path)
}

// tracedLinks decorates the coordinator the archive installed; it is
// re-installed with DB.SetLinkController.
type tracedLinks struct {
	sqldb.LinkController
	t *tracer
}

func (c tracedLinks) PrepareLink(txID uint64, url string, opts sqltypes.DatalinkOptions) error {
	defer c.t.write.end(c.t.write.begin(spMedPrepare))
	return c.LinkController.PrepareLink(txID, url, opts)
}
func (c tracedLinks) PrepareUnlink(txID uint64, url string, opts sqltypes.DatalinkOptions) error {
	defer c.t.write.end(c.t.write.begin(spMedPrepare))
	return c.LinkController.PrepareUnlink(txID, url, opts)
}
func (c tracedLinks) Commit(txID uint64) error {
	defer c.t.write.end(c.t.write.begin(spMedCommit))
	return c.LinkController.Commit(txID)
}
func (c tracedLinks) Abort(txID uint64) error {
	defer c.t.write.end(c.t.write.begin(spMedAbort))
	return c.LinkController.Abort(txID)
}

// lanes lists the distinct lanes.
func (t *tracer) lanes() []*lane {
	if t.read == t.write {
		return []*lane{t.read}
	}
	return []*lane{t.read, t.write}
}

// childTime sums, per span, the time its direct children cover.
func childTime(spans []span) []int64 {
	out := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			out[s.parent] += s.dur()
		}
	}
	return out
}

// writeTrace writes one JSON object per span, one per line.
func (t *tracer) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for li, l := range t.lanes() {
		for i, s := range l.spans {
			fmt.Fprintf(w, `{"lane":%d,"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"op":%d}`+"\n",
				li, i, spanLabels[s.name], s.start, s.end, s.parent, s.op)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
