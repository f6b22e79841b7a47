package webui

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/sqldb"
	"repro/internal/sqltypes"
	"repro/internal/xuis"
)

// escaper is one escaping context as a table: the bytes that replace
// each byte, "" for a byte kept as it is. Every page byte that comes
// from data goes through one of the three below, each held byte for
// byte to html/template by FuzzEscapersMatchTemplate.
type escaper [256]string

var (
	// escHTML escapes as html/template does text and a quoted attribute.
	escHTML = &escaper{0: "\uFFFD", '"': "&#34;", '&': "&amp;", '\'': "&#39;", '+': "&#43;", '<': "&lt;", '>': "&gt;"}
	// escQueryHTML is escHTML of url.QueryEscape in one pass, a value
	// in a quoted href's query as url.Values encodes it: %XX, and a
	// space as the '+' escHTML rewrites.
	escQueryHTML = percentEscaper("0123456789ABCDEF", "&#43;")
	// escQueryValue escapes as html/template does a raw value in a
	// quoted href's query: %xx.
	escQueryValue = percentEscaper("0123456789abcdef", "%20")
)

// percentEscaper escapes every byte but RFC 3986's unreserved ones as a
// '%' and two of the given hex digits, and a space as space.
func percentEscaper(digits, space string) *escaper {
	e := new(escaper)
	for c := range e {
		if b := byte(c); !('a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' || strings.IndexByte("-._~", b) >= 0) {
			e[c] = "%" + digits[c>>4:c>>4+1] + digits[c&15:c&15+1]
		}
	}
	e[' '] = space
	return e
}

// append appends s escaped to dst.
func (e *escaper) append(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		if r := e[s[i]]; r != "" {
			dst = append(append(dst, s[last:i]...), r...)
			last = i + 1
		}
	}
	return append(dst, s[last:]...)
}

// write writes s escaped to w.
func (e *escaper) write(w *bufio.Writer, s string) {
	last := 0
	for i := 0; i < len(s); i++ {
		if r := e[s[i]]; r != "" {
			w.WriteString(s[last:i])
			w.WriteString(r)
			last = i + 1
		}
	}
	w.WriteString(s[last:])
}

// pageWriters recycles the buffered writers pages stream through.
var pageWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 8<<10) }}

// pageWriter returns a pooled writer onto w; finishPage flushes it and
// gives it back.
func pageWriter(w io.Writer) *bufio.Writer {
	bw := pageWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

func finishPage(bw *bufio.Writer) {
	_ = bw.Flush() // a failed write is a client gone away: nothing left to tell it
	bw.Reset(nil)
	pageWriters.Put(bw)
}

// linkMarkup is a hyperlink already escaped into a buffer: buf[open:mid]
// is its markup up to the cell value that completes the href, and
// buf[mid:end] the rest, label and all.
type linkMarkup struct{ open, mid, end int }

// pageLayout is what every results page of one shape shares — the
// spec generation, table schema, table and result columns it was
// compiled from — so the paper's four browsing modes cost a lookup per
// column, not per cell, and a shape is compiled from the XUIS once. A
// layoutMemo builds it on a shape's first page; after that it is only
// read, by any number of pages at once.
type pageLayout struct {
	gen     uint64
	schema  *sqldb.TableSchema
	table   string
	columns []string

	display string // the table's name as the XUIS shows it
	header  []byte // the header cells, escaped
	cols    []colPlan
	arena   []byte // every column's browsing links, escaped

	// keys are the primary key's columns in pk_<COLUMN> order; empty
	// unless the result carries the whole key.
	keys []keyCol
}

// colPlan is one result column of a pageLayout.
type colPlan struct {
	column string       // upper-cased
	colID  string       // "TABLE.COLUMN", as operations name the column
	col    sqldb.Column // a DATALINK token lives for its EXPIRY
	links  []linkMarkup // FK and PK browsing links, in the layout's arena
	subst  fkSubst
	ops    bool // the XUIS attaches an operation or an upload
}

// keyCol is a primary-key column's name and position in the result.
type keyCol struct {
	name string
	pos  int
}

// fkSubst shows a column of the referenced row in place of a foreign
// key, looked up once per distinct key on a page; column is "" when
// the XUIS substitutes nothing.
type fkSubst struct{ refTable, refCol, column string }

// layoutMemo holds page layouts by a hash of their shape. A hit is
// checked against the whole shape, so a collision costs a rebuild,
// never a wrong page; a full memo starts over empty.
type layoutMemo struct {
	seed    maphash.Seed
	mu      sync.Mutex
	layouts map[uint64]*pageLayout
}

// layoutMemoCap bounds the memo: a shape is a select list, so a client
// can make as many as it likes.
const layoutMemoCap = 512

func newLayoutMemo() *layoutMemo {
	return &layoutMemo{seed: maphash.MakeSeed(), layouts: make(map[uint64]*pageLayout)}
}

// layout returns the layout of rs's page under the installed spec.
func (m *layoutMemo) layout(a *core.Archive, rs *core.ResultSet) *pageLayout {
	spec, gen := a.SpecGeneration()
	schema, _ := a.DB.Catalog().Table(rs.Table)
	var h maphash.Hash
	h.SetSeed(m.seed)
	var genBytes [8]byte
	binary.LittleEndian.PutUint64(genBytes[:], gen)
	h.Write(genBytes[:])
	h.WriteString(rs.Table)
	for _, c := range rs.Columns {
		h.WriteByte(0)
		h.WriteString(c)
	}
	key := h.Sum64()
	m.mu.Lock()
	l := m.layouts[key]
	m.mu.Unlock()
	if l != nil && l.gen == gen && l.schema == schema && l.table == rs.Table && slices.Equal(l.columns, rs.Columns) {
		return l
	}
	l = newPageLayout(spec, gen, schema, rs.Table, rs.Columns)
	m.mu.Lock()
	if len(m.layouts) >= layoutMemoCap {
		clear(m.layouts)
	}
	m.layouts[key] = l
	m.mu.Unlock()
	return l
}

// newPageLayout compiles the layout of a page of columns from table
// (with schema, nil for none) under spec (nil for none: raw names, no
// links).
func newPageLayout(spec *xuis.Spec, gen uint64, schema *sqldb.TableSchema, table string, columns []string) *pageLayout {
	l := &pageLayout{gen: gen, schema: schema, table: table, columns: slices.Clone(columns),
		display: table, cols: make([]colPlan, len(columns))}
	specTable := &xuis.Table{}
	if spec != nil {
		if t, ok := spec.Table(table); ok {
			specTable, l.display = t, t.DisplayName()
		}
	}
	for j, name := range columns {
		c := &l.cols[j]
		c.column = strings.ToUpper(name)
		c.colID = table + "." + c.column
		if schema != nil {
			c.col, _ = schema.Col(name)
		}
		header := name
		if m, ok := specTable.Column(name); ok {
			header = m.DisplayName()
			if m.FK != nil {
				if refTable, refCol, err := xuis.SplitColID(m.FK.TableColumn); err == nil {
					c.links = l.browseLink(c.links, "fk", refTable, refCol, "details", "")
					if _, column, err := xuis.SplitColID(m.FK.SubstColumn); err == nil {
						c.subst = fkSubst{refTable, refCol, column}
					}
				}
			}
			if m.PK != nil {
				for _, ref := range m.PK.RefBy {
					if childTable, childCol, err := xuis.SplitColID(ref.TableColumn); err == nil {
						c.links = l.browseLink(c.links, "pk", childTable, childCol, "→ ", childTable)
					}
				}
			}
			c.ops = len(m.Operations) > 0 || m.Upload != nil
		}
		l.header = escHTML.append(append(l.header, "<th>"...), header)
		l.header = append(l.header, "</th>"...)
	}
	if schema != nil {
		for _, pk := range schema.PrimaryKey {
			j := slices.IndexFunc(columns, func(col string) bool { return strings.EqualFold(col, pk) })
			if j < 0 {
				l.keys = nil
				break
			}
			l.keys = append(l.keys, keyCol{pk, j})
		}
		slices.SortFunc(l.keys, func(x, y keyCol) int { return strings.Compare(x.name, y.name) })
	}
	return l
}

// browseLink escapes a browsing link of the given mode into the arena
// and appends its markup to links.
func (l *pageLayout) browseLink(links []linkMarkup, mode, table, col, label, name string) []linkMarkup {
	m := linkMarkup{open: len(l.arena)}
	l.arena = escQueryHTML.append(append(l.arena, ` <a href="/browse?col=`...), col)
	l.arena = escQueryHTML.append(append(append(append(l.arena, "&amp;mode="...), mode...), "&amp;table="...), table)
	l.arena = append(l.arena, "&amp;value="...)
	m.mid = len(l.arena)
	l.arena = appendLabel(l.arena, label, name)
	m.end = len(l.arena)
	return append(links, m)
}

// appendLabel closes a link's href and appends its label — label as it
// is, then name escaped — and the closing tag.
func appendLabel(dst []byte, label, name string) []byte {
	dst = escHTML.append(append(append(dst, `">`...), label...), name)
	return append(dst, "</a>"...)
}

// pagePlan is one results page being written: its layout's parts,
// shared and read-only, and what is the request's own — the rows, the
// user, the operations engine, FK substitutions and the buffers a row
// is escaped into, which a pool keeps from page to page.
type pagePlan struct {
	display string
	header  []byte
	cols    []colPlan
	arena   []byte
	keys    []keyCol

	a   *core.Archive
	rs  *core.ResultSet
	u   core.User
	eng *ops.Engine

	keyRow int    // the row key was encoded for
	key    []byte // row keyRow's "&pk_<COLUMN>=value" parameters, escaped

	memo  map[substKey]string // FK substitutions made on this page
	cell  []byte              // a LOB or DATALINK cell's links, or a cell's linked text, escaped
	links []linkMarkup        // their markup in cell
	row   []byte              // the row being written
}

type substKey struct {
	col int
	key string
}

func (p *pagePlan) substitute(j int, key string) string {
	if s, ok := p.memo[substKey{j, key}]; ok {
		return s
	}
	f := &p.cols[j].subst
	s, err := p.a.SubstituteFK(f.refTable, f.refCol, f.column, key)
	if err != nil {
		s = key
	}
	p.memo[substKey{j, key}] = s
	return s
}

// pagePlans recycles plans; releasePlan gives one back.
var pagePlans = sync.Pool{New: func() any { return &pagePlan{memo: map[substKey]string{}} }}

// planPage plans the results page for rs as seen by u on layout l.
func planPage(a *core.Archive, l *pageLayout, rs *core.ResultSet, u core.User) *pagePlan {
	p := pagePlans.Get().(*pagePlan)
	p.display, p.header, p.cols, p.arena, p.keys = l.display, l.header, l.cols, l.arena, l.keys
	p.a, p.rs, p.u, p.eng, p.keyRow = a, rs, u, a.Ops(), -1
	return p
}

// releasePlan gives p back to the pool once its page is written.
func releasePlan(p *pagePlan) {
	p.header, p.cols, p.arena, p.keys = nil, nil, nil, nil
	clear(p.memo)
	p.a, p.rs, p.eng, p.u = nil, nil, nil, core.User{}
	pagePlans.Put(p)
}

// writePage writes the whole results page: the layout head, the header
// cells, every row, and the foot. A row is escaped into one buffer and
// written whole.
func (p *pagePlan) writePage(w *bufio.Writer) {
	writePageHead(w, "Results from "+p.display, p.u, "")
	w.WriteString("\n<p class=\"meta\">")
	w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(len(p.rs.Rows)), 10))
	w.WriteString(" row(s) from ")
	escHTML.write(w, p.display)
	w.WriteString(".</p>\n<table class=\"results\">\n<tr>")
	w.Write(p.header)
	w.WriteString("</tr>\n")
	for i, row := range p.rs.Rows {
		b := append(p.row[:0], "\n<tr>\n "...)
		for j, v := range row {
			b = append(b, "\n <td>\n  "...)
			b = p.appendCell(b, i, row, j, v)
			b = append(b, "\n </td>\n "...)
		}
		p.row = append(b, "\n</tr>\n"...)
		w.Write(p.row)
	}
	w.WriteString("\n</table>\n<p><a href=\"/table?name=")
	escQueryValue.write(w, p.rs.Table)
	w.WriteString(`">New search on `)
	escHTML.write(w, p.display)
	w.WriteString("</a> | <a href=\"/\">Home</a></p>\n" + pageFoot)
}

// appendCell appends cell j of row i, escaped, to dst.
func (p *pagePlan) appendCell(dst []byte, i int, row []sqltypes.Value, j int, v sqltypes.Value) []byte {
	c := &p.cols[j]
	switch k := v.Kind(); k {
	case sqltypes.KindNull:
		return dst
	case sqltypes.KindDatalink:
		text := p.datalinkLinks(i, row, c, v)
		return appendLinked(dst, p.cell[:text], p.cell, p.links, "")
	case sqltypes.KindBytes, sqltypes.KindClob:
		// "Hypertext link displays size of object — rematerialised and
		// returned to the client."
		p.cell, p.links = p.cell[:0], p.links[:0]
		if len(p.keys) > 0 {
			p.cell = escQueryHTML.append(append(p.cell, ` <a href="/lob?col=`...), c.column)
			p.cell = escQueryHTML.append(append(append(p.cell, p.rowKey(i, row)...), "&amp;table="...), p.rs.Table)
			p.cell = append(p.cell, `">`...)
		}
		p.cell = strconv.AppendInt(append(append(p.cell, k.String()...), " ("...), int64(v.Size()), 10)
		p.cell = append(p.cell, " bytes)"...)
		if len(p.keys) == 0 {
			return append(dst, p.cell...) // a kind's name and a count escape to themselves
		}
		p.cell = append(p.cell, "</a>"...)
		p.links = append(p.links, linkMarkup{0, len(p.cell), len(p.cell)})
		return appendLinked(dst, nil, p.cell, p.links, "")
	default:
		if c.subst.column == "" && (k == sqltypes.KindInt || k == sqltypes.KindDouble) {
			if out, ok := appendLinkedNumber(dst, v, p.arena, c.links); ok {
				return out
			}
		}
		value := v.AsString()
		text := value
		if c.subst.column != "" {
			text = p.substitute(j, value)
		}
		if len(c.links) == 0 {
			return escHTML.append(dst, text)
		}
		p.cell = escHTML.append(p.cell[:0], text)
		return appendLinked(dst, p.cell, p.arena, c.links, value)
	}
}

// appendNumber appends an INTEGER or DOUBLE value's text, as AsString
// spells it, to dst. It reports false for a DOUBLE spelled with a '+'
// (an exponent or +Inf), the one byte of a number that text and query
// escaping rewrite.
func appendNumber(dst []byte, v sqltypes.Value) ([]byte, bool) {
	if v.Kind() == sqltypes.KindInt {
		return strconv.AppendInt(dst, v.Int(), 10), true
	}
	n := len(dst)
	dst = strconv.AppendFloat(dst, v.Double(), 'g', -1, 64)
	return dst, bytes.IndexByte(dst[n:], '+') < 0
}

// appendLinked appends a cell's escaped text, or the text and then its
// links on a line of their own, value completing each link's href.
func appendLinked(dst, text, buf []byte, links []linkMarkup, value string) []byte {
	if len(links) == 0 {
		return append(dst, text...)
	}
	dst = append(append(append(dst, "\n    "...), text...), "\n    "...)
	for _, l := range links {
		dst = escQueryHTML.append(append(dst, buf[l.open:l.mid]...), value)
		dst = append(dst, buf[l.mid:l.end]...)
	}
	return append(dst, "\n  "...)
}

// appendLinkedNumber is appendLinked for a number: its digits are both
// its text and its escaped value. It reports false, dst unchanged, for
// a number appendNumber does not accept.
func appendLinkedNumber(dst []byte, v sqltypes.Value, buf []byte, links []linkMarkup) ([]byte, bool) {
	n := len(dst)
	if len(links) > 0 {
		dst = append(dst, "\n    "...)
	}
	start := len(dst)
	dst, ok := appendNumber(dst, v)
	if !ok {
		return dst[:n], false
	}
	if len(links) == 0 {
		return dst, true
	}
	num := dst[start:len(dst):len(dst)] // appends below never write it
	dst = append(dst, "\n    "...)
	for _, l := range links {
		dst = append(append(append(dst, buf[l.open:l.mid]...), num...), buf[l.mid:l.end]...)
	}
	return append(dst, "\n  "...), true
}

// datalinkLinks escapes a DATALINK cell into p.cell — its text, the
// file name and size, then a tokenized download link for users allowed
// one and the operations and upload the XUIS offers on the row — and
// returns where the text ends. The row's colid→value map operations
// test their conditions on is built only for a column the XUIS attaches
// one to.
func (p *pagePlan) datalinkLinks(i int, row []sqltypes.Value, c *colPlan, v sqltypes.Value) int {
	p.cell, p.links = p.cell[:0], p.links[:0]
	parsed, err := sqltypes.ParseDatalinkURL(v.Str())
	if err != nil {
		p.cell = escHTML.append(p.cell, v.Str())
		return len(p.cell)
	}
	p.cell = escHTML.append(p.cell, parsed.File())
	if size, err := p.a.LinkedFileSize(v.Str()); err == nil {
		// A count and its frame escape to themselves.
		p.cell = append(strconv.AppendInt(append(p.cell, " ("...), size, 10), " bytes)"...)
	}
	text := len(p.cell)
	if p.u.CanDownload() {
		if tokURL, err := p.a.DownloadURLFor(c.col, v.Str(), p.u); err == nil {
			open := len(p.cell)
			p.cell = escQueryHTML.append(append(p.cell, ` <a href="/download?url=`...), tokURL)
			p.cellLink(open, "download", "")
		}
	}
	if p.eng != nil && c.ops {
		rowMap, user := p.rs.Row(i), ops.User{Name: p.u.Name, Guest: p.u.Guest}
		for _, op := range p.eng.Applicable(c.colID, rowMap, user) {
			open := len(p.cell)
			p.cell = escQueryHTML.append(append(p.cell, ` <a href="/opform?colid=`...), c.colID)
			p.cell = escQueryHTML.append(append(p.cell, "&amp;op="...), op.Name)
			p.cell = escQueryHTML.append(append(append(p.cell, p.rowKey(i, row)...), "&amp;table="...), p.rs.Table)
			p.cellLink(open, "op:", op.Name)
		}
		if p.u.CanUpload() && p.eng.CanUpload(c.colID, rowMap, user) {
			open := len(p.cell)
			p.cell = escQueryHTML.append(append(p.cell, ` <a href="/uploadform?colid=`...), c.colID)
			p.cell = escQueryHTML.append(append(append(p.cell, p.rowKey(i, row)...), "&amp;table="...), p.rs.Table)
			p.cellLink(open, "upload code", "")
		}
	}
	return text
}

// cellLink closes the link whose href p.cell holds from open on with
// its label and records its markup in p.links.
func (p *pagePlan) cellLink(open int, label, name string) {
	mid := len(p.cell)
	p.cell = appendLabel(p.cell, label, name)
	p.links = append(p.links, linkMarkup{open, mid, len(p.cell)})
}

// rowKey returns row i's "&pk_<COLUMN>=value" parameters, escaped for
// an href (none without the whole key), encoded once, for the first
// cell that links by key.
func (p *pagePlan) rowKey(i int, row []sqltypes.Value) []byte {
	if p.keyRow != i {
		p.key = p.key[:0]
		for _, k := range p.keys {
			p.key = escQueryHTML.append(append(p.key, "&amp;pk_"...), k.name)
			p.key = escQueryHTML.append(append(p.key, '='), row[k.pos].AsString())
		}
		p.keyRow = i
	}
	return p.key
}

// operatorOptions are the QBE form's operator choices, escaped once.
var operatorOptions = func() string {
	var b []byte
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">=", "LIKE", "CONTAINS", "STARTS"} {
		b = append(escHTML.append(append(b, "<option>"...), op), "</option>"...)
	}
	return string(b)
}()

// writeQueryForm writes the QBE form page for t, read from the XUIS as
// it stands: a field per visible column with its operators and samples,
// then the ordering and limit controls.
func writeQueryForm(w *bufio.Writer, t *xuis.Table, u core.User) {
	writePageHead(w, "Query "+t.DisplayName(), u, "")
	w.WriteString(`
<p>Select the fields to be returned and add optional restrictions.
Wildcards (%, _) are allowed with the LIKE operator.</p>
<form class="qbe" method="GET" action="/query">
<input type="hidden" name="table" value="`)
	escHTML.write(w, t.Name)
	w.WriteString(`">
<table class="results">
<tr><th>Return</th><th>Field</th><th>Operator</th><th>Restriction</th><th>Sample values</th></tr>
`)
	cols := t.VisibleColumns()
	for _, c := range cols {
		w.WriteString("\n<tr>\n <td><input type=\"checkbox\" name=\"sel\" value=\"")
		escHTML.write(w, c.Name)
		w.WriteString("\" checked></td>\n <td>")
		escHTML.write(w, c.DisplayName())
		w.WriteString("</td>\n <td>\n  <select name=\"op_")
		escHTML.write(w, c.Name)
		w.WriteString("\">\n   ")
		w.WriteString(operatorOptions)
		w.WriteString("\n  </select>\n </td>\n <td><input name=\"val_")
		escHTML.write(w, c.Name)
		w.WriteString(`" list="dl_`)
		escHTML.write(w, c.Name)
		w.WriteString("\"></td>\n <td>\n  ")
		if c.Samples != nil && len(c.Samples.Values) > 0 {
			w.WriteString("\n  <datalist id=\"dl_")
			escHTML.write(w, c.Name)
			w.WriteString("\">\n   ")
			for _, s := range c.Samples.Values {
				w.WriteString(`<option value="`)
				escHTML.write(w, s)
				w.WriteString(`">`)
			}
			w.WriteString("\n  </datalist>\n  <span class=\"meta\">")
			for i, s := range c.Samples.Values {
				if i > 0 {
					w.WriteString(", ")
				}
				escHTML.write(w, s)
			}
			w.WriteString("</span>\n  ")
		}
		w.WriteString("\n </td>\n</tr>\n")
	}
	w.WriteString(`
</table>
<p><label>Order by
 <select name="orderby"><option value=""></option>
  `)
	for _, c := range cols {
		w.WriteString(`<option value="`)
		escHTML.write(w, c.Name)
		w.WriteString(`">`)
		escHTML.write(w, c.DisplayName())
		w.WriteString("</option>")
	}
	w.WriteString(`
 </select></label>
 <label><input type="checkbox" name="desc" value="1"> descending</label>
 <label>Limit <input name="limit" size="5"></label>
 <button type="submit">Search</button></p>
</form>
` + pageFoot)
}
