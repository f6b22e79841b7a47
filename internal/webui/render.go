package webui

import (
	"bufio"
	"bytes"
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

// pagePlan is a results page compiled from the XUIS and the schema
// before its first row is written, so the paper's four browsing modes
// cost a lookup per column, not per cell. It is built per request from
// the spec as it stands, into buffers a pool keeps from page to page;
// nothing about a page is cached.
type pagePlan struct {
	display string // the table's name as the XUIS shows it
	a       *core.Archive
	rs      *core.ResultSet
	u       core.User
	eng     *ops.Engine
	cols    []colPlan
	arena   []byte // every column's browsing links, escaped once per page

	// keys are the primary key's columns in pk_<COLUMN> order; empty
	// unless the result carries the whole key.
	keys   []keyCol
	keyRow int    // the row key was encoded for
	key    []byte // row keyRow's "&pk_<COLUMN>=value" parameters, escaped

	memo  map[substKey]string // FK substitutions made on this page
	cell  []byte              // a LOB or DATALINK cell's links, escaped
	links []linkMarkup        // their markup in cell
}

// colPlan is one result column of a pagePlan.
type colPlan struct {
	header, column string
	colID          string       // "TABLE.COLUMN", formed by the first DATALINK cell for its operations
	col            sqldb.Column // a DATALINK token lives for its EXPIRY
	links          []linkMarkup // FK and PK browsing links, in the plan's arena
	subst          fkSubst
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

// planPage compiles the results page for rs as seen by u.
func planPage(a *core.Archive, rs *core.ResultSet, u core.User) *pagePlan {
	p := pagePlans.Get().(*pagePlan)
	p.display, p.a, p.rs, p.u, p.eng, p.keyRow = rs.Table, a, rs, u, a.Ops(), -1
	p.arena, p.keys = p.arena[:0], p.keys[:0]
	p.cols = slices.Grow(p.cols[:0], len(rs.Columns))[:len(rs.Columns)]
	specTable := &xuis.Table{} // no XUIS: raw names, no links
	if spec := a.Spec(); spec != nil {
		if t, ok := spec.Table(rs.Table); ok {
			specTable, p.display = t, t.DisplayName()
		}
	}
	schema, _ := a.DB.Catalog().Table(rs.Table)
	for j, name := range rs.Columns {
		c := &p.cols[j]
		*c = colPlan{header: name, column: strings.ToUpper(name), links: c.links[:0]}
		if schema != nil {
			c.col, _ = schema.Col(name)
		}
		m, ok := specTable.Column(name)
		if !ok {
			continue
		}
		c.header = m.DisplayName()
		if m.FK != nil {
			if refTable, refCol, err := xuis.SplitColID(m.FK.TableColumn); err == nil {
				c.links = p.browseLink(c.links, "fk", refTable, refCol, "details", "")
				if _, column, err := xuis.SplitColID(m.FK.SubstColumn); err == nil {
					c.subst = fkSubst{refTable, refCol, column}
				}
			}
		}
		if m.PK != nil {
			for _, ref := range m.PK.RefBy {
				if childTable, childCol, err := xuis.SplitColID(ref.TableColumn); err == nil {
					c.links = p.browseLink(c.links, "pk", childTable, childCol, "→ ", childTable)
				}
			}
		}
	}
	if schema != nil {
		for _, pk := range schema.PrimaryKey {
			j := slices.IndexFunc(rs.Columns, func(col string) bool { return strings.EqualFold(col, pk) })
			if j < 0 {
				p.keys = p.keys[:0]
				break
			}
			p.keys = append(p.keys, keyCol{pk, j})
		}
		slices.SortFunc(p.keys, func(x, y keyCol) int { return strings.Compare(x.name, y.name) })
	}
	return p
}

// browseLink escapes a browsing link of the given mode into the arena
// and appends its markup to links.
func (p *pagePlan) browseLink(links []linkMarkup, mode, table, col, label, name string) []linkMarkup {
	l := linkMarkup{open: len(p.arena)}
	p.arena = escQueryHTML.append(append(p.arena, ` <a href="/browse?col=`...), col)
	p.arena = escQueryHTML.append(append(append(append(p.arena, "&amp;mode="...), mode...), "&amp;table="...), table)
	p.arena = append(p.arena, "&amp;value="...)
	l.mid = len(p.arena)
	p.arena = appendLabel(p.arena, label, name)
	l.end = len(p.arena)
	return append(links, l)
}

// appendLabel closes a link's href and appends its label — label as it
// is, then name escaped — and the closing tag.
func appendLabel(dst []byte, label, name string) []byte {
	dst = escHTML.append(append(append(dst, `">`...), label...), name)
	return append(dst, "</a>"...)
}

// releasePlan gives p back to the pool once its page is written.
func releasePlan(p *pagePlan) {
	for j := range p.cols {
		p.cols[j] = colPlan{links: p.cols[j].links[:0]}
	}
	clear(p.memo)
	p.a, p.rs, p.eng, p.u = nil, nil, nil, core.User{}
	pagePlans.Put(p)
}

// writePage writes the whole results page: the layout head, the header
// cells, every row, and the foot.
func (p *pagePlan) writePage(w *bufio.Writer) {
	writePageHead(w, "Results from "+p.display, p.u, "")
	w.WriteString("\n<p class=\"meta\">")
	w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(len(p.rs.Rows)), 10))
	w.WriteString(" row(s) from ")
	escHTML.write(w, p.display)
	w.WriteString(".</p>\n<table class=\"results\">\n<tr>")
	for _, c := range p.cols {
		w.WriteString("<th>")
		escHTML.write(w, c.header)
		w.WriteString("</th>")
	}
	w.WriteString("</tr>\n")
	for i, row := range p.rs.Rows {
		w.WriteString("\n<tr>\n ")
		for j, v := range row {
			w.WriteString("\n <td>\n  ")
			p.writeCell(w, i, row, j, v)
			w.WriteString("\n </td>\n ")
		}
		w.WriteString("\n</tr>\n")
	}
	w.WriteString("\n</table>\n<p><a href=\"/table?name=")
	escQueryValue.write(w, p.rs.Table)
	w.WriteString(`">New search on `)
	escHTML.write(w, p.display)
	w.WriteString("</a> | <a href=\"/\">Home</a></p>\n" + pageFoot)
}

func (p *pagePlan) writeCell(w *bufio.Writer, i int, row []sqltypes.Value, j int, v sqltypes.Value) {
	c := &p.cols[j]
	switch k := v.Kind(); k {
	case sqltypes.KindNull:
	case sqltypes.KindDatalink:
		text := p.datalinkLinks(i, row, c, v)
		writeLinked(w, p.cell[:text], p.cell, p.links, "")
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
			w.Write(p.cell) // a kind's name and a count escape to themselves
			return
		}
		p.cell = append(p.cell, "</a>"...)
		p.links = append(p.links, linkMarkup{0, len(p.cell), len(p.cell)})
		writeLinked(w, nil, p.cell, p.links, "")
	default:
		if c.subst.column == "" && (k == sqltypes.KindInt || k == sqltypes.KindDouble) {
			if _, ok := appendNumber(w.AvailableBuffer(), v); ok {
				writeLinkedNumber(w, v, p.arena, c.links)
				return
			}
		}
		value := v.AsString()
		text := value
		if c.subst.column != "" {
			text = p.substitute(j, value)
		}
		p.cell = escHTML.append(p.cell[:0], text)
		writeLinked(w, p.cell, p.arena, c.links, value)
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

// writeLinked writes a cell's escaped text, or the text and then its
// links on a line of their own, value completing each link's href.
func writeLinked(w *bufio.Writer, text, buf []byte, links []linkMarkup, value string) {
	if len(links) == 0 {
		w.Write(text)
		return
	}
	w.WriteString("\n    ")
	w.Write(text)
	w.WriteString("\n    ")
	for _, l := range links {
		w.Write(buf[l.open:l.mid])
		escQueryHTML.write(w, value)
		w.Write(buf[l.mid:l.end])
	}
	w.WriteString("\n  ")
}

// writeLinkedNumber is writeLinked for a number appendNumber accepts:
// its digits are both its text and its escaped value, so they go
// straight into the writer's buffer.
func writeLinkedNumber(w *bufio.Writer, v sqltypes.Value, buf []byte, links []linkMarkup) {
	writeNumber := func() {
		num, _ := appendNumber(w.AvailableBuffer(), v)
		w.Write(num)
	}
	if len(links) == 0 {
		writeNumber()
		return
	}
	w.WriteString("\n    ")
	writeNumber()
	w.WriteString("\n    ")
	for _, l := range links {
		w.Write(buf[l.open:l.mid])
		writeNumber()
		w.Write(buf[l.mid:l.end])
	}
	w.WriteString("\n  ")
}

// datalinkLinks escapes a DATALINK cell into p.cell — its text, the
// file name and size, then a tokenized download link for users allowed
// one and the operations and upload the XUIS offers on the row — and
// returns where the text ends.
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
	if p.eng != nil {
		if c.colID == "" {
			c.colID = p.rs.Table + "." + c.column
		}
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
