package webui

import (
	"bufio"
	"fmt"
	"io"
	"net/url"
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

// htmlEscaper escapes exactly as html/template does a string in text
// and in a quoted attribute (FuzzEscapersMatchTemplate).
var htmlEscaper = strings.NewReplacer("\x00", "\uFFFD", `"`, "&#34;", "&", "&amp;", "'", "&#39;", "+", "&#43;", "<", "&lt;", ">", "&gt;")

// queryValueEscaper escapes exactly as html/template does a raw string
// in the query of a quoted href: every byte but RFC 3986's unreserved
// ones becomes %xx in lowercase hex (FuzzEscapersMatchTemplate).
var queryValueEscaper = func() *strings.Replacer {
	var oldnew []string
	for c := 0; c < 256; c++ {
		b := byte(c)
		if 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' || strings.IndexByte("-._~", b) >= 0 {
			continue
		}
		oldnew = append(oldnew, string([]byte{b}), fmt.Sprintf("%%%02x", b))
	}
	return strings.NewReplacer(oldnew...)
}()

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

// link is a hyperlink beside a cell's text, its href completed by the value.
type link struct{ href, label string }

// pagePlan is a results page compiled from the XUIS and the schema
// before its first row is written, so the paper's four browsing modes
// cost a lookup per column, not per cell. It is built per request: a
// plan over a handful of columns costs less than keeping a cache fresh.
type pagePlan struct {
	display string // the table's name as the XUIS shows it
	a       *core.Archive
	rs      *core.ResultSet
	u       core.User
	eng     *ops.Engine
	cols    []colPlan

	// keyCols are the result positions of the primary key in pk_<COLUMN>
	// order; nil unless the result carries the whole key.
	keyCols  []int
	keyNames []string
	keyRow   int    // the row key was encoded for
	key      string // row keyRow's "&pk_<COLUMN>=value" parameters
	links    []link // scratch for a LOB or DATALINK cell's links
}

// colPlan is one result column of a pagePlan.
type colPlan struct {
	header, colID, table, column string
	col                          sqldb.Column // a DATALINK token lives for its EXPIRY
	links                        []link       // FK and PK browsing links
	subst                        *fkSubst
}

// fkSubst shows a column of the referenced row in place of a foreign
// key, looked up once per distinct key on a page.
type fkSubst struct {
	refTable, refCol, column string
	memo                     map[string]string
}

func (f *fkSubst) lookup(a *core.Archive, key string) string {
	if s, ok := f.memo[key]; ok {
		return s
	}
	s, err := a.SubstituteFK(f.refTable, f.refCol, f.column, key)
	if err != nil {
		s = key
	}
	f.memo[key] = s
	return s
}

// planPage compiles the results page for rs as seen by u.
func planPage(a *core.Archive, rs *core.ResultSet, u core.User) *pagePlan {
	p := &pagePlan{display: rs.Table, a: a, rs: rs, u: u, eng: a.Ops(), keyRow: -1, cols: make([]colPlan, len(rs.Columns))}
	specTable := &xuis.Table{} // no XUIS: raw names, no links
	if spec := a.Spec(); spec != nil {
		if t, ok := spec.Table(rs.Table); ok {
			specTable, p.display = t, t.DisplayName()
		}
	}
	schema, _ := a.DB.Catalog().Table(rs.Table)
	for j, name := range rs.Columns {
		c := &p.cols[j]
		c.header, c.colID = name, rs.ColIDs[j]
		c.table, c.column, _ = xuis.SplitColID(c.colID)
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
				c.links = append(c.links, link{browseHref("fk", refTable, refCol), "details"})
				if _, column, err := xuis.SplitColID(m.FK.SubstColumn); err == nil {
					c.subst = &fkSubst{refTable, refCol, column, map[string]string{}}
				}
			}
		}
		if m.PK != nil {
			for _, ref := range m.PK.RefBy {
				if childTable, childCol, err := xuis.SplitColID(ref.TableColumn); err == nil {
					c.links = append(c.links, link{browseHref("pk", childTable, childCol), "→ " + childTable})
				}
			}
		}
	}
	if schema != nil {
		for _, pk := range slices.Sorted(slices.Values(schema.PrimaryKey)) {
			j := slices.IndexFunc(rs.Columns, func(col string) bool { return strings.EqualFold(col, pk) })
			if j < 0 {
				p.keyCols, p.keyNames = nil, nil
				break
			}
			p.keyCols, p.keyNames = append(p.keyCols, j), append(p.keyNames, pk)
		}
	}
	return p
}

func browseHref(mode, table, col string) string {
	return "/browse?col=" + url.QueryEscape(col) + "&mode=" + mode + "&table=" + url.QueryEscape(table) + "&value="
}

// writePage writes the whole results page: the layout head, the header
// cells, every row, and the foot.
func (p *pagePlan) writePage(w *bufio.Writer) {
	writePageHead(w, "Results from "+p.display, p.u, "")
	w.WriteString("\n<p class=\"meta\">")
	w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(len(p.rs.Rows)), 10))
	w.WriteString(" row(s) from ")
	htmlEscaper.WriteString(w, p.display)
	w.WriteString(".</p>\n<table class=\"results\">\n<tr>")
	for _, c := range p.cols {
		w.WriteString("<th>")
		htmlEscaper.WriteString(w, c.header)
		w.WriteString("</th>")
	}
	w.WriteString("</tr>\n")
	for i, row := range p.rs.Rows {
		w.WriteString("\n<tr>\n ")
		for j, v := range row {
			w.WriteString("\n <td>\n  ")
			p.writeCell(w, i, row, &p.cols[j], v)
			w.WriteString("\n </td>\n ")
		}
		w.WriteString("\n</tr>\n")
	}
	w.WriteString("\n</table>\n<p><a href=\"/table?name=")
	queryValueEscaper.WriteString(w, p.rs.Table)
	w.WriteString(`">New search on `)
	htmlEscaper.WriteString(w, p.display)
	w.WriteString("</a> | <a href=\"/\">Home</a></p>\n" + pageFoot)
}

func (p *pagePlan) writeCell(w *bufio.Writer, i int, row []sqltypes.Value, c *colPlan, v sqltypes.Value) {
	switch v.Kind() {
	case sqltypes.KindNull:
	case sqltypes.KindDatalink:
		writeLinked(w, p.datalinkText(i, row, c, v), p.links, "")
	case sqltypes.KindBytes, sqltypes.KindClob:
		// "Hypertext link displays size of object — rematerialised and
		// returned to the client."
		label := fmt.Sprintf("%s (%d bytes)", v.Kind(), v.Size())
		if p.keyCols == nil {
			htmlEscaper.WriteString(w, label)
			return
		}
		href := "/lob?col=" + url.QueryEscape(c.column) + p.rowKey(i, row) + "&table=" + url.QueryEscape(c.table)
		p.links = append(p.links[:0], link{href, label})
		writeLinked(w, "", p.links, "")
	default:
		value := v.AsString()
		text := value
		if c.subst != nil {
			text = c.subst.lookup(p.a, value)
		}
		writeLinked(w, text, c.links, value)
	}
}

// writeLinked writes a cell's text, or the text and then its links on
// a line of their own.
func writeLinked(w *bufio.Writer, text string, links []link, value string) {
	if len(links) == 0 {
		htmlEscaper.WriteString(w, text)
		return
	}
	w.WriteString("\n    ")
	htmlEscaper.WriteString(w, text)
	w.WriteString("\n    ")
	for _, l := range links {
		w.WriteString(` <a href="`)
		htmlEscaper.WriteString(w, l.href)
		htmlEscaper.WriteString(w, url.QueryEscape(value))
		w.WriteString(`">`)
		htmlEscaper.WriteString(w, l.label)
		w.WriteString("</a>")
	}
	w.WriteString("\n  ")
}

// datalinkText renders a DATALINK cell's text — the file name and
// size — and leaves in p.links a tokenized download link for users
// allowed one and the operations and upload the XUIS offers on the row.
func (p *pagePlan) datalinkText(i int, row []sqltypes.Value, c *colPlan, v sqltypes.Value) string {
	p.links = p.links[:0]
	parsed, err := sqltypes.ParseDatalinkURL(v.Str())
	if err != nil {
		return v.Str()
	}
	text := parsed.File()
	if h, ok := p.a.Host(parsed.Host); ok {
		if fi, err := h.StatFile(parsed.Path); err == nil {
			text = fmt.Sprintf("%s (%d bytes)", parsed.File(), fi.Size)
		}
	}
	if p.u.CanDownload() {
		if tokURL, err := p.a.DownloadURLFor(c.col, v.Str(), p.u); err == nil {
			p.links = append(p.links, link{"/download?url=" + url.QueryEscape(tokURL), "download"})
		}
	}
	if p.eng != nil {
		rowMap, user := p.rs.Row(i), ops.User{Name: p.u.Name, Guest: p.u.Guest}
		for _, op := range p.eng.Applicable(c.colID, rowMap, user) {
			href := "/opform?colid=" + url.QueryEscape(c.colID) + "&op=" + url.QueryEscape(op.Name) + p.rowKey(i, row) + "&table=" + url.QueryEscape(c.table)
			p.links = append(p.links, link{href, "op:" + op.Name})
		}
		if p.u.CanUpload() && p.eng.CanUpload(c.colID, rowMap, user) {
			href := "/uploadform?colid=" + url.QueryEscape(c.colID) + p.rowKey(i, row) + "&table=" + url.QueryEscape(c.table)
			p.links = append(p.links, link{href, "upload code"})
		}
	}
	return text
}

// rowKey returns row i's "&pk_<COLUMN>=value" parameters (none without
// the whole key), encoded once, for the first cell that links by key.
func (p *pagePlan) rowKey(i int, row []sqltypes.Value) string {
	if p.keyRow != i {
		var b strings.Builder
		for k, j := range p.keyCols {
			b.WriteString("&pk_" + url.QueryEscape(p.keyNames[k]) + "=" + url.QueryEscape(row[j].AsString()))
		}
		p.key, p.keyRow = b.String(), i
	}
	return p.key
}

// operatorOptions are the QBE form's operator choices, escaped once.
var operatorOptions = func() string {
	var b strings.Builder
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">=", "LIKE", "CONTAINS", "STARTS"} {
		b.WriteString("<option>" + htmlEscaper.Replace(op) + "</option>")
	}
	return b.String()
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
	htmlEscaper.WriteString(w, t.Name)
	w.WriteString(`">
<table class="results">
<tr><th>Return</th><th>Field</th><th>Operator</th><th>Restriction</th><th>Sample values</th></tr>
`)
	cols := t.VisibleColumns()
	for _, c := range cols {
		w.WriteString("\n<tr>\n <td><input type=\"checkbox\" name=\"sel\" value=\"")
		htmlEscaper.WriteString(w, c.Name)
		w.WriteString("\" checked></td>\n <td>")
		htmlEscaper.WriteString(w, c.DisplayName())
		w.WriteString("</td>\n <td>\n  <select name=\"op_")
		htmlEscaper.WriteString(w, c.Name)
		w.WriteString("\">\n   ")
		w.WriteString(operatorOptions)
		w.WriteString("\n  </select>\n </td>\n <td><input name=\"val_")
		htmlEscaper.WriteString(w, c.Name)
		w.WriteString(`" list="dl_`)
		htmlEscaper.WriteString(w, c.Name)
		w.WriteString("\"></td>\n <td>\n  ")
		if c.Samples != nil && len(c.Samples.Values) > 0 {
			w.WriteString("\n  <datalist id=\"dl_")
			htmlEscaper.WriteString(w, c.Name)
			w.WriteString("\">\n   ")
			for _, s := range c.Samples.Values {
				w.WriteString(`<option value="`)
				htmlEscaper.WriteString(w, s)
				w.WriteString(`">`)
			}
			w.WriteString("\n  </datalist>\n  <span class=\"meta\">")
			for i, s := range c.Samples.Values {
				if i > 0 {
					w.WriteString(", ")
				}
				htmlEscaper.WriteString(w, s)
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
		htmlEscaper.WriteString(w, c.Name)
		w.WriteString(`">`)
		htmlEscaper.WriteString(w, c.DisplayName())
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
