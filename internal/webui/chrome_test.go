package webui

import (
	"bufio"
	"bytes"
	"html/template"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sqltypes"
	"repro/internal/xuis"
)

// The page chrome as html/template drew it before the page writer took
// it over: the layout, the QBE form and the results page's head and
// foot, kept verbatim as oracles for FuzzChromeMatchesTemplate.

const pageHead = `<!DOCTYPE html>
<html>
<head>
<title>{{.Title}} — EASIA</title>
<style>
body { font-family: sans-serif; margin: 1.5em; }
table.results { border-collapse: collapse; }
table.results th, table.results td { border: 1px solid #888; padding: 3px 8px; }
table.results th { background: #dde; }
.meta { color: #555; font-size: 90%; }
.err { color: #a00; }
form.qbe td { padding: 2px 8px; }
pre.output { background: #f4f4f4; padding: 8px; border: 1px solid #ccc; }
</style>
</head>
<body>
<p class="meta">
EASIA — Extensible Architecture for Scientific Information Archives
{{if .User.Name}} | user: <b>{{.User.Name}}</b>{{if .User.Guest}} (guest){{end}}
 | <a href="/logout">logout</a>{{else}} | <a href="/">login</a>{{end}}
</p>
<h1>{{.Title}}</h1>
{{if .Error}}<p class="err">{{.Error}}</p>{{end}}
`

var pageTmpl = template.Must(template.New("page").Parse(pageHead + `{{template "content" .}}` + pageFoot))

func mustDefine(name, text string) *template.Template {
	t := template.Must(pageTmpl.Clone())
	template.Must(t.New("content").Parse(text))
	return t // executing t renders the full "page" layout
}

// layoutTmpl is the layout around content rendered beforehand.
var layoutTmpl = mustDefine("layout", `{{.Content}}`)

var queryFormTmpl = mustDefine("queryform", `
<p>Select the fields to be returned and add optional restrictions.
Wildcards (%, _) are allowed with the LIKE operator.</p>
<form class="qbe" method="GET" action="/query">
<input type="hidden" name="table" value="{{.Table}}">
<table class="results">
<tr><th>Return</th><th>Field</th><th>Operator</th><th>Restriction</th><th>Sample values</th></tr>
{{range .Fields}}
<tr>
 <td><input type="checkbox" name="sel" value="{{.Name}}" checked></td>
 <td>{{.Display}}</td>
 <td>
  <select name="op_{{.Name}}">
   {{range $.Operators}}<option>{{.}}</option>{{end}}
  </select>
 </td>
 <td><input name="val_{{.Name}}" list="dl_{{.Name}}"></td>
 <td>
  {{if .Samples}}
  <datalist id="dl_{{.Name}}">
   {{range .Samples}}<option value="{{.}}">{{end}}
  </datalist>
  <span class="meta">{{range $i, $s := .Samples}}{{if $i}}, {{end}}{{$s}}{{end}}</span>
  {{end}}
 </td>
</tr>
{{end}}
</table>
<p><label>Order by
 <select name="orderby"><option value=""></option>
  {{range .Fields}}<option value="{{.Name}}">{{.Display}}</option>{{end}}
 </select></label>
 <label><input type="checkbox" name="desc" value="1"> descending</label>
 <label>Limit <input name="limit" size="5"></label>
 <button type="submit">Search</button></p>
</form>
`)

var resultsHeadTmpl = template.Must(template.New("results").Parse(pageHead + `
<p class="meta">{{.Count}} row(s) from {{.TableDisplay}}.</p>
<table class="results">
<tr>`))
var resultsFootTmpl = template.Must(template.New("resultsfoot").Parse(`
</table>
<p><a href="/table?name={{.Table}}">New search on {{.TableDisplay}}</a> | <a href="/">Home</a></p>
` + pageFoot))

type queryFormView struct {
	Title     string
	User      core.User
	Error     string
	Table     string
	Fields    []formField
	Operators []string
}

type formField struct {
	Name    string
	Display string
	Samples []string
}

// buildQueryForm is the view the form template was executed over.
func buildQueryForm(t *xuis.Table, u core.User) *queryFormView {
	view := &queryFormView{
		Title:     "Query " + t.DisplayName(),
		User:      u,
		Table:     t.Name,
		Operators: []string{"=", "<>", "<", "<=", ">", ">=", "LIKE", "CONTAINS", "STARTS"},
	}
	for _, c := range t.VisibleColumns() {
		f := formField{Name: c.Name, Display: c.DisplayName()}
		if c.Samples != nil {
			f.Samples = c.Samples.Values
		}
		view.Fields = append(view.Fields, f)
	}
	return view
}

type resultsView struct {
	Title, Error, Table, TableDisplay string
	User                              core.User
	Count                             int
}

// FuzzChromeMatchesTemplate: the layout, the QBE form and the results
// page's chrome written through the page writer are the bytes the
// templates above produce for the same title, user, error, table and
// fields — including empty strings, NUL, invalid UTF-8 and every
// character the escapers rewrite.
func FuzzChromeMatchesTemplate(f *testing.F) {
	for _, s := range []string{"", "plain", `<>&'"+`, "\x00nul", "\xff\xfe bad utf8", "O'Brien & \"Sons\" → é", "a b+c=d&e?f/g#h%i"} {
		f.Add(s, s, false, s, s, s, s, s+"\n"+s, uint16(len(s)))
	}
	f.Add("Results", "guest", true, "", "RESULT_FILE", "FILE_NAME", "File Name", "ts4.tsf", uint16(3))
	f.Add("", "", true, "webui: unknown table NOPE", "NOPE", "", "", "\n\n", uint16(0))
	f.Fuzz(func(t *testing.T, title, name string, guest bool, errMsg, table, field, display, samples string, count uint16) {
		u := core.User{Name: name, Guest: guest}
		render := func(write func(w *bufio.Writer)) string {
			var b bytes.Buffer
			w := bufio.NewWriter(&b)
			write(w)
			w.Flush()
			return b.String()
		}
		execute := func(tmpl *template.Template, data any) string {
			var b strings.Builder
			if err := tmpl.Execute(&b, data); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		same := func(page, got, want string) {
			t.Helper()
			if got != want {
				t.Fatalf("%s: %s", page, firstDiff(want, got))
			}
		}

		var sampled *xuis.Samples
		if samples != "" {
			sampled = &xuis.Samples{Values: strings.Split(samples, "\n")}
		}
		tbl := &xuis.Table{Name: table, Alias: title, Columns: []*xuis.Column{
			{Name: field, Alias: display, Samples: sampled},
			{Name: "HIDDEN" + field, Hidden: true, Samples: sampled},
			{Name: field + "2", Samples: &xuis.Samples{}},
		}}
		same("query form",
			render(func(w *bufio.Writer) { writeQueryForm(w, tbl, u) }),
			execute(queryFormTmpl, buildQueryForm(tbl, u)))

		// The results page of count empty rows: its chrome around the
		// bytes the column plan writes for them.
		p := &pagePlan{display: display, u: u, rs: &core.ResultSet{Table: table, Rows: make([][]sqltypes.Value, count)}}
		view := &resultsView{Title: "Results from " + display, Table: table, TableDisplay: display, User: u, Count: int(count)}
		same("results page", render(p.writePage),
			execute(resultsHeadTmpl, view)+"</tr>\n"+strings.Repeat("\n<tr>\n \n</tr>\n", int(count))+execute(resultsFootTmpl, view))

		home := homeView{User: u, Tables: []tableEntry{{table, display}}}
		var got bytes.Buffer
		writeTemplatePage(&got, title, u, errMsg, homeTmpl, home)
		same("layout", got.String(), execute(layoutTmpl, struct {
			Title, Error string
			User         core.User
			Content      template.HTML
		}{title, errMsg, u, template.HTML(execute(homeTmpl, home))}))
	})
}
