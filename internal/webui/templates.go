// Package webui is the servlet layer of the reproduction: it turns the
// XUIS into the paper's web interface — a dynamically generated QBE
// query form per table, hyperlinked result tables with four browsing
// modes (primary key, foreign key, BLOB/CLOB rematerialisation and
// DATALINK download), operation parameter forms generated from XUIS
// markup, code upload, and session-based user management with the
// guest policy from the demo. One writer draws the layout around every
// page (writePageHead, pageFoot). The pages of a visit — the query form
// and the results table — are written straight through it (render.go);
// the rest execute a content template between its head and foot.
package webui

import (
	"bufio"
	"html/template"
	"io"

	"repro/internal/core"
)

// pageStyle is the fixed part of the layout between the title and the
// sign-in line.
const pageStyle = ` — EASIA</title>
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
`

// pageFoot closes every page.
const pageFoot = "\n</body>\n</html>\n"

// writePageHead writes the layout above every page's content: the
// document head, who is signed in, the title and any error.
func writePageHead(w *bufio.Writer, title string, u core.User, errMsg string) {
	w.WriteString("<!DOCTYPE html>\n<html>\n<head>\n<title>")
	escHTML.write(w, title)
	w.WriteString(pageStyle)
	if u.Name != "" {
		w.WriteString(" | user: <b>")
		escHTML.write(w, u.Name)
		w.WriteString("</b>")
		if u.Guest {
			w.WriteString(" (guest)")
		}
		w.WriteString("\n | <a href=\"/logout\">logout</a>")
	} else {
		w.WriteString(` | <a href="/">login</a>`)
	}
	w.WriteString("\n</p>\n<h1>")
	escHTML.write(w, title)
	w.WriteString("</h1>\n")
	if errMsg != "" {
		w.WriteString(`<p class="err">`)
		escHTML.write(w, errMsg)
		w.WriteString("</p>")
	}
	w.WriteString("\n")
}

// writeTemplatePage writes a page whose content is a template: the
// layout head, content executed over data, the layout foot.
func writeTemplatePage(w io.Writer, title string, u core.User, errMsg string, content *template.Template, data any) {
	bw := pageWriter(w)
	writePageHead(bw, title, u, errMsg)
	_ = content.Execute(bw, data) // fails only on a write, as finishPage's Flush does
	bw.WriteString(pageFoot)
	finishPage(bw)
}

// mustContent parses the content template of a page drawn by
// writeTemplatePage.
func mustContent(name, text string) *template.Template {
	return template.Must(template.New(name).Parse(text))
}

var homeTmpl = mustContent("home", `
{{if not .User.Name}}
<h2>Login</h2>
<form method="POST" action="/login">
 <label>Username <input name="username" value="guest"></label>
 <label>Password <input type="password" name="password" value="guest"></label>
 <button type="submit">Login</button>
</form>
{{else}}
<h2>Search the archive</h2>
<p>Select a link to a query form for a particular table:</p>
<ul>
{{range .Tables}}
 <li><a href="/table?name={{.Name}}">{{.Display}}</a>
     (<a href="/query?table={{.Name}}&all=1">all data</a>)</li>
{{end}}
</ul>
<p class="meta"><a href="/xuis">View the active XUIS (XML user interface specification)</a></p>
{{end}}
`)

var opFormTmpl = mustContent("opform", `
<p>{{.Description}}</p>
<form method="POST" action="/oprun">
<input type="hidden" name="op" value="{{.Op}}">
<input type="hidden" name="colid" value="{{.ColID}}">
<input type="hidden" name="table" value="{{.Table}}">
{{range $k, $v := .Key}}<input type="hidden" name="pk_{{$k}}" value="{{$v}}">{{end}}
{{range .Params}}
 <p>{{.Description}}<br>
 {{if .Select}}
  <select name="{{.Select.Name}}" size="{{.Select.Size}}">
   {{range .Select.Options}}<option value="{{.Value}}">{{.Label}}</option>{{end}}
  </select>
 {{end}}
 {{range .Inputs}}
  <label><input type="{{.Type}}" name="{{.Name}}" value="{{.Value}}"> {{.Label}}</label>
 {{end}}
 </p>
{{end}}
<button type="submit">Run {{.Op}}</button>
</form>
`)

var opResultTmpl = mustContent("opresult", `
<p class="meta">operation {{.Op}} finished in {{.Elapsed}}
 ({{.Steps}} interpreter steps{{if .FromCache}}, served from cache{{end}}).</p>
{{if .Stdout}}<h2>Output</h2><pre class="output">{{.Stdout}}</pre>{{end}}
{{if .Files}}
<h2>Result files</h2>
<ul>
{{range .Files}}<li><a href="/opfile?run={{$.RunID}}&name={{.Name}}">{{.Name}}</a> ({{.Size}} bytes)</li>{{end}}
</ul>
{{end}}
<h2>Batch plan</h2>
<pre class="output">{{.BatchPlan}}</pre>
<p><a href="/">Home</a></p>
`)

var statusTmpl = mustContent("status", `
<p class="meta">The registered file-server hosts (the DATALINK tier
behind the archive's download links) and the archive's telemetry
headlines. The full Prometheus exposition is at
<a href="/metrics">/metrics</a>.</p>
{{if .Engine}}
<h2>Archive engine</h2>
<table class="results">
{{range .Engine}}<tr><th>{{.Name}}</th><td>{{.Value}}</td></tr>
{{end}}</table>
{{end}}
<h2>File servers</h2>
{{if .Hosts}}<ul>
{{range .Hosts}}<li>{{.}}</li>
{{end}}</ul>
{{else}}<p>No file servers registered.</p>{{end}}
<p><a href="/">Home</a></p>
`)

var uploadFormTmpl = mustContent("uploadform", `
<p>Upload post-processing code for secure server-side execution against
<b>{{.File}}</b>. The code must accept the dataset filename in the
variable <code>filename</code> and write output to relative filenames.</p>
<form method="POST" action="/upload">
<input type="hidden" name="colid" value="{{.ColID}}">
<input type="hidden" name="table" value="{{.Table}}">
{{range $k, $v := .Key}}<input type="hidden" name="pk_{{$k}}" value="{{$v}}">{{end}}
<p><label>Entry file name <input name="entry" value="main.easl"></label></p>
<p><textarea name="code" rows="16" cols="80">// EASL post-processing code
let info = datasetInfo(filename)
print("grid:", info.n)
</textarea></p>
<button type="submit">Upload and run</button>
</form>
`)
