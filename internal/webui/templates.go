// Package webui is the servlet layer of the reproduction: it turns the
// XUIS into the paper's web interface — a dynamically generated QBE
// query form per table, hyperlinked result tables with four browsing
// modes (primary key, foreign key, BLOB/CLOB rematerialisation and
// DATALINK download), operation parameter forms generated from XUIS
// markup, code upload, and session-based user management with the
// guest policy from the demo. Every page is a template over one layout
// but the results table, which streams through a column plan
// (render.go) between the chrome of resultsHeadTmpl and resultsFootTmpl.
package webui

import "html/template"

// pageHead and pageFoot are the layout around every page's content.
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

const pageFoot = "\n</body>\n</html>\n"

// pageTmpl is the shared layout; every page executes one of the named
// content templates defined below.
var pageTmpl = template.Must(template.New("page").Parse(pageHead + `{{template "content" .}}` + pageFoot))

func mustDefine(name, text string) *template.Template {
	t := template.Must(pageTmpl.Clone())
	template.Must(t.New("content").Parse(text))
	return t // executing t renders the full "page" layout
}

var homeTmpl = mustDefine("home", `
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

// resultsHeadTmpl and resultsFootTmpl frame the streamed results table.
var resultsHeadTmpl = template.Must(template.New("results").Parse(pageHead + `
<p class="meta">{{.Count}} row(s) from {{.TableDisplay}}.</p>
<table class="results">
<tr>`))
var resultsFootTmpl = template.Must(template.New("resultsfoot").Parse(`
</table>
<p><a href="/table?name={{.Table}}">New search on {{.TableDisplay}}</a> | <a href="/">Home</a></p>
` + pageFoot))

var opFormTmpl = mustDefine("opform", `
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

var opResultTmpl = mustDefine("opresult", `
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

var statusTmpl = mustDefine("status", `
<p class="meta">Replication health of the registered file-server hosts
(the DATALINK tier behind the archive's download links) and the
archive's telemetry headlines. The full Prometheus exposition is at
<a href="/metrics">/metrics</a>.</p>
{{if .Engine}}
<h2>Archive engine</h2>
<table class="results">
{{range .Engine}}<tr><th>{{.Name}}</th><td>{{.Value}}</td></tr>
{{end}}</table>
{{end}}
{{if not .Hosts}}<p>No file servers registered.</p>{{end}}
{{range .Hosts}}
<h2>{{.Host}}</h2>
{{if .Replicated}}
<table class="results">
<tr><th>Members</th><td>{{range $i, $m := .Members}}{{if $i}}, {{end}}{{$m}}{{end}}</td></tr>
<tr><th>Down</th><td>
 {{if .Down}}<span class="err">{{range $i, $m := .Down}}{{if $i}}, {{end}}{{$m}}{{end}}</span>
 {{else}}none{{end}}</td></tr>
<tr><th>Under-replicated paths</th><td>
 {{if .UnderReplicated}}<span class="err">{{len .UnderReplicated}}</span>:
  {{range $i, $p := .UnderReplicated}}{{if $i}}, {{end}}<code>{{$p}}</code>{{end}}
 {{else}}none{{end}}</td></tr>
{{range .MetricRows}}<tr><th>{{.Name}}</th><td>{{.Value}}</td></tr>
{{end}}</table>
{{else}}
<p class="meta">single manager (no replica set)</p>
{{end}}
{{end}}
<p><a href="/">Home</a></p>
`)

var uploadFormTmpl = mustDefine("uploadform", `
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
