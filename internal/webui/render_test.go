package webui

import (
	"html/template"
	"net/url"
	"strings"
	"testing"
)

// escapeOracle renders s the way the results template used to: as a
// text node, and as the query value of an href built with url.Values.
var escapeOracle = template.Must(template.New("t").Parse(`{{.Text}}|<a href="{{.Href}}">`))

// FuzzEscapersMatchTemplate: the page writer's escaper produces the
// bytes html/template produces for the same string, in text and in a
// quoted href holding a query-encoded value — including NUL, invalid
// UTF-8 and every character either context rewrites.
func FuzzEscapersMatchTemplate(f *testing.F) {
	for _, s := range []string{
		"", "plain", `O'Brien & "Sons" <lab> + 1`, "a b+c=d&e?f/g#h%i", "→ é ü", "\x00nul", "\xff\xfe bad utf8",
		"\uFFFD\uFDD0\uFFFF", "http://fs1.sim:80/vol0/run1/tok_-en;ts4.tsf", "~-._",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var want strings.Builder
		if err := escapeOracle.Execute(&want, struct{ Text, Href string }{s, "/x?v=" + url.QueryEscape(s)}); err != nil {
			t.Skip(err)
		}
		got := htmlEscaper.Replace(s) + `|<a href="` + htmlEscaper.Replace("/x?v="+url.QueryEscape(s)) + `">`
		if got != want.String() {
			t.Fatalf("escaping %q:\n got %q\nwant %q", s, got, want.String())
		}
	})
}
