package webui

import (
	"bufio"
	"bytes"
	"html/template"
	"net/url"
	"strings"
	"testing"
)

// escapeOracle renders s the way the results template used to: as a
// text node, as the query value of an href built with url.Values, and
// as a raw value in an href's query (the foot's /table?name= link).
var escapeOracle = template.Must(template.New("t").Parse(`{{.Text}}|<a href="{{.Href}}">|<a href="/table?name={{.Raw}}">`))

// FuzzEscapersMatchTemplate: the page writer's escapers, appending and
// writing, produce the bytes html/template produces for the same string,
// in text, in a quoted href holding a query-encoded value and in a
// quoted href's query holding the raw value — including NUL, invalid
// UTF-8 and every character any of the contexts rewrites.
func FuzzEscapersMatchTemplate(f *testing.F) {
	for _, s := range []string{
		"", "plain", `O'Brien & "Sons" <lab> + 1`, "a b+c=d&e?f/g#h%i", "→ é ü", "\x00nul", "\xff\xfe bad utf8",
		"\uFFFD\uFDD0\uFFFF", "http://fs1.sim:80/vol0/run1/tok_-en;ts4.tsf", "~-._",
	} {
		f.Add(s)
	}
	f.Add("%41%zz!#$&'()*+,/:;=?@[]")
	f.Add("\x7f\x80 \t\n")
	f.Fuzz(func(t *testing.T, s string) {
		var want strings.Builder
		if err := escapeOracle.Execute(&want, struct{ Text, Href, Raw string }{s, "/x?v=" + url.QueryEscape(s), s}); err != nil {
			t.Skip(err)
		}
		appended := escHTML.append(nil, s)
		appended = escQueryHTML.append(escHTML.append(append(appended, `|<a href="`...), "/x?v="), s)
		appended = escQueryValue.append(append(appended, `">|<a href="/table?name=`...), s)
		appended = append(appended, `">`...)
		var written bytes.Buffer
		w := bufio.NewWriter(&written)
		escHTML.write(w, s)
		w.WriteString(`|<a href="`)
		escHTML.write(w, "/x?v=")
		escQueryHTML.write(w, s)
		w.WriteString(`">|<a href="/table?name=`)
		escQueryValue.write(w, s)
		w.WriteString(`">`)
		w.Flush()
		for _, got := range []string{string(appended), written.String()} {
			if got != want.String() {
				t.Fatalf("escaping %q:\n got %q\nwant %q", s, got, want.String())
			}
		}
	})
}
