package webui

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
)

// FuzzQueryParamMatchesParseQuery: queryParam reads any raw query the
// way r.URL.Query().Get does — the first value wins, a pair holding a
// ';' or a bad escape is skipped, '+' is a space — parse errors ignored
// as r.URL.Query() ignores them.
func FuzzQueryParamMatchesParseQuery(f *testing.F) {
	for _, seed := range [][2]string{
		{"mode=pk&table=RESULT_FILE&col=SIMULATION_KEY&value=S19990110150932", "value"},
		{"a=1;b=2&a=3", "a"},
		{"a=1&b=2;c", "b"},
		{"a=%zz&a=ok", "a"},
		{"%zz=1&k=2", "k"},
		{"a+b=c+d&a%20b=e", "a b"},
		{"k=1&k=2&k=3", "k"},
		{"k&k=2", "k"},
		{"=v&&=w", ""},
		{"&&", ""},
		{"url=http%3A%2F%2Ffs1.sim%3A80%2Fa%2Ftok%3Bts4.tsf", "url"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		want, _ := url.ParseQuery(raw)
		if got := queryParam(raw, key); got != want.Get(key) {
			t.Fatalf("queryParam(%q, %q) = %q, url.ParseQuery gives %q", raw, key, got, want.Get(key))
		}
	})
}

// FuzzQueryFormMatchesParseForm: the one-pass decoder /query reads a
// form in the URL with refuses exactly the queries url.ParseQuery (and
// so ParseForm) refuses, and otherwise holds every key's values in the
// order sent — the same first value per key, the same sel order.
func FuzzQueryFormMatchesParseForm(f *testing.F) {
	for _, seed := range []string{
		"table=RESULT_FILE&sel=FILE_NAME&sel=TIMESTEP&op_TIMESTEP=%3E%3D&val_TIMESTEP=4&val_FILE_NAME=&limit=20&orderby=",
		"sel=B&sel=A&sel=B",
		"a=1;b=2&a=3",
		"a=%zz&a=ok",
		"%zz=1&k=2",
		"a+b=c+d&a%20b=e",
		"k&k=2&=v&&=w",
		"val_X=%20&val_X=1&op_X=&op_X=LIKE",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want, err := url.ParseQuery(raw)
		var form queryForm
		if ok := form.parse(raw); ok != (err == nil) {
			t.Fatalf("parse(%q) = %v, url.ParseQuery error %v", raw, ok, err)
		}
		if err != nil {
			return
		}
		got := url.Values{}
		for _, p := range form.pairs {
			got[p.key] = append(got[p.key], p.value)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parse(%q) holds %q, url.ParseQuery %q", raw, got, want)
		}
		for key := range want {
			if form.get(key) != want.Get(key) {
				t.Fatalf("get(%q) = %q on %q, url.ParseQuery gives %q", key, form.get(key), raw, want.Get(key))
			}
		}
	})
}

// FuzzQBEForm: whatever query a signed-in guest sends to /query, the
// handler answers 200 or 400 and does not panic, and a form BuildSQL
// compiles is SQL the engine prepares — the form, the QBE compiler and
// the parser agree on what a search is.
func FuzzQBEForm(f *testing.F) {
	for _, seed := range []string{
		"table=RESULT_FILE&all=1",
		"table=SIMULATION&sel=SIMULATION_KEY&sel=TITLE&op_TITLE=CONTAINS&val_TITLE=channel",
		"table=RESULT_FILE&sel=FILE_NAME&op_TIMESTEP=%3E%3D&val_TIMESTEP=4&orderby=TIMESTEP&desc=1&limit=3",
		"table=AUTHOR&op_NAME=%3D&val_NAME=x'%20OR%20'1'%3D'1",
		"table=author&sel=name&sel=NAME",
		"table=AUTHOR&op_NAME=DROP&val_NAME=x",
		"table=AUTHOR&op_NAME=STARTS&val_NAME=%25_%5C",
		"table=AUTHOR&orderby=NOPE",
		"table=AUTHOR&limit=-1",
		"table=AUTHOR;sel=NAME",
		"table=%zz",
		"table=NOPE",
		"",
	} {
		f.Add(seed)
	}
	ts := newSite(f)
	ws := ts.srv.Config.Handler.(*Server)
	guest, err := ts.archive.Users.Authenticate("guest", "guest")
	if err != nil {
		f.Fatal(err)
	}
	ws.sessions["fuzz"] = guest
	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest("GET", "/query", nil)
		req.URL.RawQuery = raw
		req.AddCookie(&http.Cookie{Name: sessionCookie, Value: "fuzz"})
		page := &discardPage{header: http.Header{}, code: http.StatusOK}
		ws.ServeHTTP(page, req)
		if page.code != http.StatusOK && page.code != http.StatusBadRequest {
			t.Fatalf("/query?%s: status %d", raw, page.code)
		}
		form, err := url.ParseQuery(raw)
		if err != nil {
			return // the handler refused it (400) before decoding a search
		}
		q, err := formQBE(ts.archive, form)
		if err != nil {
			return
		}
		sql, _, err := ts.archive.BuildSQL(q)
		if err != nil {
			return
		}
		if _, err := ts.archive.DB.Prepare(sql); err != nil {
			t.Fatalf("/query?%s compiled to %q, which does not prepare: %v", raw, sql, err)
		}
	})
}
