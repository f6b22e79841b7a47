package core

import (
	"testing"

	"repro/internal/sqltypes"
)

// TestBuildSQLText pins the exact SQL text and arguments a QBE compiles
// to. The text is the plan-cache key and the slow-log line of every
// search, so a compiler rewrite must reproduce it byte for byte.
func TestBuildSQLText(t *testing.T) {
	a, _, _ := newArchive(t, "")
	if err := a.InitTurbulenceSchema(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		q    QBE
		sql  string
		args []string
	}{
		{
			name: "all columns",
			q:    QBE{Table: "simulation"},
			sql:  "SELECT SIMULATION_KEY, AUTHOR_KEY, TITLE, DESCRIPTION, GRID_SIZE, REYNOLDS, NUM_TIMESTEPS, CREATED FROM SIMULATION",
		},
		{
			name: "selected columns",
			q:    QBE{Table: "RESULT_FILE", Select: []string{"timestep", "FILE_NAME", "Download_Result"}},
			sql:  "SELECT TIMESTEP, FILE_NAME, DOWNLOAD_RESULT FROM RESULT_FILE",
		},
		{
			name: "every operator",
			q: QBE{Table: "RESULT_FILE", Restrictions: []Restriction{
				{Column: "timestep", Op: "=", Value: "1"},
				{Column: "TIMESTEP", Op: "<>", Value: "2"},
				{Column: "TIMESTEP", Op: "<", Value: "3"},
				{Column: "TIMESTEP", Op: "<=", Value: "4"},
				{Column: "TIMESTEP", Op: ">", Value: "5"},
				{Column: "TIMESTEP", Op: ">=", Value: "6"},
				{Column: "FILE_NAME", Op: " like ", Value: "ts%_"},
				{Column: "FILE_NAME", Op: "contains", Value: "a%b_c"},
				{Column: "measurement", Op: "STARTS", Value: `u_v%\`},
				{Column: "FILE_FORMAT", Op: "=", Value: "  "}, // blank: no restriction
				{Column: "FILE_SIZE", Op: "", Value: ""},      // empty: no restriction
			}},
			sql: "SELECT FILE_NAME, SIMULATION_KEY, TIMESTEP, MEASUREMENT, FILE_FORMAT, FILE_SIZE, DOWNLOAD_RESULT FROM RESULT_FILE" +
				" WHERE TIMESTEP = ? AND TIMESTEP <> ? AND TIMESTEP < ? AND TIMESTEP <= ? AND TIMESTEP > ? AND TIMESTEP >= ?" +
				" AND FILE_NAME LIKE ? AND FILE_NAME LIKE ? AND MEASUREMENT LIKE ?",
			args: []string{"1", "2", "3", "4", "5", "6", "ts%_", `%a\%b\_c%`, `u\_v\%\%`},
		},
		{
			name: "order by descending with a limit",
			q: QBE{Table: "AUTHOR", Select: []string{"NAME"}, OrderBy: "author_key", Desc: true, Limit: 25,
				Restrictions: []Restriction{{Column: "ORGANISATION", Op: "STARTS", Value: "Univ"}}},
			sql:  "SELECT NAME FROM AUTHOR WHERE ORGANISATION LIKE ? ORDER BY AUTHOR_KEY DESC LIMIT 25",
			args: []string{"Univ%"},
		},
		{
			name: "descending without an order is ignored",
			q:    QBE{Table: "AUTHOR", Select: []string{"EMAIL", "NAME"}, Desc: true, Limit: 1234567},
			sql:  "SELECT EMAIL, NAME FROM AUTHOR LIMIT 1234567",
		},
		{
			name: "ascending order, no limit",
			q:    QBE{Table: "AUTHOR", Select: []string{"NAME"}, OrderBy: "NAME", Limit: 0},
			sql:  "SELECT NAME FROM AUTHOR ORDER BY NAME",
		},
	} {
		sql, args, err := a.BuildSQL(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sql != c.sql {
			t.Errorf("%s:\n got %q\nwant %q", c.name, sql, c.sql)
		}
		if len(args) != len(c.args) {
			t.Errorf("%s: %d args, want %d", c.name, len(args), len(c.args))
			continue
		}
		for i, v := range args {
			if v.Kind() != sqltypes.KindString || v.Str() != c.args[i] {
				t.Errorf("%s: arg %d is %v %q, want the string %q", c.name, i, v.Kind(), v.Str(), c.args[i])
			}
		}
	}
}
