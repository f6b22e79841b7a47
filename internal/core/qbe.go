package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/sqldb"
	"repro/internal/sqltypes"
)

// QBE is the Query-by-Example model behind the paper's query forms:
// "the user selects the fields to be returned. Also for each field
// present, restrictions including wildcards may be put on the values".
type QBE struct {
	Table string
	// Select lists the columns to return; empty means all visible
	// columns ("alternatively request all data for a table").
	Select       []string
	Restrictions []Restriction
	OrderBy      string
	Desc         bool
	Limit        int // 0 = no limit
}

// Restriction is one field condition from the form.
type Restriction struct {
	Column string
	Op     string // = <> < <= > >= LIKE CONTAINS STARTS
	Value  string
}

// qbeOps maps form operators to SQL. CONTAINS and STARTS are
// conveniences that compile to LIKE patterns.
var qbeOps = map[string]string{
	"=": "=", "<>": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
	"LIKE": "LIKE", "CONTAINS": "LIKE", "STARTS": "LIKE",
}

// escapeLike neutralises user-supplied wildcard characters when the
// operator injects its own wildcards.
func escapeLike(s string) string {
	s = strings.ReplaceAll(s, `%`, `\%`)
	return strings.ReplaceAll(s, `_`, `\_`)
}

// BuildSQL compiles a QBE into parameterised SQL against the archive
// schema, rejecting unknown tables, columns and operators (the form is
// user input; nothing is spliced into the SQL text).
func (a *Archive) BuildSQL(q QBE) (string, []sqltypes.Value, error) {
	sql, args, _, err := a.buildSQL(q)
	return sql, args, err
}

// buildSQL is BuildSQL, also returning the schema the SQL was compiled
// against. The text is appended into one buffer: it is the plan-cache
// key of every search, so it must not cost more than the lookup it keys.
func (a *Archive) buildSQL(q QBE) (string, []sqltypes.Value, *sqldb.TableSchema, error) {
	schema, ok := a.DB.Catalog().Table(q.Table)
	if !ok {
		return "", nil, nil, fmt.Errorf("core: unknown table %s", q.Table)
	}
	// The form offers each column once, so a longer or repeating list is
	// not a form submission: it would compile a projection as wide as the
	// request is long over every matching row.
	if len(q.Select) > len(schema.Cols) {
		return "", nil, nil, fmt.Errorf("core: %d columns selected, %s has %d", len(q.Select), q.Table, len(schema.Cols))
	}
	var buf [256]byte
	sql := append(buf[:0], "SELECT "...)
	if len(q.Select) == 0 {
		for i, c := range schema.Cols {
			if i > 0 {
				sql = append(sql, ", "...)
			}
			sql = append(sql, strings.ToUpper(c.Name)...)
		}
	}
	var seenBuf [16]int
	seen := seenBuf[:0]
	for i, c := range q.Select {
		j := schema.ColIndex(c)
		if j < 0 {
			return "", nil, nil, fmt.Errorf("core: unknown column %s.%s", q.Table, c)
		}
		if slices.Contains(seen, j) {
			return "", nil, nil, fmt.Errorf("core: column %s.%s selected twice", q.Table, strings.ToUpper(c))
		}
		seen = append(seen, j)
		if i > 0 {
			sql = append(sql, ", "...)
		}
		sql = append(sql, strings.ToUpper(c)...)
	}
	sql = append(append(sql, " FROM "...), schema.Name...)
	var args []sqltypes.Value
	for _, r := range q.Restrictions {
		if strings.TrimSpace(r.Value) == "" {
			continue // empty form fields mean "no restriction"
		}
		if schema.ColIndex(r.Column) < 0 {
			return "", nil, nil, fmt.Errorf("core: unknown column %s.%s", q.Table, r.Column)
		}
		form := strings.ToUpper(strings.TrimSpace(r.Op))
		op, ok := qbeOps[form]
		if !ok {
			return "", nil, nil, fmt.Errorf("core: unsupported operator %q", r.Op)
		}
		val := r.Value
		switch form {
		case "CONTAINS":
			val = "%" + escapeLike(val) + "%"
		case "STARTS":
			val = escapeLike(val) + "%"
		}
		if args == nil {
			sql = append(sql, " WHERE "...)
			args = make([]sqltypes.Value, 0, len(q.Restrictions))
		} else {
			sql = append(sql, " AND "...)
		}
		sql = append(append(append(append(sql, strings.ToUpper(r.Column)...), ' '), op...), " ?"...)
		args = append(args, sqltypes.NewString(val))
	}
	if q.OrderBy != "" {
		if schema.ColIndex(q.OrderBy) < 0 {
			return "", nil, nil, fmt.Errorf("core: unknown ORDER BY column %s", q.OrderBy)
		}
		sql = append(append(sql, " ORDER BY "...), strings.ToUpper(q.OrderBy)...)
		if q.Desc {
			sql = append(sql, " DESC"...)
		}
	}
	if q.Limit > 0 {
		sql = strconv.AppendInt(append(sql, " LIMIT "...), int64(q.Limit), 10)
	}
	return string(sql), args, schema, nil
}

// ResultSet is a decorated query result: plain values plus the metadata
// the web layer needs to render browsing links.
type ResultSet struct {
	Table   string
	Columns []string // upper-cased column names
	Kinds   []sqltypes.Kind
	Rows    [][]sqltypes.Value // alias the engine's result storage until Close

	rows   *sqldb.Rows
	colIDs []string // "TABLE.COLUMN" per column, formed by the first Row
}

// Close releases the result's row storage back to the engine; Rows must
// not be read afterwards. A page-sized result has nothing to release,
// so forgetting Close is cheap, but a renderer closes once the last row
// is written. Nil-safe and idempotent.
func (rs *ResultSet) Close() {
	if rs == nil {
		return
	}
	rs.rows.Close()
	rs.rows, rs.Rows = nil, nil
}

// Row returns row i as the colid→value map operations consume.
func (rs *ResultSet) Row(i int) map[string]sqltypes.Value {
	if rs.colIDs == nil {
		rs.colIDs = make([]string, len(rs.Columns))
		for j, c := range rs.Columns {
			rs.colIDs[j] = rs.Table + "." + strings.ToUpper(c)
		}
	}
	out := make(map[string]sqltypes.Value, len(rs.Columns))
	for j, id := range rs.colIDs {
		out[id] = rs.Rows[i][j]
	}
	return out
}

// Search runs a QBE and returns the decorated result set. A given
// search shape (table, selected columns, restriction operators) always
// compiles to the same parameterised SQL text, so Prepare resolves to
// one shared cached plan: repeated form submissions and browse clicks
// skip parsing and binding entirely.
func (a *Archive) Search(q QBE) (*ResultSet, error) {
	sql, args, schema, err := a.buildSQL(q)
	if err != nil {
		return nil, err
	}
	stmt, err := a.DB.Prepare(sql)
	if err != nil {
		return nil, err
	}
	rows, err := stmt.Query(args...)
	if err != nil {
		return nil, err
	}
	return &ResultSet{
		Table:   schema.Name,
		Columns: rows.Columns,
		Kinds:   rows.Kinds,
		Rows:    rows.Data,
		rows:    rows,
	}, nil
}

// BrowseFK implements foreign-key browsing: "selecting a link on an
// AUTHOR_KEY value will retrieve full details of the author".
func (a *Archive) BrowseFK(refTable, refColumn, value string) (*ResultSet, error) {
	return a.Search(QBE{
		Table:        refTable,
		Restrictions: []Restriction{{Column: refColumn, Op: "=", Value: value}},
	})
}

// BrowsePK implements primary-key browsing: all rows of a referencing
// table in which this key value appears as a foreign key.
func (a *Archive) BrowsePK(childTable, childColumn, value string) (*ResultSet, error) {
	return a.Search(QBE{
		Table:        childTable,
		Restrictions: []Restriction{{Column: childColumn, Op: "=", Value: value}},
	})
}

// SubstituteFK resolves the paper's customisation: show a named column
// of the referenced table instead of the raw key value.
func (a *Archive) SubstituteFK(refTable, refColumn, substColumn, keyValue string) (string, error) {
	// Called once per FK cell on the result page; the statement text is
	// identical for every cell of a column, so the prepared plan is
	// shared across the whole render.
	stmt, err := a.DB.Prepare(fmt.Sprintf("SELECT %s FROM %s WHERE %s = ?",
		strings.ToUpper(substColumn), strings.ToUpper(refTable), strings.ToUpper(refColumn)))
	if err != nil {
		return "", err
	}
	rows, err := stmt.Query(sqltypes.NewString(keyValue))
	if err != nil {
		return "", err
	}
	defer rows.Close()
	if len(rows.Data) == 0 {
		return keyValue, nil // dangling user-defined relationship: show the raw key
	}
	return rows.Data[0][0].AsString(), nil
}
