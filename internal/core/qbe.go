package core

import (
	"fmt"
	"slices"
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
	schema, ok := a.DB.Catalog().Table(q.Table)
	if !ok {
		return "", nil, fmt.Errorf("core: unknown table %s", q.Table)
	}
	cols := q.Select
	if len(cols) == 0 {
		cols = schema.ColNames()
	}
	// The form offers each column once, so a longer or repeating list is
	// not a form submission: it would compile a projection as wide as the
	// request is long over every matching row.
	if len(cols) > len(schema.Cols) {
		return "", nil, fmt.Errorf("core: %d columns selected, %s has %d", len(cols), q.Table, len(schema.Cols))
	}
	var sel []string
	for _, c := range cols {
		if schema.ColIndex(c) < 0 {
			return "", nil, fmt.Errorf("core: unknown column %s.%s", q.Table, c)
		}
		c = strings.ToUpper(c)
		if slices.Contains(sel, c) {
			return "", nil, fmt.Errorf("core: column %s.%s selected twice", q.Table, c)
		}
		sel = append(sel, c)
	}
	var (
		sql  strings.Builder
		args []sqltypes.Value
	)
	fmt.Fprintf(&sql, "SELECT %s FROM %s", strings.Join(sel, ", "), schema.Name)
	var conds []string
	for _, r := range q.Restrictions {
		if strings.TrimSpace(r.Value) == "" {
			continue // empty form fields mean "no restriction"
		}
		if schema.ColIndex(r.Column) < 0 {
			return "", nil, fmt.Errorf("core: unknown column %s.%s", q.Table, r.Column)
		}
		op, ok := qbeOps[strings.ToUpper(strings.TrimSpace(r.Op))]
		if !ok {
			return "", nil, fmt.Errorf("core: unsupported operator %q", r.Op)
		}
		val := r.Value
		switch strings.ToUpper(strings.TrimSpace(r.Op)) {
		case "CONTAINS":
			val = "%" + escapeLike(val) + "%"
		case "STARTS":
			val = escapeLike(val) + "%"
		}
		conds = append(conds, fmt.Sprintf("%s %s ?", strings.ToUpper(r.Column), op))
		args = append(args, sqltypes.NewString(val))
	}
	if len(conds) > 0 {
		sql.WriteString(" WHERE " + strings.Join(conds, " AND "))
	}
	if q.OrderBy != "" {
		if schema.ColIndex(q.OrderBy) < 0 {
			return "", nil, fmt.Errorf("core: unknown ORDER BY column %s", q.OrderBy)
		}
		fmt.Fprintf(&sql, " ORDER BY %s", strings.ToUpper(q.OrderBy))
		if q.Desc {
			sql.WriteString(" DESC")
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&sql, " LIMIT %d", q.Limit)
	}
	return sql.String(), args, nil
}

// ResultSet is a decorated query result: plain values plus the metadata
// the web layer needs to render browsing links.
type ResultSet struct {
	Table   string
	Columns []string // upper-cased column names
	ColIDs  []string // "TABLE.COLUMN"
	Kinds   []sqltypes.Kind
	Rows    [][]sqltypes.Value // alias the engine's result storage until Close

	rows *sqldb.Rows
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
	out := make(map[string]sqltypes.Value, len(rs.Columns))
	for j, id := range rs.ColIDs {
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
	sql, args, err := a.BuildSQL(q)
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
	schema, _ := a.DB.Catalog().Table(q.Table)
	rs := &ResultSet{
		Table:   schema.Name,
		Columns: rows.Columns,
		Kinds:   rows.Kinds,
		Rows:    rows.Data,
		rows:    rows,
	}
	for _, c := range rows.Columns {
		rs.ColIDs = append(rs.ColIDs, schema.Name+"."+strings.ToUpper(c))
	}
	return rs, nil
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
