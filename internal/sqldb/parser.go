package sqldb

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sqltypes"
)

// Parse parses a single SQL statement. A trailing semicolon is allowed.
func Parse(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: sql}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errf("unexpected %s after statement", p.cur())
	}
	return stmt, nil
}

// ParseScript parses a semicolon-separated sequence of statements,
// ignoring empty statements. Used for DDL scripts such as the turbulence
// schema.
func ParseScript(sql string) ([]Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: sql}
	var out []Statement
	for {
		for p.accept(tokSymbol, ";") {
		}
		if p.at(tokEOF, "") {
			return out, nil
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
		if !p.accept(tokSymbol, ";") && !p.at(tokEOF, "") {
			return nil, p.errf("expected ';' between statements, got %s", p.cur())
		}
	}
}

type parser struct {
	toks   []token
	pos    int
	src    string
	params int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) atKeyword(kw string) bool { return p.at(tokKeyword, kw) }

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool { return p.accept(tokKeyword, kw) }

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = map[tokKind]string{tokIdent: "identifier", tokNumber: "number", tokString: "string"}[kind]
	}
	return token{}, p.errf("expected %s, got %s", want, p.cur())
}

func (p *parser) expectKeyword(kw string) error {
	_, err := p.expect(tokKeyword, kw)
	return err
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqldb: parse error at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

// identifier accepts an identifier or any keyword usable as a name
// (column names like KEY would be unusual; we allow non-reserved words).
func (p *parser) identifier(what string) (string, error) {
	t := p.cur()
	if t.kind == tokIdent {
		p.pos++
		return t.text, nil
	}
	// Permit a few keywords that commonly appear as identifiers.
	if t.kind == tokKeyword {
		switch t.text {
		case "URL", "DB", "FS", "KEY", "YES", "NO", "ALL", "FILE", "READ", "WRITE", "CONTROL", "LINK",
			"HASH", "ORDERED":
			p.pos++
			return t.text, nil
		}
	}
	return "", p.errf("expected %s, got %s", what, t)
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.atKeyword("SELECT"):
		return p.parseSelect()
	case p.atKeyword("INSERT"):
		return p.parseInsert()
	case p.atKeyword("UPDATE"):
		return p.parseUpdate()
	case p.atKeyword("DELETE"):
		return p.parseDelete()
	case p.atKeyword("CREATE"):
		return p.parseCreate()
	case p.atKeyword("DROP"):
		return p.parseDrop()
	case p.acceptKeyword("BEGIN"):
		return &TxStmt{Op: "BEGIN"}, nil
	case p.acceptKeyword("COMMIT"):
		return &TxStmt{Op: "COMMIT"}, nil
	case p.acceptKeyword("ROLLBACK"):
		return &TxStmt{Op: "ROLLBACK"}, nil
	default:
		return nil, p.errf("unexpected %s at start of statement", p.cur())
	}
}

// ---------- DDL ----------

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex()
	case p.acceptKeyword("UNIQUE"):
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex()
	default:
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	stmt := &CreateTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfNotExists = true
	}
	name, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	stmt.Table = name
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atKeyword("PRIMARY"):
			p.pos++
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parenColumnList()
			if err != nil {
				return nil, err
			}
			if stmt.PrimaryKey != nil {
				return nil, p.errf("duplicate PRIMARY KEY clause")
			}
			stmt.PrimaryKey = cols
		case p.atKeyword("UNIQUE"):
			p.pos++
			cols, err := p.parenColumnList()
			if err != nil {
				return nil, err
			}
			stmt.Uniques = append(stmt.Uniques, cols)
		case p.atKeyword("FOREIGN"):
			p.pos++
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parenColumnList()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("REFERENCES"); err != nil {
				return nil, err
			}
			ref, err := p.identifier("referenced table")
			if err != nil {
				return nil, err
			}
			refCols, err := p.parenColumnList()
			if err != nil {
				return nil, err
			}
			stmt.ForeignKeys = append(stmt.ForeignKeys, ForeignKeyDef{Cols: cols, RefTable: ref, RefCols: refCols})
		case p.atKeyword("CONSTRAINT"):
			p.pos++
			if _, err := p.identifier("constraint name"); err != nil {
				return nil, err
			}
			continue // the named constraint body follows on the next loop pass
		default:
			col, err := p.parseColumnDef(stmt)
			if err != nil {
				return nil, err
			}
			stmt.Cols = append(stmt.Cols, col)
		}
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parenColumnList() ([]string, error) {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.identifier("column name")
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return cols, nil
}

func (p *parser) parseColumnDef(stmt *CreateTableStmt) (ColumnDef, error) {
	var col ColumnDef
	name, err := p.identifier("column name")
	if err != nil {
		return col, err
	}
	col.Name = name
	ti, err := p.parseType()
	if err != nil {
		return col, err
	}
	col.Type = ti
	for {
		switch {
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return col, err
			}
			col.NotNull = true
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return col, err
			}
			if stmt.PrimaryKey != nil {
				return col, p.errf("duplicate PRIMARY KEY")
			}
			stmt.PrimaryKey = []string{col.Name}
			col.NotNull = true
		case p.acceptKeyword("UNIQUE"):
			stmt.Uniques = append(stmt.Uniques, []string{col.Name})
		case p.acceptKeyword("REFERENCES"):
			ref, err := p.identifier("referenced table")
			if err != nil {
				return col, err
			}
			refCols, err := p.parenColumnList()
			if err != nil {
				return col, err
			}
			stmt.ForeignKeys = append(stmt.ForeignKeys, ForeignKeyDef{Cols: []string{col.Name}, RefTable: ref, RefCols: refCols})
		case p.acceptKeyword("DEFAULT"):
			lit, err := p.parseLiteral()
			if err != nil {
				return col, err
			}
			col.Default = &lit
		default:
			return col, nil
		}
	}
}

// parseType parses a column type, including the full SQL/MED DATALINK
// option clauses from the paper's CREATE TABLE slide.
func (p *parser) parseType() (sqltypes.TypeInfo, error) {
	var ti sqltypes.TypeInfo
	t := p.cur()
	if t.kind != tokKeyword {
		return ti, p.errf("expected type name, got %s", t)
	}
	p.pos++
	switch t.text {
	case "INTEGER", "INT", "BIGINT":
		ti.Kind = sqltypes.KindInt
	case "DOUBLE":
		p.acceptKeyword("PRECISION")
		ti.Kind = sqltypes.KindDouble
	case "FLOAT":
		ti.Kind = sqltypes.KindDouble
	case "VARCHAR", "CHAR":
		ti.Kind = sqltypes.KindString
		if p.accept(tokSymbol, "(") {
			num, err := p.expect(tokNumber, "")
			if err != nil {
				return ti, err
			}
			size, err := strconv.Atoi(num.text)
			if err != nil || size <= 0 {
				return ti, p.errf("invalid VARCHAR size %q", num.text)
			}
			ti.Size = size
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return ti, err
			}
		}
	case "BOOLEAN":
		ti.Kind = sqltypes.KindBool
	case "TIMESTAMP":
		ti.Kind = sqltypes.KindTime
	case "BLOB":
		ti.Kind = sqltypes.KindBytes
	case "CLOB":
		ti.Kind = sqltypes.KindClob
	case "DATALINK":
		ti.Kind = sqltypes.KindDatalink
		opts, err := p.parseDatalinkOptions()
		if err != nil {
			return ti, err
		}
		ti.Datalink = opts
	default:
		return ti, p.errf("unknown type %s", t)
	}
	return ti, nil
}

func (p *parser) parseDatalinkOptions() (*sqltypes.DatalinkOptions, error) {
	opts := sqltypes.DatalinkOptions{IntegrityAll: true} // INTEGRITY ALL is the default under link control
	sawControl := false
	for {
		switch {
		case p.acceptKeyword("LINKTYPE"):
			if err := p.expectKeyword("URL"); err != nil {
				return nil, err
			}
		case p.atKeyword("FILE"):
			p.pos++
			if err := p.expectKeyword("LINK"); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("CONTROL"); err != nil {
				return nil, err
			}
			opts.FileLinkControl = true
			sawControl = true
		case p.atKeyword("NO"):
			p.pos++
			if err := p.expectKeyword("FILE"); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("LINK"); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("CONTROL"); err != nil {
				return nil, err
			}
			opts.FileLinkControl = false
			sawControl = true
		case p.acceptKeyword("INTEGRITY"):
			switch {
			case p.acceptKeyword("ALL"):
				opts.IntegrityAll = true
			case p.acceptKeyword("SELECTIVE"):
				opts.IntegrityAll = false
			default:
				return nil, p.errf("expected ALL or SELECTIVE after INTEGRITY")
			}
		case p.acceptKeyword("READ"):
			if err := p.expectKeyword("PERMISSION"); err != nil {
				return nil, err
			}
			switch {
			case p.acceptKeyword("DB"):
				opts.ReadPerm = sqltypes.ReadDB
			case p.acceptKeyword("FS"):
				opts.ReadPerm = sqltypes.ReadFS
			default:
				return nil, p.errf("expected DB or FS after READ PERMISSION")
			}
		case p.acceptKeyword("WRITE"):
			if err := p.expectKeyword("PERMISSION"); err != nil {
				return nil, err
			}
			switch {
			case p.acceptKeyword("BLOCKED"):
				opts.WritePerm = sqltypes.WriteBlocked
			case p.acceptKeyword("FS"):
				opts.WritePerm = sqltypes.WriteFS
			default:
				return nil, p.errf("expected BLOCKED or FS after WRITE PERMISSION")
			}
		case p.acceptKeyword("RECOVERY"):
			switch {
			case p.acceptKeyword("YES"):
				opts.RecoveryYes = true
			case p.acceptKeyword("NO"):
				opts.RecoveryYes = false
			default:
				return nil, p.errf("expected YES or NO after RECOVERY")
			}
		case p.acceptKeyword("ON"):
			if err := p.expectKeyword("UNLINK"); err != nil {
				return nil, err
			}
			switch {
			case p.acceptKeyword("RESTORE"):
				opts.OnUnlink = sqltypes.UnlinkRestore
			case p.acceptKeyword("DELETE"):
				opts.OnUnlink = sqltypes.UnlinkDelete
			default:
				return nil, p.errf("expected RESTORE or DELETE after ON UNLINK")
			}
		case p.acceptKeyword("EXPIRY"):
			num, err := p.expect(tokNumber, "")
			if err != nil {
				return nil, err
			}
			secs, err := strconv.Atoi(num.text)
			if err != nil || secs < 0 {
				return nil, p.errf("invalid EXPIRY %q", num.text)
			}
			opts.TokenLifetime = secs
		default:
			if opts.FileLinkControl && opts.OnUnlink == sqltypes.UnlinkNone {
				opts.OnUnlink = sqltypes.UnlinkRestore
			}
			if !sawControl {
				opts.IntegrityAll = false
			}
			if err := opts.Validate(); err != nil {
				return nil, err
			}
			return &opts, nil
		}
	}
}

func (p *parser) parseCreateIndex() (Statement, error) {
	name, err := p.identifier("index name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	cols, err := p.parenColumnList()
	if err != nil {
		return nil, err
	}
	// USING names an access method. There is one (index.go), but DDL logs
	// written by earlier versions carry the clause, so it still parses.
	if p.acceptKeyword("USING") && !p.acceptKeyword("HASH") && !p.acceptKeyword("ORDERED") {
		return nil, p.errf("expected HASH or ORDERED after USING")
	}
	return &CreateIndexStmt{Name: name, Table: table, Columns: cols}, nil
}

func (p *parser) parseDrop() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("TABLE"):
		ifExists := false
		if p.acceptKeyword("IF") {
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			ifExists = true
		}
		name, err := p.identifier("table name")
		if err != nil {
			return nil, err
		}
		return &DropTableStmt{Table: name, IfExists: ifExists}, nil
	case p.acceptKeyword("INDEX"):
		name, err := p.identifier("index name")
		if err != nil {
			return nil, err
		}
		return &DropIndexStmt{Name: name}, nil
	default:
		return nil, p.errf("expected TABLE or INDEX after DROP")
	}
}

// ---------- DML ----------

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	if p.at(tokSymbol, "(") {
		cols, err := p.parenColumnList()
		if err != nil {
			return nil, err
		}
		stmt.Cols = cols
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table}
	for {
		col, err := p.identifier("column name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, SetClause{Col: col, Expr: e})
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.identifier("table name")
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

// ---------- SELECT ----------

func (p *parser) parseSelect() (Statement, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		var fi FromItem
		if len(stmt.From) > 0 {
			switch {
			case p.accept(tokSymbol, ","):
				// comma join: cross product constrained by WHERE
			case p.acceptKeyword("JOIN"):
			case p.acceptKeyword("INNER"):
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
			case p.acceptKeyword("LEFT"):
				p.acceptKeyword("OUTER")
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				fi.LeftJoin = true
			}
		}
		name, err := p.identifier("table name")
		if err != nil {
			return nil, err
		}
		fi.Table = name
		if p.acceptKeyword("AS") {
			alias, err := p.identifier("alias")
			if err != nil {
				return nil, err
			}
			fi.Alias = alias
		} else if p.at(tokIdent, "") {
			fi.Alias = p.next().text
		}
		if len(stmt.From) > 0 && p.acceptKeyword("ON") {
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fi.JoinCond = cond
		}
		stmt.From = append(stmt.From, fi)
		if !p.at(tokSymbol, ",") && !p.atKeyword("JOIN") && !p.atKeyword("INNER") && !p.atKeyword("LEFT") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		num, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(num.text)
		if err != nil || n < 0 {
			return nil, p.errf("invalid LIMIT %q", num.text)
		}
		stmt.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		num, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(num.text)
		if err != nil || n < 0 {
			return nil, p.errf("invalid OFFSET %q", num.text)
		}
		stmt.Offset = n
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	var item SelectItem
	if p.accept(tokSymbol, "*") {
		item.Star = true
		return item, nil
	}
	// "t.*"
	if p.cur().kind == tokIdent && p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tokSymbol && p.toks[p.pos+2].text == "*" {
		item.Star = true
		item.Table = p.next().text
		p.pos += 2
		return item, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return item, err
	}
	item.Expr = e
	if p.acceptKeyword("AS") {
		alias, err := p.identifier("alias")
		if err != nil {
			return item, err
		}
		item.Alias = alias
	} else if p.at(tokIdent, "") {
		item.Alias = p.next().text
	}
	return item, nil
}

// ---------- expressions ----------
// Precedence (low→high): OR, AND, NOT, comparison/LIKE/IN/BETWEEN/IS,
// additive (+ - ||), multiplicative (* / %), unary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		p.pos++
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tokSymbol, "="), p.at(tokSymbol, "<"), p.at(tokSymbol, ">"),
			p.at(tokSymbol, "<="), p.at(tokSymbol, ">="), p.at(tokSymbol, "<>"), p.at(tokSymbol, "!="):
			op := p.next().text
			if op == "!=" {
				op = "<>"
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: op, L: l, R: r}
		case p.atKeyword("LIKE"):
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "LIKE", L: l, R: r}
		case p.atKeyword("NOT"):
			// x NOT LIKE / NOT IN / NOT BETWEEN
			save := p.pos
			p.pos++
			switch {
			case p.acceptKeyword("LIKE"):
				r, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &Unary{Op: "NOT", X: &Binary{Op: "LIKE", L: l, R: r}}
			case p.atKeyword("IN"):
				in, err := p.parseIn(l)
				if err != nil {
					return nil, err
				}
				in.Not = true
				l = in
			case p.atKeyword("BETWEEN"):
				bt, err := p.parseBetween(l)
				if err != nil {
					return nil, err
				}
				bt.Not = true
				l = bt
			default:
				p.pos = save
				return l, nil
			}
		case p.atKeyword("IN"):
			in, err := p.parseIn(l)
			if err != nil {
				return nil, err
			}
			l = in
		case p.atKeyword("BETWEEN"):
			bt, err := p.parseBetween(l)
			if err != nil {
				return nil, err
			}
			l = bt
		case p.atKeyword("IS"):
			p.pos++
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			l = &IsNullExpr{X: l, Not: not}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseIn(l Expr) (*InExpr, error) {
	if err := p.expectKeyword("IN"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	in := &InExpr{X: l}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) parseBetween(l Expr) (*BetweenExpr, error) {
	if err := p.expectKeyword("BETWEEN"); err != nil {
		return nil, err
	}
	lo, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &BetweenExpr{X: l, Lo: lo, Hi: hi}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tokSymbol, "+"), p.at(tokSymbol, "-"), p.at(tokSymbol, "||"):
			op := p.next().text
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: op, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tokSymbol, "*"), p.at(tokSymbol, "/"), p.at(tokSymbol, "%"):
			op := p.next().text
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: op, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Literal); ok { // fold negative literals
			switch lit.Val.Kind() {
			case sqltypes.KindInt:
				return &Literal{Val: sqltypes.NewInt(-lit.Val.Int())}, nil
			case sqltypes.KindDouble:
				return &Literal{Val: sqltypes.NewDouble(-lit.Val.Double())}, nil
			}
		}
		return &Unary{Op: "-", X: x}, nil
	}
	p.accept(tokSymbol, "+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber || t.kind == tokString ||
		(t.kind == tokKeyword && (t.text == "NULL" || t.text == "TRUE" || t.text == "FALSE")):
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return &Literal{Val: v}, nil
	case t.kind == tokSymbol && t.text == "?":
		p.pos++
		p.params++
		return &Param{N: p.params - 1}, nil
	case t.kind == tokSymbol && t.text == "(":
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokKeyword && (t.text == "COUNT" || t.text == "SUM" || t.text == "AVG" || t.text == "MIN" || t.text == "MAX"):
		p.pos++
		return p.parseFuncArgs(t.text)
	case t.kind == tokIdent || t.kind == tokKeyword:
		// Function call or column reference.
		if p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			name := strings.ToUpper(t.text)
			p.pos++
			return p.parseFuncArgs(name)
		}
		name, err := p.identifier("column reference")
		if err != nil {
			return nil, err
		}
		if p.accept(tokSymbol, ".") {
			col, err := p.identifier("column name")
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: name, Col: col, Index: -1}, nil
		}
		return &ColRef{Col: name, Index: -1}, nil
	default:
		return nil, p.errf("unexpected %s in expression", t)
	}
}

func (p *parser) parseFuncArgs(name string) (Expr, error) {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if name == "COUNT" && p.accept(tokSymbol, "*") {
		fc.Star = true
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.accept(tokSymbol, ")") {
		return fc, nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, e)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *parser) parseLiteral() (sqltypes.Value, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return sqltypes.Null, p.errf("invalid number %q", t.text)
			}
			return sqltypes.NewDouble(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.text, 64)
			if ferr != nil {
				return sqltypes.Null, p.errf("invalid number %q", t.text)
			}
			return sqltypes.NewDouble(f), nil
		}
		return sqltypes.NewInt(n), nil
	case tokString:
		p.pos++
		return sqltypes.NewString(t.text), nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.pos++
			return sqltypes.Null, nil
		case "TRUE":
			p.pos++
			return sqltypes.NewBool(true), nil
		case "FALSE":
			p.pos++
			return sqltypes.NewBool(false), nil
		}
	}
	return sqltypes.Null, p.errf("expected literal, got %s", t)
}
