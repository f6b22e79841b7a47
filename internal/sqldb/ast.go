package sqldb

import (
	"strings"

	"repro/internal/sqltypes"
)

// Statement is any parsed SQL statement (the AST root).
type Statement interface{ stmtNode() }

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Table       string
	IfNotExists bool
	Cols        []ColumnDef
	PrimaryKey  []string
	Uniques     [][]string
	ForeignKeys []ForeignKeyDef
}

// ColumnDef is one column definition inside CREATE TABLE.
type ColumnDef struct {
	Name    string
	Type    sqltypes.TypeInfo
	NotNull bool
	Default *sqltypes.Value // literal defaults only
	// Inline single-column constraint sugar, folded into the table-level
	// lists by the parser: PRIMARY KEY, UNIQUE, REFERENCES t(c).
}

// ForeignKeyDef is FOREIGN KEY (cols) REFERENCES table (cols).
type ForeignKeyDef struct {
	Cols     []string
	RefTable string
	RefCols  []string
}

// DropTableStmt is DROP TABLE.
type DropTableStmt struct {
	Table    string
	IfExists bool
}

// CreateIndexStmt is CREATE INDEX name ON table (col, ...); a trailing
// USING HASH|ORDERED is accepted and ignored. Multi-column indexes key
// on the concatenated canonical encoding of the columns in declaration
// order and serve full-tuple equality plus any leading-prefix shape.
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
}

// DropIndexStmt is DROP INDEX name.
type DropIndexStmt struct{ Name string }

// InsertStmt is INSERT INTO table [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Table string
	Cols  []string // empty means all columns in declaration order
	Rows  [][]Expr
}

// UpdateStmt is UPDATE table SET col=expr, ... [WHERE expr].
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr // nil means all rows
}

// SetClause is one col=expr assignment.
type SetClause struct {
	Col  string
	Expr Expr
}

// DeleteStmt is DELETE FROM table [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr
}

// SelectStmt is a (possibly joined, grouped, ordered) query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem // nested-loop join order; empty for SELECT <exprs>
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 = none
	Offset   int
}

// SelectItem is one projected expression. Star selects every column of
// every FROM table (or of the named table for "t.*").
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	Table string // for "t.*"
}

// FromItem is one table reference with optional alias and join condition.
// The first FromItem has JoinCond nil; subsequent items are inner or left
// joins against the running row.
type FromItem struct {
	Table    string
	Alias    string
	LeftJoin bool
	JoinCond Expr // nil for the first item or comma joins
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TxStmt is BEGIN/COMMIT/ROLLBACK issued as SQL text.
type TxStmt struct{ Op string }

func (*CreateTableStmt) stmtNode() {}
func (*DropTableStmt) stmtNode()   {}
func (*CreateIndexStmt) stmtNode() {}
func (*DropIndexStmt) stmtNode()   {}
func (*InsertStmt) stmtNode()      {}
func (*UpdateStmt) stmtNode()      {}
func (*DeleteStmt) stmtNode()      {}
func (*SelectStmt) stmtNode()      {}
func (*TxStmt) stmtNode()          {}

// Expr is a scalar expression tree node.
type Expr interface{ exprNode() }

// Literal is a constant value.
type Literal struct{ Val sqltypes.Value }

// ColRef references a column, optionally qualified ("t.c"). The binder
// fills Index with the offset into the runtime row.
type ColRef struct {
	Table string
	Col   string
	Index int // -1 until bound
}

// Param is a positional placeholder '?' bound at execution time.
type Param struct{ N int }

// Binary is a binary operator: = <> < <= > >= + - * / % || AND OR LIKE.
type Binary struct {
	Op   string
	L, R Expr
}

// Unary is NOT or unary minus.
type Unary struct {
	Op string // "NOT", "-"
	X  Expr
}

// FuncCall is a scalar or aggregate function invocation.
type FuncCall struct {
	Name string // upper-cased
	Args []Expr
	Star bool // COUNT(*)
}

// InExpr is x [NOT] IN (list).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*Literal) exprNode()     {}
func (*ColRef) exprNode()      {}
func (*Param) exprNode()       {}
func (*Binary) exprNode()      {}
func (*Unary) exprNode()       {}
func (*FuncCall) exprNode()    {}
func (*InExpr) exprNode()      {}
func (*BetweenExpr) exprNode() {}
func (*IsNullExpr) exprNode()  {}

// exprLabel derives the result-column name for an unaliased projection,
// mirroring the usual engine behaviour (column name for refs, upper-cased
// function name otherwise).
func exprLabel(e Expr) string {
	switch x := e.(type) {
	case *ColRef:
		return strings.ToUpper(x.Col)
	case *FuncCall:
		return x.Name
	default:
		return "EXPR"
	}
}

// walkExpr visits e and all children in preorder. The visitor returns
// false to prune descent.
func walkExpr(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch x := e.(type) {
	case *Binary:
		walkExpr(x.L, f)
		walkExpr(x.R, f)
	case *Unary:
		walkExpr(x.X, f)
	case *FuncCall:
		for _, a := range x.Args {
			walkExpr(a, f)
		}
	case *InExpr:
		walkExpr(x.X, f)
		for _, a := range x.List {
			walkExpr(a, f)
		}
	case *BetweenExpr:
		walkExpr(x.X, f)
		walkExpr(x.Lo, f)
		walkExpr(x.Hi, f)
	case *IsNullExpr:
		walkExpr(x.X, f)
	}
}
