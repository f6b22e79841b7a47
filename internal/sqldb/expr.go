package sqldb

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/sqltypes"
)

// qualCol names one runtime row slot: table alias (upper-cased) plus
// column name (upper-cased).
type qualCol struct {
	table string
	col   string
}

// bindEnv is the column namespace an expression is resolved against.
type bindEnv struct {
	cols []qualCol
}

func (b *bindEnv) resolve(table, col string) (int, error) {
	table = strings.ToUpper(table)
	col = strings.ToUpper(col)
	found := -1
	for i, qc := range b.cols {
		if qc.col != col {
			continue
		}
		if table != "" && qc.table != table {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("sqldb: ambiguous column reference %s", col)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return -1, fmt.Errorf("sqldb: unknown column %s.%s", table, col)
		}
		return -1, fmt.Errorf("sqldb: unknown column %s", col)
	}
	return found, nil
}

// bindExpr resolves every ColRef in e against env. It returns an error
// for unknown or ambiguous references; aggregates are rejected unless
// allowAgg.
func bindExpr(e Expr, env *bindEnv, allowAgg bool) error {
	var err error
	walkExpr(e, func(x Expr) bool {
		if err != nil {
			return false
		}
		switch n := x.(type) {
		case *ColRef:
			n.Index, err = env.resolve(n.Table, n.Col)
		case *FuncCall:
			if isAggregate(n.Name) && !allowAgg {
				err = fmt.Errorf("sqldb: aggregate %s not allowed here", n.Name)
			}
		}
		return true
	})
	return err
}

func isAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// exprHasAggregate reports whether the tree contains an aggregate call.
func exprHasAggregate(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) bool {
		if fc, ok := x.(*FuncCall); ok && isAggregate(fc.Name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// evalCtx carries the runtime row and parameters during evaluation,
// plus the MVCC snapshot the statement reads at: a commit stamp pinned
// at statement start for queries, or snapLatest for DML row matching
// and constraint checks (which must see the newest non-aborted state).
type evalCtx struct {
	vals   []sqltypes.Value
	params []sqltypes.Value
	now    time.Time
	snap   uint64

	// intr is the owning statement's cancellation checker (govern.go);
	// nil — the ungoverned internal path — makes every check a no-op.
	intr *interrupt

	// ar backs the statement's result rows (owned by the returned Rows,
	// released on Rows.Close); scratch backs the joined rows a join
	// delivers — one copy each, which the sinks may hold and the
	// projection copies out of — and is released when the statement
	// finishes. Both nil outside a SELECT (DML row matching and INSERT
	// evaluation allocate from neither).
	ar      *rowArena
	scratch *rowArena

	// keyBuf is a statement-scoped scratch buffer for canonical key
	// encoding (index nested-loop probes build one prefix per OUTER
	// row); reusing it keeps the probe loop allocation-free. Safe
	// because an evalCtx is owned by one statement execution.
	keyBuf []byte
}

// evalExpr computes e over the context. SQL three-valued logic is
// represented by returning sqltypes.Null for UNKNOWN.
func evalExpr(e Expr, ctx *evalCtx) (sqltypes.Value, error) {
	switch n := e.(type) {
	case *Literal:
		return n.Val, nil
	case *ColRef:
		if n.Index < 0 || n.Index >= len(ctx.vals) {
			return sqltypes.Null, fmt.Errorf("sqldb: unbound column %s", n.Col)
		}
		return ctx.vals[n.Index], nil
	case *Param:
		if n.N >= len(ctx.params) {
			return sqltypes.Null, fmt.Errorf("sqldb: missing argument for placeholder %d", n.N+1)
		}
		return ctx.params[n.N], nil
	case *Unary:
		return evalUnary(n, ctx)
	case *Binary:
		return evalBinary(n, ctx)
	case *FuncCall:
		return evalFunc(n, ctx)
	case *InExpr:
		return evalIn(n, ctx)
	case *BetweenExpr:
		return evalBetween(n, ctx)
	case *IsNullExpr:
		v, err := evalExpr(n.X, ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		res := v.IsNull()
		if n.Not {
			res = !res
		}
		return sqltypes.NewBool(res), nil
	default:
		return sqltypes.Null, fmt.Errorf("sqldb: cannot evaluate %T", e)
	}
}

func evalUnary(n *Unary, ctx *evalCtx) (sqltypes.Value, error) {
	v, err := evalExpr(n.X, ctx)
	if err != nil {
		return sqltypes.Null, err
	}
	switch n.Op {
	case "NOT":
		if v.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(!truthy(v)), nil
	case "-":
		if v.IsNull() {
			return sqltypes.Null, nil
		}
		switch v.Kind() {
		case sqltypes.KindInt:
			if v.Int() == math.MinInt64 {
				return sqltypes.Null, outOfBigint(fmt.Sprintf("-(%d)", v.Int()))
			}
			return sqltypes.NewInt(-v.Int()), nil
		case sqltypes.KindDouble:
			return sqltypes.NewDouble(-v.Double()), nil
		}
		return sqltypes.Null, fmt.Errorf("sqldb: cannot negate %s", v.Kind())
	}
	return sqltypes.Null, fmt.Errorf("sqldb: unknown unary operator %s", n.Op)
}

// truthy interprets a value as a boolean condition.
// holds reports whether predicate e (nil = none) is TRUE — not FALSE,
// not UNKNOWN — of row.
func (c *evalCtx) holds(e Expr, row []sqltypes.Value) (bool, error) {
	if e == nil {
		return true, nil
	}
	c.vals = row
	v, err := evalExpr(e, c)
	return err == nil && !v.IsNull() && truthy(v), err
}

func truthy(v sqltypes.Value) bool {
	switch v.Kind() {
	case sqltypes.KindBool:
		return v.Bool()
	case sqltypes.KindInt:
		return v.Int() != 0
	case sqltypes.KindDouble:
		return v.Double() != 0
	default:
		return false
	}
}

func evalBinary(n *Binary, ctx *evalCtx) (sqltypes.Value, error) {
	// AND/OR implement Kleene logic with short circuit.
	if n.Op == "AND" || n.Op == "OR" {
		l, err := evalExpr(n.L, ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		if n.Op == "AND" {
			if !l.IsNull() && !truthy(l) {
				return sqltypes.NewBool(false), nil
			}
		} else if !l.IsNull() && truthy(l) {
			return sqltypes.NewBool(true), nil
		}
		r, err := evalExpr(n.R, ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		switch {
		case n.Op == "AND":
			if !r.IsNull() && !truthy(r) {
				return sqltypes.NewBool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(true), nil
		default: // OR
			if !r.IsNull() && truthy(r) {
				return sqltypes.NewBool(true), nil
			}
			if l.IsNull() || r.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(false), nil
		}
	}

	l, err := evalExpr(n.L, ctx)
	if err != nil {
		return sqltypes.Null, err
	}
	r, err := evalExpr(n.R, ctx)
	if err != nil {
		return sqltypes.Null, err
	}
	switch n.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		c, ok := sqltypes.Compare(l, r)
		if !ok {
			return sqltypes.Null, fmt.Errorf("sqldb: cannot compare %s with %s", l.Kind(), r.Kind())
		}
		var res bool
		switch n.Op {
		case "=":
			res = c == 0
		case "<>":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return sqltypes.NewBool(res), nil
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(likeMatch(r.AsString(), l.AsString())), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(l.AsString() + r.AsString()), nil
	case "+", "-", "*", "/", "%":
		return evalArith(n.Op, l, r)
	}
	return sqltypes.Null, fmt.Errorf("sqldb: unknown operator %s", n.Op)
}

// outOfBigint is the error of an integer result outside the BIGINT
// (int64) range — an integer SUM's, or the arithmetic operation what
// spells out — which the engine reports instead of wrapping.
func outOfBigint(what string) error {
	return fmt.Errorf("sqldb: %s out of BIGINT range", what)
}

func evalArith(op string, l, r sqltypes.Value) (sqltypes.Value, error) {
	if l.IsNull() || r.IsNull() {
		return sqltypes.Null, nil
	}
	if l.Kind() == sqltypes.KindInt && r.Kind() == sqltypes.KindInt {
		a, b := l.Int(), r.Int()
		// Each case computes the wrapped result and tests it: a sum
		// overflowed when both operands' signs differ from its, a
		// difference when the operands' signs differ and the result's
		// differs from a's, a product when dividing it back fails (or
		// it is -1 × MinInt64, whose quotient wraps to the operand).
		var v int64
		var wrapped bool
		switch op {
		case "+":
			v = a + b
			wrapped = (a^v)&(b^v) < 0
		case "-":
			v = a - b
			wrapped = (a^b)&(a^v) < 0
		case "*":
			v = a * b
			wrapped = a != 0 && (v/a != b || a == -1 && b == math.MinInt64)
		case "/":
			if b == 0 {
				return sqltypes.Null, fmt.Errorf("sqldb: division by zero")
			}
			v = a / b
			wrapped = a == math.MinInt64 && b == -1
		case "%":
			if b == 0 {
				return sqltypes.Null, fmt.Errorf("sqldb: division by zero")
			}
			return sqltypes.NewInt(a % b), nil // MinInt64 % -1 is 0
		default:
			return sqltypes.Null, fmt.Errorf("sqldb: unknown arithmetic operator %s", op)
		}
		if wrapped {
			return sqltypes.Null, outOfBigint(fmt.Sprintf("%d %s %d", a, op, b))
		}
		return sqltypes.NewInt(v), nil
	}
	af, aok := l.AsDouble()
	bf, bok := r.AsDouble()
	if !aok || !bok {
		return sqltypes.Null, fmt.Errorf("sqldb: arithmetic on non-numeric operands (%s, %s)", l.Kind(), r.Kind())
	}
	switch op {
	case "+":
		return sqltypes.NewDouble(af + bf), nil
	case "-":
		return sqltypes.NewDouble(af - bf), nil
	case "*":
		return sqltypes.NewDouble(af * bf), nil
	case "/":
		if bf == 0 {
			return sqltypes.Null, fmt.Errorf("sqldb: division by zero")
		}
		return sqltypes.NewDouble(af / bf), nil
	case "%":
		if bf == 0 {
			return sqltypes.Null, fmt.Errorf("sqldb: division by zero")
		}
		return sqltypes.NewDouble(math.Mod(af, bf)), nil
	}
	return sqltypes.Null, fmt.Errorf("sqldb: unknown arithmetic operator %s", op)
}

func evalIn(n *InExpr, ctx *evalCtx) (sqltypes.Value, error) {
	x, err := evalExpr(n.X, ctx)
	if err != nil {
		return sqltypes.Null, err
	}
	if x.IsNull() {
		return sqltypes.Null, nil
	}
	sawNull := false
	for _, item := range n.List {
		v, err := evalExpr(item, ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		if c, ok := sqltypes.Compare(x, v); ok && c == 0 {
			return sqltypes.NewBool(!n.Not), nil
		}
	}
	if sawNull {
		return sqltypes.Null, nil
	}
	return sqltypes.NewBool(n.Not), nil
}

func evalBetween(n *BetweenExpr, ctx *evalCtx) (sqltypes.Value, error) {
	x, err := evalExpr(n.X, ctx)
	if err != nil {
		return sqltypes.Null, err
	}
	lo, err := evalExpr(n.Lo, ctx)
	if err != nil {
		return sqltypes.Null, err
	}
	hi, err := evalExpr(n.Hi, ctx)
	if err != nil {
		return sqltypes.Null, err
	}
	if x.IsNull() || lo.IsNull() || hi.IsNull() {
		return sqltypes.Null, nil
	}
	c1, ok1 := sqltypes.Compare(x, lo)
	c2, ok2 := sqltypes.Compare(x, hi)
	if !ok1 || !ok2 {
		return sqltypes.Null, fmt.Errorf("sqldb: BETWEEN operands are not comparable")
	}
	res := c1 >= 0 && c2 <= 0
	if n.Not {
		res = !res
	}
	return sqltypes.NewBool(res), nil
}

// likeMatch implements SQL LIKE with % (any run), _ (any single char)
// and backslash escapes for literal % _ \, matching case-sensitively as
// standard SQL does.
func likeMatch(pattern, s string) bool {
	return likeRec(pattern, s)
}

func likeRec(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '\\':
			if len(p) >= 2 {
				if len(s) == 0 || p[1] != s[0] {
					return false
				}
				p, s = p[2:], s[1:]
				continue
			}
			// Trailing backslash matches itself.
			if len(s) == 0 || s[0] != '\\' {
				return false
			}
			p, s = p[1:], s[1:]
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(p, s[i:]) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}

// evalFunc evaluates scalar functions, including the SQL/MED datalink
// accessor functions (DLVALUE, DLURLPATH, DLURLSERVER, DLURLCOMPLETE).
// Aggregates never reach here; the executor intercepts them.
func evalFunc(n *FuncCall, ctx *evalCtx) (sqltypes.Value, error) {
	if isAggregate(n.Name) {
		return sqltypes.Null, fmt.Errorf("sqldb: aggregate %s outside GROUP BY context", n.Name)
	}
	args := make([]sqltypes.Value, len(n.Args))
	for i, a := range n.Args {
		v, err := evalExpr(a, ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		args[i] = v
	}
	arity := func(want int) error {
		if len(args) != want {
			return fmt.Errorf("sqldb: %s expects %d argument(s), got %d", n.Name, want, len(args))
		}
		return nil
	}
	switch n.Name {
	case "LENGTH":
		if err := arity(1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewInt(int64(args[0].Size())), nil
	case "UPPER":
		if err := arity(1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(strings.ToUpper(args[0].AsString())), nil
	case "LOWER":
		if err := arity(1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(strings.ToLower(args[0].AsString())), nil
	case "TRIM":
		if err := arity(1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(strings.TrimSpace(args[0].AsString())), nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return sqltypes.Null, fmt.Errorf("sqldb: SUBSTR expects 2 or 3 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return sqltypes.Null, nil
		}
		s := args[0].AsString()
		start, ok := args[1].AsInt()
		if !ok {
			return sqltypes.Null, fmt.Errorf("sqldb: SUBSTR start must be an integer")
		}
		if start < 1 {
			start = 1
		}
		if int(start) > len(s) {
			return sqltypes.NewString(""), nil
		}
		out := s[start-1:]
		if len(args) == 3 && !args[2].IsNull() {
			ln, ok := args[2].AsInt()
			if !ok || ln < 0 {
				return sqltypes.Null, fmt.Errorf("sqldb: SUBSTR length must be a non-negative integer")
			}
			if int(ln) < len(out) {
				out = out[:ln]
			}
		}
		return sqltypes.NewString(out), nil
	case "ABS":
		if err := arity(1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		switch args[0].Kind() {
		case sqltypes.KindInt:
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return sqltypes.NewInt(v), nil
		case sqltypes.KindDouble:
			return sqltypes.NewDouble(math.Abs(args[0].Double())), nil
		}
		return sqltypes.Null, fmt.Errorf("sqldb: ABS on non-numeric value")
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return sqltypes.Null, fmt.Errorf("sqldb: ROUND expects 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		f, ok := args[0].AsDouble()
		if !ok {
			return sqltypes.Null, fmt.Errorf("sqldb: ROUND on non-numeric value")
		}
		digits := int64(0)
		if len(args) == 2 {
			digits, _ = args[1].AsInt()
		}
		scale := math.Pow(10, float64(digits))
		return sqltypes.NewDouble(math.Round(f*scale) / scale), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return sqltypes.Null, nil
	case "NOW", "CURRENT_TIMESTAMP":
		return sqltypes.NewTime(ctx.now), nil
	// --- SQL/MED datalink functions (ISO/IEC 9075-9 §6) ---
	case "DLVALUE":
		if err := arity(1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		url := args[0].AsString()
		if _, err := sqltypes.ParseDatalinkURL(url); err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewDatalink(url), nil
	case "DLURLPATH":
		u, err := dlArg(n.Name, args)
		if err != nil {
			return sqltypes.Null, err
		}
		if u == nil {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(u.Path), nil
	case "DLURLSERVER":
		u, err := dlArg(n.Name, args)
		if err != nil {
			return sqltypes.Null, err
		}
		if u == nil {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(u.Host), nil
	case "DLURLCOMPLETE":
		u, err := dlArg(n.Name, args)
		if err != nil {
			return sqltypes.Null, err
		}
		if u == nil {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(u.String()), nil
	case "DLLINKTYPE":
		if err := arity(1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		if args[0].Kind() != sqltypes.KindDatalink {
			return sqltypes.Null, fmt.Errorf("sqldb: DLLINKTYPE expects a DATALINK argument")
		}
		return sqltypes.NewString("URL"), nil
	}
	return sqltypes.Null, fmt.Errorf("sqldb: unknown function %s", n.Name)
}

func dlArg(fn string, args []sqltypes.Value) (*sqltypes.DatalinkURL, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("sqldb: %s expects 1 argument", fn)
	}
	if args[0].IsNull() {
		return nil, nil
	}
	if args[0].Kind() != sqltypes.KindDatalink {
		return nil, fmt.Errorf("sqldb: %s expects a DATALINK argument, got %s", fn, args[0].Kind())
	}
	u, err := sqltypes.ParseDatalinkURL(args[0].Str())
	if err != nil {
		return nil, err
	}
	return &u, nil
}
