package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// knobsWithoutCallers are the exported (*sqldb.DB).Set* methods nothing
// but tests calls, each with the reason it stays. ROADMAP aim 2: every
// knob needs a caller that is not a test — so this list may only shrink
// (maxKnobsWithoutCallers), and an entry that gains a caller, or whose
// method is gone, must leave it.
var knobsWithoutCallers = map[string]string{}

const maxKnobsWithoutCallers = 0

// entryPointsWithoutCallers are the names of the exported methods of
// *sqldb.DB and *sqldb.Stmt that no non-test file outside
// internal/sqldb calls, each with the reason it stays. The same rule as
// the knobs: the list may only shrink (maxEntryPointsWithoutCallers),
// and an entry that gains a caller, or whose method is gone, must leave
// it.
var entryPointsWithoutCallers = map[string]string{
	"AccessPath":   "Stmt's EXPLAIN for diagnostics; the planner tests read every plan through it",
	"Vacuum":       "reclaims dead versions on demand; checkpoints and auto-vacuum reclaim on their own",
	"ExecContext":  "DB's and Stmt's: the request context reaches no write yet (ROADMAP item 29)",
	"QueryContext": "DB's and Stmt's: the request context reaches no query yet (ROADMAP item 29)",
}

const maxEntryPointsWithoutCallers = 4

// fieldsWithoutSetters are the exported fields of sqldb.Options and
// sqldb.DB that no non-test file outside internal/sqldb sets, each with
// the reason it stays. The same rule as the knobs: the list may only
// shrink (maxFieldsWithoutSetters), and an entry that gains a setter, or
// whose field is gone, must leave it.
var fieldsWithoutSetters = map[string]string{
	"Options.FS":            "the fault-injection seam of the sqldb crash soaks; core.Config cannot pass it yet (ROADMAP item 10)",
	"DB.CheckpointEvery":    "the automatic checkpoint period; every deployment runs the default (1024), tests lower it to force checkpoints",
	"DB.AutoVacuumDeadRows": "the auto-vacuum threshold; every deployment runs the default (16384), tests lower it to force vacuums",
	"DB.CloseGrace":         "Close's drain bound; every deployment runs the default (5 s), tests shorten it",
}

const maxFieldsWithoutSetters = 4

// sqldbImport is the import path whose knobs and fields the ledgers cover.
const sqldbImport = "repro/internal/sqldb"

// parseModule parses every non-test Go file of the module, handing each
// to visit with its path.
func parseModule(t *testing.T, visit func(path string, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(path, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// inSqldb reports whether path is a file of package sqldb itself.
func inSqldb(path string) bool {
	return filepath.ToSlash(filepath.Dir(path)) == "internal/sqldb"
}

// TestKnobsHaveCallers parses the module: every exported Set* method on
// *sqldb.DB is called from some non-test file (matched by method name),
// or is listed above with its reason.
func TestKnobsHaveCallers(t *testing.T) {
	if len(knobsWithoutCallers) > maxKnobsWithoutCallers {
		t.Fatalf("%d knobs without callers, at most %d allowed: the list only shrinks", len(knobsWithoutCallers), maxKnobsWithoutCallers)
	}
	knobs := map[string]bool{}  // exported Set* methods of *sqldb.DB
	called := map[string]bool{} // every method name some non-test file calls
	parseModule(t, func(path string, file *ast.File) {
		inPkg := inSqldb(path)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if inPkg && n.Recv != nil && n.Name.IsExported() && strings.HasPrefix(n.Name.Name, "Set") {
					if star, ok := n.Recv.List[0].Type.(*ast.StarExpr); ok {
						if id, ok := star.X.(*ast.Ident); ok && id.Name == "DB" {
							knobs[n.Name.Name] = true
						}
					}
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					called[sel.Sel.Name] = true
				}
			}
			return true
		})
	})
	if len(knobs) == 0 {
		t.Fatal("found no (*DB).Set* method under internal/sqldb: run from the module root")
	}
	for name := range knobs {
		_, listed := knobsWithoutCallers[name]
		switch {
		case !called[name] && !listed:
			t.Errorf("(*sqldb.DB).%s has no caller outside _test.go files: give it one, delete it, or list it with a reason", name)
		case called[name] && listed:
			t.Errorf("(*sqldb.DB).%s has a non-test caller now: take it off the list", name)
		}
	}
	for name := range knobsWithoutCallers {
		if !knobs[name] {
			t.Errorf("%s is listed but is no (*sqldb.DB).Set* method any more: take it off the list", name)
		}
	}
}

// TestEntryPointsHaveCallers parses the module: every exported method
// of *sqldb.DB and *sqldb.Stmt is called from some non-test file outside
// internal/sqldb (matched by method name; bench/ counts), or is listed
// above with its reason.
func TestEntryPointsHaveCallers(t *testing.T) {
	if len(entryPointsWithoutCallers) > maxEntryPointsWithoutCallers {
		t.Fatalf("%d entry points without callers, at most %d allowed: the list only shrinks", len(entryPointsWithoutCallers), maxEntryPointsWithoutCallers)
	}
	methods := map[string]string{} // method name → its receiver, "DB" or "Stmt"
	called := map[string]bool{}    // method names some outside non-test file calls
	parseModule(t, func(path string, file *ast.File) {
		inPkg := inSqldb(path)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if inPkg && n.Recv != nil && n.Name.IsExported() {
					if star, ok := n.Recv.List[0].Type.(*ast.StarExpr); ok {
						if id, ok := star.X.(*ast.Ident); ok && (id.Name == "DB" || id.Name == "Stmt") {
							methods[n.Name.Name] = id.Name
						}
					}
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && !inPkg {
					called[sel.Sel.Name] = true
				}
			}
			return true
		})
	})
	if len(methods) == 0 {
		t.Fatal("found no exported (*DB) or (*Stmt) method under internal/sqldb: run from the module root")
	}
	for name, recv := range methods {
		_, listed := entryPointsWithoutCallers[name]
		switch {
		case !called[name] && !listed:
			t.Errorf("(*sqldb.%s).%s has no caller outside internal/sqldb and _test.go files: give it one, delete it, or list it with a reason", recv, name)
		case called[name] && listed:
			t.Errorf("(*sqldb.%s).%s has a caller outside internal/sqldb now: take it off the list", recv, name)
		}
	}
	for name := range entryPointsWithoutCallers {
		if _, ok := methods[name]; !ok {
			t.Errorf("%s is listed but is no exported (*sqldb.DB) or (*sqldb.Stmt) method any more: take it off the list", name)
		}
	}
}

// TestFieldsHaveSetters parses the module: every exported field of
// sqldb.Options and sqldb.DB is set by some non-test file outside
// internal/sqldb that imports it — as a key of a sqldb.Options
// composite literal, or as the selector an assignment writes (matched
// by field name) — or is listed above with its reason.
func TestFieldsHaveSetters(t *testing.T) {
	if len(fieldsWithoutSetters) > maxFieldsWithoutSetters {
		t.Fatalf("%d fields without setters, at most %d allowed: the list only shrinks", len(fieldsWithoutSetters), maxFieldsWithoutSetters)
	}
	structs := map[string]*ast.StructType{} // package sqldb's struct types
	set := map[string]bool{}                // field names some importing file sets
	parseModule(t, func(path string, file *ast.File) {
		if inSqldb(path) {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, spec := range gd.Specs {
						ts := spec.(*ast.TypeSpec)
						if st, ok := ts.Type.(*ast.StructType); ok {
							structs[ts.Name.Name] = st
						}
					}
				}
			}
			return
		}
		pkg := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == sqldbImport {
				pkg = "sqldb"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			return
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				sel, ok := n.Type.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Options" {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); !ok || id.Name != pkg {
					return true
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							set[key.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	})
	fields := map[string]string{} // field name → "Options.Name" / "DB.Name"
	var collect func(owner string, st *ast.StructType)
	collect = func(owner string, st *ast.StructType) {
		for _, f := range st.Fields.List {
			if f.Names == nil { // an embedded struct promotes its fields
				if id, ok := f.Type.(*ast.Ident); ok && structs[id.Name] != nil {
					collect(owner, structs[id.Name])
				}
			}
			for _, id := range f.Names {
				if id.IsExported() {
					fields[id.Name] = owner + "." + id.Name
				}
			}
		}
	}
	for _, owner := range []string{"Options", "DB"} {
		if st := structs[owner]; st != nil {
			collect(owner, st)
		}
	}
	if len(fields) == 0 {
		t.Fatal("found no exported field of sqldb.Options or sqldb.DB: run from the module root")
	}
	for name, field := range fields {
		_, listed := fieldsWithoutSetters[field]
		switch {
		case !set[name] && !listed:
			t.Errorf("sqldb.%s is set by no non-test file outside internal/sqldb: give it a setter, delete it, or list it with a reason", field)
		case set[name] && listed:
			t.Errorf("sqldb.%s has a non-test setter now: take it off the list", field)
		}
	}
	listedFields := map[string]bool{}
	for _, field := range fields {
		listedFields[field] = true
	}
	for field := range fieldsWithoutSetters {
		if !listedFields[field] {
			t.Errorf("%s is listed but is no exported field of sqldb.Options or sqldb.DB any more: take it off the list", field)
		}
	}
}
