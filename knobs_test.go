package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// knobsWithoutCallers are the exported (*sqldb.DB).Set* methods nothing
// but tests calls, each with the reason it stays. ROADMAP aim 2: every
// knob needs a caller that is not a test — so this list may only shrink
// (maxKnobsWithoutCallers), and an entry that gains a caller, or whose
// method is gone, must leave it.
var knobsWithoutCallers = map[string]string{
	"SetFullScanOnly":      "the index ≡ scan oracle of the planner, join and reference-evaluator property tests, until ROADMAP item 3's evaluator covers it",
	"SetStatementTimeout":  "the per-database default deadline; easiad has no flag for it yet",
	"SetPlanCacheCapacity": "the plan-cache ablation's off switch; no deployment has needed another size",
}

const maxKnobsWithoutCallers = 3

// TestKnobsHaveCallers parses the module: every exported Set* method on
// *sqldb.DB is called from some non-test file (matched by method name),
// or is listed above with its reason.
func TestKnobsHaveCallers(t *testing.T) {
	if len(knobsWithoutCallers) > maxKnobsWithoutCallers {
		t.Fatalf("%d knobs without callers, at most %d allowed: the list only shrinks", len(knobsWithoutCallers), maxKnobsWithoutCallers)
	}
	fset := token.NewFileSet()
	knobs := map[string]bool{}  // exported Set* methods of *sqldb.DB
	called := map[string]bool{} // every method name some non-test file calls
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
		inSqldb := filepath.ToSlash(filepath.Dir(path)) == "internal/sqldb"
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if inSqldb && n.Recv != nil && n.Name.IsExported() && strings.HasPrefix(n.Name.Name, "Set") {
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
