package repro

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docRef matches a reference to an upper-case Markdown document, with
// the path in front of it when there is one: "PAPER.md",
// "internal/dlfs/README.md".
var docRef = regexp.MustCompile(`[\w./-]*\b[A-Z][A-Z_]*\.md\b`)

// TestNoDanglingDocRefs: every Markdown document a Go file or another
// document cites exists — as a path from the repository root, or
// beside the citing file. The notes at the root other than a README
// (roadmap, change log, paper summaries) plan documents not yet
// written, so they are not scanned.
func TestNoDanglingDocRefs(t *testing.T) {
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(p) {
		case ".go":
		case ".md":
			if filepath.Dir(p) == "." && !strings.HasPrefix(p, "README.") {
				return nil
			}
		default:
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		dir := path.Dir(filepath.ToSlash(p))
		for _, ref := range docRef.FindAllString(string(data), -1) {
			if !exists(ref) && !exists(path.Join(dir, ref)) {
				t.Errorf("%s cites %s, which does not exist", p, ref)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func exists(p string) bool {
	_, err := os.Stat(filepath.FromSlash(p))
	return err == nil
}
