package dlfs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/med"
	"repro/internal/sqltypes"
)

// countingFS counts the bytes written through it, to any file.
type countingFS struct {
	iofault.FS
	written *int64
}

type countingFile struct {
	iofault.File
	written *int64
}

func (c countingFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c.written}, nil
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	*f.written += int64(n)
	return n, err
}

// What a link costs to record does not depend on how many links the
// registry already holds: one frame, whether it is the 101st or the
// 5,001st.
func TestRegistryCommitCostIsFlat(t *testing.T) {
	var written int64
	s, err := NewStoreFS(t.TempDir(), countingFS{iofault.Disk{}, &written})
	if err != nil {
		t.Fatal(err)
	}
	opts := sqltypes.DefaultEASIA()
	next := 0
	growTo := func(links int) {
		t.Helper()
		// One transaction, so one registry write, however many links.
		for ; next < links; next++ {
			rel := fmt.Sprintf("bulk/%05d.dat", next)
			writePayload(t, s.Root(), rel)
			if err := s.Prepare(1, med.LinkOp{Kind: med.OpLink, Path: "/" + rel, Opts: opts}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(1); err != nil {
			t.Fatal(err)
		}
	}
	oneMore := func(rel string) (cost, frame int64) {
		t.Helper()
		writePayload(t, s.Root(), rel)
		before := written
		commitLink(t, s, 2, "/"+rel, opts)
		for _, ls := range s.LinkStates() {
			if ls.Path == "/"+rel {
				payload, err := json.Marshal(ls)
				if err != nil {
					t.Fatal(err)
				}
				return written - before, int64(len(iofault.AppendFrame(nil, payload)))
			}
		}
		t.Fatalf("%s not linked", rel)
		return 0, 0
	}
	growTo(100)
	costAt100, frame := oneMore("probe/a.dat")
	if costAt100 != frame {
		t.Fatalf("one link at 100 links wrote %d bytes, want its one %d-byte frame", costAt100, frame)
	}
	growTo(5000)
	costAt5000, frame := oneMore("probe/b.dat")
	if costAt5000 != frame {
		t.Fatalf("one link at 5,000 links wrote %d bytes, want its one %d-byte frame (%d at 100 links)", costAt5000, frame, costAt100)
	}
	if frame > 360 {
		t.Fatalf("a link record is %d bytes; the JSON registry it replaces spent about 360 per link", frame)
	}
	reloaded, err := NewStore(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if got := reloaded.LinkedCount(); got != 5002 {
		t.Fatalf("links after reload = %d, want 5002", got)
	}
}

// A registry that is churned rather than grown does not grow either:
// compaction keeps the file within 2×live+64 records, and tombstones
// that expire leave memory and, at the next compaction, the file.
func TestRegistryChurnCompacts(t *testing.T) {
	const paths, cycles = 64, 2000
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := sqltypes.DefaultEASIA()
	for i := 0; i < paths; i++ {
		writePayload(t, s.Root(), fmt.Sprintf("c/%02d.dat", i))
	}
	cycle := func(i int) {
		t.Helper()
		path := fmt.Sprintf("/c/%02d.dat", i%paths)
		if err := s.EnsureLinked(path, opts); err != nil {
			t.Fatal(err)
		}
		if err := s.EnsureUnlinked(path, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < cycles; i++ {
		cycle(i)
	}
	if n := requireCleanRegistry(t, s.Root()); n > 3*paths {
		t.Fatalf("registry holds %d records after %d link/unlink cycles over %d paths, want at most %d", n, cycles, paths, 3*paths)
	}
	reloaded, err := NewStore(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reloaded.LinkStates(), s.LinkStates(); len(want) != paths || !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded registry has %d entries, the live one %d, want the same %d tombstones", len(got), len(want), paths)
	}

	// Files archived and deleted once each never push the record count
	// past twice the tombstones they leave behind. Those tombstones
	// expire, though, and must then leave the file, not wait for a
	// compaction that their own weight keeps from coming due.
	s.SetTombstoneTTL(time.Nanosecond)
	for i := 0; i < 200; i++ {
		rel := fmt.Sprintf("once/%03d.dat", i)
		writePayload(t, s.Root(), rel)
		if err := s.EnsureLinked("/"+rel, opts); err != nil {
			t.Fatal(err)
		}
		if err := s.EnsureUnlinked("/"+rel, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if n := requireCleanRegistry(t, s.Root()); n > 2*2+64 {
		t.Fatalf("registry holds %d records of expired tombstones, want at most the %d that two live entries allow", n, 2*2+64)
	}
}

// TestRegistryTailCorpus pins the truncate-vs-refuse decision at open
// for the tail shapes a crash or a bad disk can leave.
func TestRegistryTailCorpus(t *testing.T) {
	const links = 6
	seed := func(t *testing.T) string {
		t.Helper()
		s, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < links; i++ {
			rel := fmt.Sprintf("f%d.dat", i)
			writePayload(t, s.Root(), rel)
			if err := s.EnsureLinked("/"+rel, sqltypes.DefaultEASIA()); err != nil {
				t.Fatal(err)
			}
		}
		return s.Root()
	}
	// reopenTruncated opens a store whose tail the open must cut, checks
	// that want links survive, and that the next append lands on a
	// frame boundary.
	reopenTruncated := func(t *testing.T, root string, want int) {
		t.Helper()
		s, err := NewStore(root)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.LinkedCount(); got != want {
			t.Fatalf("recovered %d links, want %d", got, want)
		}
		if n := requireCleanRegistry(t, root); n != want {
			t.Fatalf("file holds %d records after the open, want %d", n, want)
		}
		writePayload(t, root, "after.dat")
		if err := s.EnsureLinked("/after.dat", sqltypes.DefaultEASIA()); err != nil {
			t.Fatal(err)
		}
		requireCleanRegistry(t, root)
		again, err := NewStore(root)
		if err != nil {
			t.Fatalf("second reopen: %v", err)
		}
		if got := again.LinkedCount(); got != want+1 {
			t.Fatalf("second reopen found %d links, want %d", got, want+1)
		}
	}

	t.Run("torn header", func(t *testing.T) {
		root := seed(t)
		if err := iofault.AppendGarbage(registryFilePath(root), rand.New(rand.NewSource(7)), 3); err != nil {
			t.Fatal(err)
		}
		reopenTruncated(t, root, links)
	})
	t.Run("torn payload", func(t *testing.T) {
		root := seed(t)
		if err := iofault.TruncateTail(registryFilePath(root), 9); err != nil {
			t.Fatal(err)
		}
		reopenTruncated(t, root, links-1)
	})
	t.Run("garbage tail", func(t *testing.T) {
		root := seed(t)
		if err := iofault.AppendGarbage(registryFilePath(root), rand.New(rand.NewSource(3)), 200); err != nil {
			t.Fatal(err)
		}
		reopenTruncated(t, root, links)
	})
	t.Run("final frame bit flip truncates", func(t *testing.T) {
		root := seed(t)
		if err := iofault.FlipBit(registryFilePath(root), -2); err != nil {
			t.Fatal(err)
		}
		reopenTruncated(t, root, links-1)
	})
	t.Run("mid-log bit flip refuses", func(t *testing.T) {
		// Payload, CRC, and each byte of the length field — the second
		// of which makes the frame claim to run past the end of the file.
		for _, at := range []int64{9, 5, 0, 1, 3} {
			root := seed(t)
			if err := iofault.FlipBit(registryFilePath(root), registryFrameOffsets(t, root)[links/2]+at); err != nil {
				t.Fatal(err)
			}
			if _, err := NewStore(root); !errors.Is(err, ErrRegistryCorrupt) {
				t.Fatalf("open with byte %d of a mid-log frame damaged: %v, want ErrRegistryCorrupt", at, err)
			}
		}
	})
	t.Run("not a registry refuses", func(t *testing.T) {
		for _, content := range []string{"", "DLFM", "hello, world", `{"version": 2, "links": [`} {
			root := t.TempDir()
			if err := os.WriteFile(registryFilePath(root), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := NewStore(root); !errors.Is(err, ErrRegistryCorrupt) {
				t.Fatalf("open on %q: %v, want ErrRegistryCorrupt", content, err)
			}
		}
	})
}
