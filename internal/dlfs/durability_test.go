package dlfs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/med"
	"repro/internal/sqltypes"
)

func writePayload(t *testing.T, root, rel string) {
	t.Helper()
	p := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func registryFilePath(root string) string { return filepath.Join(root, ".dlfm-links.json") }

// scanRegistry parses the registry file of the store rooted at root the
// way NewStore does and returns the scan and the file's length in
// frames' bytes (header excluded), without opening a store on it.
func scanRegistry(t *testing.T, root string) (iofault.FrameScan[LinkState], int64) {
	t.Helper()
	b, err := os.ReadFile(registryFilePath(root))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte(registryMagic)) {
		t.Fatalf("registry does not start with the log magic: %q", b[:min(len(b), 16)])
	}
	b = b[len(registryMagic):]
	return iofault.ScanFrames(b, decodeLinkRecord), int64(len(b))
}

// requireCleanRegistry fails unless the registry file ends on a frame
// boundary, and returns how many records it holds.
func requireCleanRegistry(t *testing.T, root string) int {
	t.Helper()
	scan, size := scanRegistry(t, root)
	if scan.Tail != iofault.TailClean || scan.GoodLen != size {
		t.Fatalf("registry tail %v (%s), %d of %d bytes intact; want clean", scan.Tail, scan.Detail, scan.GoodLen, size)
	}
	return len(scan.Records)
}

// registryFrameOffsets returns the file offset of every frame of an
// undamaged registry file, in order.
func registryFrameOffsets(t *testing.T, root string) (offs []int64) {
	t.Helper()
	b, err := os.ReadFile(registryFilePath(root))
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(len(registryMagic)); off < int64(len(b)); off += 8 + int64(binary.LittleEndian.Uint32(b[off:])) {
		offs = append(offs, off)
	}
	return offs
}

func commitLink(t *testing.T, s *Store, tx uint64, path string, opts sqltypes.DatalinkOptions) {
	t.Helper()
	if err := s.Prepare(tx, med.LinkOp{Kind: med.OpLink, Path: path, Opts: opts}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

// A link Commit whose registry write cannot be made durable must say so:
// the in-memory link exists, but a crash before the next successful save
// would forget it, and the caller (the 2PC coordinator) is the one who
// can retry or reconcile.
func TestRegistryCommitSurfacesSyncFailure(t *testing.T) {
	faults := iofault.New(nil)
	s, err := NewStoreFS(t.TempDir(), faults)
	if err != nil {
		t.Fatal(err)
	}
	writePayload(t, s.Root(), "f.dat")
	faults.FailSync(".dlfm-links")
	if err := s.Prepare(1, med.LinkOp{Kind: med.OpLink, Path: "/f.dat", Opts: sqltypes.DefaultEASIA()}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("Commit with unsyncable registry: %v, want ErrInjected surfaced", err)
	}
	// After the fault clears, the next registry mutation persists
	// everything, including the link the failed save could not.
	faults.HealSync(".dlfm-links")
	writePayload(t, s.Root(), "g.dat")
	if err := s.EnsureLinked("/g.dat", sqltypes.DefaultEASIA()); err != nil {
		t.Fatal(err)
	}
	reloaded, err := NewStore(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if got := reloaded.LinkedCount(); got != 2 {
		t.Fatalf("links after reload = %d, want 2", got)
	}

	// The same for an append that fails part-way: a few bytes of the
	// frame are on disk, so the next state change must replace the file
	// rather than append a good frame behind them — which the next open
	// could not tell from mid-log corruption.
	writePayload(t, s.Root(), "h.dat")
	faults.ShortWriteNext(".dlfm-links", 5)
	if err := s.EnsureLinked("/h.dat", sqltypes.DefaultEASIA()); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("EnsureLinked with a short registry write: %v, want ErrInjected surfaced", err)
	}
	if scan, _ := scanRegistry(t, s.Root()); scan.Tail != iofault.TailTorn {
		t.Fatalf("short write left tail %v, want the torn frame the test is about", scan.Tail)
	}
	writePayload(t, s.Root(), "i.dat")
	if err := s.EnsureLinked("/i.dat", sqltypes.DefaultEASIA()); err != nil {
		t.Fatal(err)
	}
	requireCleanRegistry(t, s.Root())
	reloaded, err = NewStore(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if got := reloaded.LinkedPaths(); !reflect.DeepEqual(got, []string{"/f.dat", "/g.dat", "/h.dat", "/i.dat"}) {
		t.Fatalf("links after reload = %v, want f, g, h and i", got)
	}
}

// ON UNLINK DELETE may remove the file only once the unlink is durable.
// The other order leaves, after a failed registry write and a restart, a
// link to a file that no longer exists, on a path the database has
// already deleted and Reconcile will never visit: nothing can be put
// there (ErrWriteBlocked) or linked there (ErrAlreadyLinked) again.
func TestUnlinkDeleteWaitsForDurableUnlink(t *testing.T) {
	faults := iofault.New(nil)
	s, err := NewStoreFS(t.TempDir(), faults)
	if err != nil {
		t.Fatal(err)
	}
	opts := sqltypes.DefaultEASIA()
	opts.OnUnlink = sqltypes.UnlinkDelete
	writePayload(t, s.Root(), "f.dat")
	commitLink(t, s, 1, "/f.dat", opts)

	faults.FailSync(".dlfm-links")
	if err := s.Prepare(2, med.LinkOp{Kind: med.OpUnlink, Path: "/f.dat", Opts: opts}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("unlink Commit with unsyncable registry: %v, want ErrInjected surfaced", err)
	}
	if _, err := os.Stat(filepath.Join(s.Root(), "f.dat")); err != nil {
		t.Fatalf("file removed before its unlink was durable: %v", err)
	}

	faults.HealSync(".dlfm-links")
	writePayload(t, s.Root(), "g.dat")
	if err := s.EnsureLinked("/g.dat", sqltypes.DefaultEASIA()); err != nil {
		t.Fatal(err)
	}
	reloaded, err := NewStore(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if got := reloaded.LinkedPaths(); !reflect.DeepEqual(got, []string{"/g.dat"}) {
		t.Fatalf("links after heal and reload = %v, want only /g.dat", got)
	}
	if err := reloaded.Remove("/f.dat"); err != nil {
		t.Fatalf("unlinked file not removable: %v", err)
	}
}

// Unlinking leaves a tombstone that rides the LinkStates wire, and a
// fresh link supersedes it.
func TestUnlinkLeavesTombstone(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writePayload(t, s.Root(), "f.dat")
	opts := sqltypes.DefaultEASIA()
	if err := s.EnsureLinked("/f.dat", opts); err != nil {
		t.Fatal(err)
	}
	if err := s.Prepare(2, med.LinkOp{Kind: med.OpUnlink, Path: "/f.dat", Opts: opts}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	states := s.LinkStates()
	var tomb *LinkState
	for i := range states {
		if states[i].Path == "/f.dat" && states[i].Tombstone() {
			tomb = &states[i]
		}
	}
	if tomb == nil {
		t.Fatalf("no tombstone in LinkStates: %+v", states)
	}
	if !tomb.EventTime().Equal(tomb.UnlinkedAt) {
		t.Fatal("tombstone EventTime should be its UnlinkedAt")
	}
	// The tombstone survives a restart (it is part of the registry).
	reloaded, err := NewStore(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ls := range reloaded.LinkStates() {
		if ls.Path == "/f.dat" && ls.Tombstone() {
			found = true
		}
	}
	if !found {
		t.Fatal("tombstone lost across restart")
	}
	// Relinking supersedes it.
	if err := reloaded.EnsureLinked("/f.dat", opts); err != nil {
		t.Fatal(err)
	}
	for _, ls := range reloaded.LinkStates() {
		if ls.Path == "/f.dat" && ls.Tombstone() {
			t.Fatal("tombstone survived a fresh link")
		}
	}
}

// Tombstones are garbage-collected after their TTL, at save time and
// when reporting LinkStates.
func TestTombstoneTTLGC(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetTombstoneTTL(time.Minute)
	// An unlink from two minutes ago: already expired.
	if err := s.EnsureUnlinked("/old.dat", time.Now().Add(-2*time.Minute)); err != nil {
		t.Fatal(err)
	}
	// A fresh unlink: retained.
	if err := s.EnsureUnlinked("/new.dat", time.Now()); err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, ls := range s.LinkStates() {
		if ls.Tombstone() {
			paths = append(paths, ls.Path)
		}
	}
	if len(paths) != 1 || paths[0] != "/new.dat" {
		t.Fatalf("tombstones visible = %v, want only /new.dat", paths)
	}
	reloaded, err := NewStore(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range reloaded.LinkStates() {
		if ls.Path == "/old.dat" {
			t.Fatal("expired tombstone persisted across save")
		}
	}
}

// openLegacyRegistry installs a JSON registry written by the commit
// before the record log as a store's registry file and opens the store:
// the links and unexpired tombstones are the fixture's, and the open has
// already converted the file to the log.
func openLegacyRegistry(t *testing.T, fixture string) *Store {
	t.Helper()
	legacy, err := os.ReadFile(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	var want []LinkState
	if bytes.HasPrefix(legacy, []byte("[")) {
		err = json.Unmarshal(legacy, &want)
	} else {
		var reg struct{ Links, Tombstones []LinkState }
		err = json.Unmarshal(legacy, &reg)
		cutoff := time.Now().Add(-DefaultTombstoneTTL)
		want = reg.Links
		for _, ls := range reg.Tombstones {
			if !ls.UnlinkedAt.Before(cutoff) {
				want = append(want, ls)
			}
		}
		if len(want) == len(reg.Links) || len(want) == len(reg.Links)+len(reg.Tombstones) {
			t.Fatalf("fixture should hold both a retained and an expired tombstone")
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Path < want[j].Path })

	dir := t.TempDir()
	if err := os.WriteFile(registryFilePath(dir), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.LinkStates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy registry loaded as\n%+v\nwant\n%+v", got, want)
	}
	if n := requireCleanRegistry(t, dir); n != len(want) {
		t.Fatalf("converted registry holds %d records, want %d", n, len(want))
	}
	return s
}

// A v1 registry (bare JSON array of links) loads transparently and is
// converted to the record log by the open that reads it.
func TestRegistryLegacyV1Upgrade(t *testing.T) {
	s := openLegacyRegistry(t, "registry_v1.json")
	dir := s.Root()
	if got := s.LinkedCount(); got != 1 {
		t.Fatalf("legacy registry loaded %d links, want 1", got)
	}
	writePayload(t, dir, "b.dat")
	if err := s.EnsureLinked("/b.dat", sqltypes.DefaultEASIA()); err != nil {
		t.Fatal(err)
	}
	if n := requireCleanRegistry(t, dir); n != 2 {
		t.Fatalf("registry holds %d records after one append to the converted file, want 2", n)
	}
	reloaded, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reloaded.LinkedCount(); got != 2 {
		t.Fatalf("links after upgrade round-trip = %d, want 2", got)
	}
}

// The same for the v2 registry (pretty-printed object of links and
// tombstones) the parent commit wrote: every link and every unexpired
// tombstone survives the conversion, options and event times intact.
func TestRegistryLegacyV2Upgrade(t *testing.T) {
	s := openLegacyRegistry(t, "registry_v2.json")
	before := s.LinkStates()
	if err := s.EnsureUnlinked("/codes/solver.tar", time.Now()); err != nil {
		t.Fatal(err)
	}
	reloaded, err := NewStore(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	after := reloaded.LinkStates()
	if len(after) != len(before) {
		t.Fatalf("%d registry entries after a mutation and a reload, want %d", len(after), len(before))
	}
	for i, ls := range after {
		if ls.Path == "/codes/solver.tar" {
			if !ls.Tombstone() || !ls.LinkedAt.Equal(before[i].LinkedAt) || ls.Opts != before[i].Opts {
				t.Fatalf("unlink of a converted link reloaded as %+v", ls)
			}
		} else if !reflect.DeepEqual(ls, before[i]) {
			t.Fatalf("entry %d changed across the reload: %+v, was %+v", i, ls, before[i])
		}
	}
}
