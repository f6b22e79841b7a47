package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dlfs"
	"repro/internal/med"
)

// heldCommitHost applies a Commit on its host, then, when hold is
// armed, reports on held and waits for release before answering: the
// host has unlinked, the database has not heard back.
type heldCommitHost struct {
	FileHost
	hold    atomic.Bool
	held    chan struct{}
	release chan struct{}
}

func (h *heldCommitHost) Commit(txID uint64) error {
	err := h.FileHost.Commit(txID)
	if h.hold.CompareAndSwap(true, false) {
		h.held <- struct{}{}
		<-h.release
	}
	return err
}

// TestLinkedFileSizeMissesWhileUnlinkInFlight: while a transaction that
// unlinks a file is still committing, a size remembered before it is
// not served. Here the host has already freed the path, another writer
// has re-archived it with another size and had that acknowledged, and
// only the DELETE's own acknowledgement is outstanding.
func TestLinkedFileSizeMissesWhileUnlinkInFlight(t *testing.T) {
	h := &heldCommitHost{held: make(chan struct{}), release: make(chan struct{})}
	a := linkSizeArchive(t, func(fh FileHost) FileHost {
		h.FileHost = fh
		return h
	})
	url := archiveLinked(t, a, 1, "ten bytes!")
	for i := 0; i < 2; i++ { // the second answer comes from the memo
		if size, err := a.LinkedFileSize(url); err != nil || size != 10 {
			t.Fatalf("LinkedFileSize = %d, %v; want 10", size, err)
		}
	}

	h.hold.Store(true)
	deleted := make(chan error, 1)
	go func() {
		_, err := a.DB.Exec(`DELETE FROM F WHERE ID = 1`)
		deleted <- err
	}()
	<-h.held
	archiveLinked(t, a, 2, "now twenty bytes!!!!")
	size, err := a.LinkedFileSize(url)
	close(h.release)
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	if err != nil || size != 20 {
		t.Fatalf("with the unlink in flight LinkedFileSize = %d, %v; want 20", size, err)
	}
	if size, err := a.LinkedFileSize(url); err != nil || size != 20 {
		t.Fatalf("after the unlink LinkedFileSize = %d, %v; want 20", size, err)
	}
}

// lateCommitHost fails a Commit when fail is armed, without applying
// it, and remembers the transaction so the test can apply it later: the
// host's answer was lost, the unlink lands afterwards.
type lateCommitHost struct {
	FileHost
	fail   atomic.Bool
	missed atomic.Uint64
	stats  atomic.Int64
}

func (h *lateCommitHost) Commit(txID uint64) error {
	if h.fail.CompareAndSwap(true, false) {
		h.missed.Store(txID)
		return errors.New("commit answer lost")
	}
	return h.FileHost.Commit(txID)
}

func (h *lateCommitHost) StatFile(path string) (dlfs.FileInfo, error) {
	h.stats.Add(1)
	return h.FileHost.StatFile(path)
}

// linkSizeArchive opens an archive with one in-process host, wrapped by
// wrap, and a table F whose DATALINK column is READ PERMISSION DB WRITE
// PERMISSION BLOCKED.
func linkSizeArchive(t *testing.T, wrap func(FileHost) FileHost) *Archive {
	t.Helper()
	secret := []byte("integration-secret")
	a, err := Open(Config{Secret: secret, WorkRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	auth, err := med.NewTokenAuthority(secret, 0)
	if err != nil {
		t.Fatal(err)
	}
	store, err := dlfs.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a.AttachFileServer(wrap(WrapManager(dlfs.NewManager("fs1.sim:80", store, auth))))
	if _, err := a.DB.Exec(`CREATE TABLE F (ID INTEGER PRIMARY KEY,
		D DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL
		  READ PERMISSION DB WRITE PERMISSION BLOCKED RECOVERY YES ON UNLINK RESTORE)`); err != nil {
		t.Fatal(err)
	}
	return a
}

// archiveLinked puts body at /d/f.dat and links it from row id of F.
func archiveLinked(t *testing.T, a *Archive, id int, body string) string {
	t.Helper()
	url, err := a.ArchiveFile("fs1.sim:80", "/d/f.dat", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.DB.Exec(fmt.Sprintf(`INSERT INTO F VALUES (%d, DLVALUE('%s'))`, id, url)); err != nil {
		t.Fatal(err)
	}
	return url
}

// TestLinkedFileSizeAfterFailedUnlinkCommit: a DELETE whose host Commit
// fails leaves the host free to apply the unlink later. Until Reconcile
// has run, no size the host reports is remembered, so once the late
// unlink lands and the path is re-archived with another size and linked
// again (a link-only commit, which does not move the generation), the
// new size shows.
func TestLinkedFileSizeAfterFailedUnlinkCommit(t *testing.T) {
	var h *lateCommitHost
	a := linkSizeArchive(t, func(fh FileHost) FileHost {
		h = &lateCommitHost{FileHost: fh}
		return h
	})
	url := archiveLinked(t, a, 1, "ten bytes!")
	if size, err := a.LinkedFileSize(url); err != nil || size != 10 {
		t.Fatalf("LinkedFileSize = %d, %v; want 10", size, err)
	}

	h.fail.Store(true)
	if _, err := a.DB.Exec(`DELETE FROM F WHERE ID = 1`); err == nil {
		t.Fatal("the DELETE's failed link commit was not reported")
	}
	// The host has not applied the unlink yet: still linked, 10 bytes,
	// and not to be remembered.
	for i := 0; i < 2; i++ {
		if size, err := a.LinkedFileSize(url); err != nil || size != 10 {
			t.Fatalf("LinkedFileSize = %d, %v; want 10", size, err)
		}
	}
	if err := h.FileHost.Commit(h.missed.Load()); err != nil {
		t.Fatal(err)
	}
	archiveLinked(t, a, 2, "now twenty bytes!!!!")
	if size, err := a.LinkedFileSize(url); err != nil || size != 20 {
		t.Fatalf("after the late unlink and a relink LinkedFileSize = %d, %v; want 20", size, err)
	}

	if err := a.Reconcile(); err != nil {
		t.Fatal(err)
	}
	before := h.stats.Load()
	for i := 0; i < 2; i++ {
		if size, err := a.LinkedFileSize(url); err != nil || size != 20 {
			t.Fatalf("after Reconcile LinkedFileSize = %d, %v; want 20", size, err)
		}
	}
	if n := h.stats.Load() - before; n != 1 {
		t.Fatalf("after Reconcile two lookups asked the host %d times, want 1", n)
	}
}
