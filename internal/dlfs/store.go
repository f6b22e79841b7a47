// Package dlfs implements the Data Links File Manager: the daemon that
// runs on every file-server host and gives the database SQL/MED control
// over external files. It enforces the paper's four DATALINK guarantees
// on the file side:
//
//	referential integrity — linked files cannot be renamed or deleted;
//	transaction consistency — link/unlink happens under a two-phase
//	  protocol driven by the database engine;
//	security — READ PERMISSION DB files are only served against a valid
//	  encrypted access token;
//	coordinated backup — linked RECOVERY YES files can be captured and
//	  restored in sync with the database.
//
// The package provides the on-disk Store, an in-process Manager that
// implements med.FileServer (used in tests, simulations and benches),
// and an HTTP daemon plus client for real distributed deployment.
package dlfs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/iofault"
	"repro/internal/med"
	"repro/internal/sqltypes"
)

// Store errors surfaced to the database and web layers.
var (
	ErrNotFound      = errors.New("dlfs: file not found")
	ErrAlreadyLinked = errors.New("dlfs: file is already linked")
	ErrNotLinked     = errors.New("dlfs: file is not linked")
	ErrLinked        = errors.New("dlfs: operation refused: file is under database link control")
	ErrWriteBlocked  = errors.New("dlfs: write refused: linked with WRITE PERMISSION BLOCKED")
	ErrTokenRequired = errors.New("dlfs: access token required (READ PERMISSION DB)")
	ErrBadPath       = errors.New("dlfs: invalid path")
	// ErrRegistryCorrupt refuses to open a store whose link registry has
	// damage in bytes that were once durable: acknowledged links live in
	// or behind it, and dropping them silently would unprotect files the
	// database still references.
	ErrRegistryCorrupt = errors.New("dlfs: link registry is corrupt")
)

// LinkState records one linked file in the manager's registry — or,
// when UnlinkedAt is set, a tombstone for a file that was unlinked.
// Tombstones ride the same wire format as links (the anti-entropy scan
// consumes both), so a healed partition learns "this was unlinked at T"
// instead of resurrecting the stale link by last-writer-wins union.
type LinkState struct {
	Path     string                   `json:"path"`
	Opts     sqltypes.DatalinkOptions `json:"opts"`
	LinkedAt time.Time                `json:"linked_at"`
	// UnlinkedAt, when non-zero, marks this entry as an unlink
	// tombstone: the path is NOT linked here, and the unlink event at
	// this time outranks any older link elsewhere in the replica set.
	UnlinkedAt time.Time `json:"unlinked_at,omitempty"`
}

// Tombstone reports whether this entry records an unlink rather than a
// live link.
func (ls LinkState) Tombstone() bool { return !ls.UnlinkedAt.IsZero() }

// EventTime is the instant of the entry's most recent state change —
// the timestamp last-writer-wins reconciliation compares.
func (ls LinkState) EventTime() time.Time {
	if ls.UnlinkedAt.After(ls.LinkedAt) {
		return ls.UnlinkedAt
	}
	return ls.LinkedAt
}

// DefaultTombstoneTTL bounds how long unlink tombstones are retained.
// It must exceed the longest partition the tier is expected to heal
// from; after GC a rejoining replica's stale link can win the union
// again, which is the documented residual risk of bounded tombstones.
const DefaultTombstoneTTL = 24 * time.Hour

// FileInfo describes a stored file for the UI layer (the paper's result
// tables display object sizes beside each hyperlink).
type FileInfo struct {
	Path    string
	Size    int64
	ModTime time.Time
	Linked  bool
	Opts    sqltypes.DatalinkOptions // meaningful when Linked
}

// Store is the on-disk file store plus link registry of one file-server
// host. Server-local paths always start with "/" and are mapped below
// the root directory; traversal outside the root is rejected.
type Store struct {
	mu    sync.Mutex
	root  string
	fs    iofault.FS
	links map[string]LinkState
	// unlinked holds unlink tombstones by path, GC'd after tombstoneTTL.
	unlinked     map[string]LinkState
	tombstoneTTL time.Duration
	pending      map[uint64][]med.LinkOp
	// reserved tracks paths claimed by in-flight transactions so two
	// concurrent transactions cannot prepare conflicting work.
	reserved map[string]uint64
	// logRecords counts the records in the registry file, and sinceGC
	// the state changes since expired tombstones were last dropped from
	// memory. stale is set while the file may not hold everything memory
	// does, or may end in bytes of unknown content — it does not exist
	// yet, or a write to it failed — and makes the next state change
	// rewrite it whole instead of appending.
	logRecords int
	sinceGC    int
	stale      bool
}

// NewStore opens (creating if needed) a store rooted at dir, loading any
// persisted link registry; ErrRegistryCorrupt refuses one that is damaged
// in more than its tail.
func NewStore(dir string) (*Store, error) { return NewStoreFS(dir, nil) }

// NewStoreFS opens a store whose durability I/O goes through fs (nil
// selects the real disk); tests inject an iofault controller here.
func NewStoreFS(dir string, fsys iofault.FS) (*Store, error) {
	if fsys == nil {
		fsys = iofault.Disk{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		root:         dir,
		fs:           fsys,
		links:        make(map[string]LinkState),
		unlinked:     make(map[string]LinkState),
		tombstoneTTL: DefaultTombstoneTTL,
		pending:      make(map[uint64][]med.LinkOp),
		reserved:     make(map[string]uint64),
	}
	if err := s.loadRegistry(); err != nil {
		return nil, err
	}
	return s, nil
}

// SetTombstoneTTL bounds unlink-tombstone retention (tests shrink it to
// exercise GC; production keeps DefaultTombstoneTTL).
func (s *Store) SetTombstoneTTL(ttl time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tombstoneTTL = ttl
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) registryPath() string { return filepath.Join(s.root, ".dlfm-links.json") }

// The registry is an append-only record log: registryMagic, then one
// iofault frame per link state change, its payload the compact JSON of
// a LinkState (the form /dlfm/links puts on the wire) — a live link, or
// with UnlinkedAt set the tombstone of an unlink. Replaying the records
// in order rebuilds the two maps. A state change costs one append and
// one fsync whatever the registry's size; the file is rewritten whole,
// atomically, only by compactLocked.
const registryMagic = "DLFMLOG1"

// registryFile is the JSON registry earlier versions rewrote on every
// state change: v2 an object of live links plus unlink tombstones, v1 a
// bare array of links. It is read once, at the open that converts the
// file to the log.
type registryFile struct {
	Links      []LinkState `json:"links"`
	Tombstones []LinkState `json:"tombstones"`
}

func decodeLinkRecord(payload []byte) (LinkState, error) {
	var ls LinkState
	if err := json.Unmarshal(payload, &ls); err != nil {
		return ls, err
	}
	if ls.Path == "" {
		return ls, errors.New("link record without a path")
	}
	return ls, nil
}

func appendLinkRecords(dst []byte, recs []LinkState) ([]byte, error) {
	for _, ls := range recs {
		payload, err := json.Marshal(ls)
		if err != nil {
			return dst, err
		}
		dst = iofault.AppendFrame(dst, payload)
	}
	return dst, nil
}

// applyLocked is the one place a record changes the maps: at replay and
// at every state change alike.
func (s *Store) applyLocked(ls LinkState) {
	if ls.Tombstone() {
		delete(s.links, ls.Path)
		s.unlinked[ls.Path] = ls
	} else {
		s.links[ls.Path] = ls
		delete(s.unlinked, ls.Path) // a fresh link supersedes any tombstone
	}
}

// loadRegistry replays the registry log. A torn tail — what a crash in
// the middle of an append leaves — is cut off here, before anything can
// be appended behind it: a later good frame behind garbage would read as
// mid-log corruption at the next open. Damage with intact records after
// it was once durable, and refuses the open.
func (s *Store) loadRegistry() error {
	path := s.registryPath()
	b, err := iofault.ReadFile(s.fs, path)
	if iofault.IsNotExist(err) {
		s.stale = true // the first state change creates it
		return nil
	}
	if err != nil {
		return err
	}
	if t := bytes.TrimSpace(b); len(t) > 0 && (t[0] == '[' || t[0] == '{') {
		var reg registryFile
		if t[0] == '[' {
			err = json.Unmarshal(b, &reg.Links)
		} else {
			err = json.Unmarshal(b, &reg)
		}
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ErrRegistryCorrupt, path, err)
		}
		for _, ls := range append(reg.Links, reg.Tombstones...) {
			s.applyLocked(ls)
		}
		return s.compactLocked()
	}
	if !bytes.HasPrefix(b, []byte(registryMagic)) {
		return fmt.Errorf("%w: %s is not a link registry", ErrRegistryCorrupt, path)
	}
	scan := iofault.ScanFrames(b[len(registryMagic):], decodeLinkRecord)
	good := int64(len(registryMagic)) + scan.GoodLen
	if scan.Tail == iofault.TailCorrupt {
		return fmt.Errorf("%w: %s, counted from byte %d of %s (%d of %d bytes readable)",
			ErrRegistryCorrupt, scan.Detail, len(registryMagic), path, good, len(b))
	}
	for _, ls := range scan.Records {
		s.applyLocked(ls)
	}
	s.logRecords = len(scan.Records)
	if good < int64(len(b)) {
		return s.fs.Truncate(path, good)
	}
	return nil
}

// recordLocked applies one batch of link state changes to memory and
// makes it durable: one O_APPEND write and one fsync through a
// descriptor that does not outlive the call. On failure the changes
// stay applied and the error says they may not survive a restart; the
// caller (the 2PC coordinator) is the one who can retry or reconcile.
func (s *Store) recordLocked(recs ...LinkState) error {
	if len(recs) == 0 {
		return nil
	}
	for _, ls := range recs {
		s.applyLocked(ls)
	}
	if s.sinceGC++; s.sinceGC > len(s.unlinked) {
		s.gcTombstonesLocked()
	}
	if s.compactionDueLocked(len(recs)) {
		return s.compactLocked()
	}
	buf, err := appendLinkRecords(nil, recs)
	if err == nil {
		err = appendSync(s.fs, s.registryPath(), buf)
	}
	if err != nil {
		// After a failed write or fsync the kernel may or may not have
		// kept the frame; never append behind a tail of unknown content.
		s.stale = true
		return err
	}
	s.logRecords += len(recs)
	return nil
}

// compactionDueLocked reports whether recording n more records should
// rewrite the file rather than append to it: when it is stale, and once
// it would hold more than twice what a rewrite leaves in it (the
// constant keeps small registries from compacting at every other
// change).
func (s *Store) compactionDueLocked(n int) bool {
	return s.stale || s.logRecords+n > 2*(len(s.links)+len(s.unlinked))+64
}

// compactLocked atomically replaces the registry file with one record
// per live link and unexpired tombstone, sorted by path.
func (s *Store) compactLocked() error {
	s.stale = true // until the new file is known to be in place
	states := s.statesLocked()
	buf, err := appendLinkRecords([]byte(registryMagic), states)
	if err == nil {
		err = iofault.WriteFileAtomic(s.fs, s.registryPath(), buf, 0o644)
	}
	if err != nil {
		return err
	}
	s.stale, s.logRecords = false, len(states)
	return nil
}

// gcTombstonesLocked forgets expired tombstones; their records leave
// the file at the next compaction, which forgetting them brings nearer.
func (s *Store) gcTombstonesLocked() {
	s.sinceGC = 0
	cutoff := time.Now().UTC().Add(-s.tombstoneTTL)
	for path, ls := range s.unlinked {
		if ls.UnlinkedAt.Before(cutoff) {
			delete(s.unlinked, path)
		}
	}
}

// statesLocked returns every live link and unexpired tombstone, sorted
// by path.
func (s *Store) statesLocked() []LinkState {
	s.gcTombstonesLocked()
	out := make([]LinkState, 0, len(s.links)+len(s.unlinked))
	for _, ls := range s.links {
		out = append(out, ls)
	}
	for _, ls := range s.unlinked {
		out = append(out, ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// appendSync appends data to the existing file name and fsyncs it.
func appendSync(fsys iofault.FS, name string, data []byte) error {
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// resolve maps a server-local path ("/dir/file") to a filesystem path,
// rejecting traversal. Only a path's clean spelling resolves: link state
// is kept by path as given, so another spelling of a linked file ("//",
// a "." or ".." segment, a trailing '/') would reach its bytes past its
// link.
func (s *Store) resolve(path string) (string, error) {
	if !strings.HasPrefix(path, "/") {
		return "", ErrBadPath
	}
	clean := filepath.Clean(path)
	if clean != path || strings.Contains(clean, "..") {
		return "", ErrBadPath
	}
	if strings.HasPrefix(filepath.Base(clean), ".dlfm") {
		return "", ErrBadPath
	}
	return filepath.Join(s.root, filepath.FromSlash(clean)), nil
}

// ---------- two-phase link control ----------

// Prepare validates and reserves op under txID.
func (s *Store) Prepare(txID uint64, op med.LinkOp) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fsPath, err := s.resolve(op.Path)
	if err != nil {
		return err
	}
	if holder, busy := s.reserved[op.Path]; busy && holder != txID {
		return fmt.Errorf("dlfs: %s is reserved by transaction %d", op.Path, holder)
	}
	switch op.Kind {
	case med.OpLink:
		// FILE LINK CONTROL: "a check should be made to ensure the
		// existence of the file during a database insert or update".
		fi, err := os.Stat(fsPath)
		if err != nil || fi.IsDir() {
			return fmt.Errorf("%w: %s", ErrNotFound, op.Path)
		}
		if _, linked := s.links[op.Path]; linked {
			return fmt.Errorf("%w: %s", ErrAlreadyLinked, op.Path)
		}
	case med.OpUnlink:
		if _, linked := s.links[op.Path]; !linked {
			return fmt.Errorf("%w: %s", ErrNotLinked, op.Path)
		}
	default:
		return fmt.Errorf("dlfs: unknown link op %d", op.Kind)
	}
	// Idempotent per (txID, op): skip duplicates.
	for _, existing := range s.pending[txID] {
		if existing.Kind == op.Kind && existing.Path == op.Path {
			return nil
		}
	}
	s.pending[txID] = append(s.pending[txID], op)
	s.reserved[op.Path] = txID
	return nil
}

// Commit applies every operation prepared under txID. Unknown txIDs are
// a no-op (idempotence for coordinator retries).
func (s *Store) Commit(txID uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := s.pending[txID]
	delete(s.pending, txID)
	recs := make([]LinkState, 0, len(ops))
	var doomed []string // ON UNLINK DELETE files
	for _, op := range ops {
		delete(s.reserved, op.Path)
		switch op.Kind {
		case med.OpLink:
			recs = append(recs, LinkState{Path: op.Path, Opts: op.Opts, LinkedAt: time.Now().UTC()})
		case med.OpUnlink:
			// Tombstone the unlink so a replica that missed it (partition,
			// crash) cannot resurrect the link via the registry union.
			st, linked := s.links[op.Path]
			recs = append(recs, LinkState{Path: op.Path, Opts: st.Opts, LinkedAt: st.LinkedAt, UnlinkedAt: time.Now().UTC()})
			if linked && st.Opts.OnUnlink == sqltypes.UnlinkDelete {
				doomed = append(doomed, op.Path)
			}
			// ON UNLINK RESTORE: the file simply returns to file-system
			// control — it stays in place, no longer protected.
		}
	}
	if err := s.recordLocked(recs...); err != nil {
		// The files stay: a restart may still find them linked, and a
		// registry that lists a link to a file that is gone is stuck
		// (the database has committed the delete, so Reconcile never
		// visits the path). Unlinked in memory, they are removable.
		return err
	}
	var errs []error
	for _, path := range doomed {
		if fsPath, err := s.resolve(path); err == nil {
			if err := s.fs.Remove(fsPath); err != nil && !iofault.IsNotExist(err) {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// Abort discards every operation prepared under txID.
func (s *Store) Abort(txID uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range s.pending[txID] {
		delete(s.reserved, op.Path)
	}
	delete(s.pending, txID)
}

// EnsureLinked forces path into the linked state (crash reconciliation).
func (s *Store) EnsureLinked(path string, opts sqltypes.DatalinkOptions) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fsPath, err := s.resolve(path)
	if err != nil {
		return err
	}
	if _, err := os.Stat(fsPath); err != nil {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if _, linked := s.links[path]; linked {
		return nil
	}
	return s.recordLocked(LinkState{Path: path, Opts: opts, LinkedAt: time.Now().UTC()})
}

// EnsureUnlinked forces path out of the linked state, recording the
// tombstone at the given event time (anti-entropy repair: the time is
// the original unlink's, not the repair's, so reconciliation ordering
// is preserved). A no-op when the path is not linked and a tombstone at
// least as new already exists.
func (s *Store) EnsureUnlinked(path string, at time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, linked := s.links[path]
	if cur, ok := s.unlinked[path]; !linked && ok && !cur.UnlinkedAt.Before(at) {
		return nil
	}
	st := s.links[path]
	return s.recordLocked(LinkState{Path: path, Opts: st.Opts, LinkedAt: st.LinkedAt, UnlinkedAt: at.UTC()})
}

// LinkedCount reports how many files are currently linked.
func (s *Store) LinkedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.links)
}

// LinkedPaths returns the sorted paths of all linked files.
func (s *Store) LinkedPaths() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.links))
	for p := range s.links {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// LinkStates returns the full link registry — live links AND unlink
// tombstones (distinguish with Tombstone()) — sorted by path. The
// cluster's anti-entropy loop uses it to learn which state (and event
// time, for last-writer-wins ordering) each replica holds; tombstones
// are what stop a healed partition from resurrecting an unlinked file.
func (s *Store) LinkStates() []LinkState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statesLocked()
}

// ---------- file operations with link enforcement ----------

// Put writes a file (creating directories as needed). Writes to linked
// files are governed by the link's WRITE PERMISSION.
func (s *Store) Put(path string, r io.Reader) (int64, error) {
	s.mu.Lock()
	if ls, linked := s.links[path]; linked && ls.Opts.WritePerm == sqltypes.WriteBlocked {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrWriteBlocked, path)
	}
	if holder, busy := s.reserved[path]; busy {
		s.mu.Unlock()
		return 0, fmt.Errorf("dlfs: %s is reserved by transaction %d", path, holder)
	}
	s.mu.Unlock()
	fsPath, err := s.resolve(path)
	if err != nil {
		return 0, err
	}
	if err := s.fs.MkdirAll(filepath.Dir(fsPath), 0o755); err != nil {
		return 0, err
	}
	f, err := iofault.Create(s.fs, fsPath)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(f, r)
	if err == nil {
		// A Put that returns success must survive a host crash: the
		// archive acknowledges ingested simulation output upstream.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// Rename moves a file; refused while the source or target is linked
// (referential integrity: "an external file referenced by the database
// cannot be renamed or deleted").
func (s *Store) Rename(oldPath, newPath string) error {
	s.mu.Lock()
	if _, linked := s.links[oldPath]; linked {
		s.mu.Unlock()
		return fmt.Errorf("%w: rename %s", ErrLinked, oldPath)
	}
	if _, linked := s.links[newPath]; linked {
		s.mu.Unlock()
		return fmt.Errorf("%w: rename onto %s", ErrLinked, newPath)
	}
	s.mu.Unlock()
	oldFS, err := s.resolve(oldPath)
	if err != nil {
		return err
	}
	newFS, err := s.resolve(newPath)
	if err != nil {
		return err
	}
	if err := s.fs.MkdirAll(filepath.Dir(newFS), 0o755); err != nil {
		return err
	}
	return s.fs.Rename(oldFS, newFS)
}

// Remove deletes a file; refused while linked.
func (s *Store) Remove(path string) error {
	s.mu.Lock()
	if _, linked := s.links[path]; linked {
		s.mu.Unlock()
		return fmt.Errorf("%w: remove %s", ErrLinked, path)
	}
	s.mu.Unlock()
	fsPath, err := s.resolve(path)
	if err != nil {
		return err
	}
	if err := s.fs.Remove(fsPath); err != nil {
		if iofault.IsNotExist(err) {
			return fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		return err
	}
	return nil
}

// Open returns a reader for path after access control. auth supplies
// token validation; it may be nil only for stores that hold no READ
// PERMISSION DB links.
func (s *Store) Open(path, token string, auth *med.TokenAuthority) (io.ReadCloser, FileInfo, error) {
	s.mu.Lock()
	ls, linked := s.links[path]
	s.mu.Unlock()
	if linked && ls.Opts.ReadPerm == sqltypes.ReadDB {
		if token == "" {
			return nil, FileInfo{}, fmt.Errorf("%w: %s", ErrTokenRequired, path)
		}
		if auth == nil {
			return nil, FileInfo{}, fmt.Errorf("dlfs: no token authority configured for %s", path)
		}
		if _, err := auth.Validate(token, path); err != nil {
			return nil, FileInfo{}, err
		}
	}
	fsPath, err := s.resolve(path)
	if err != nil {
		return nil, FileInfo{}, err
	}
	f, err := os.Open(fsPath)
	if err != nil {
		return nil, FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, FileInfo{}, err
	}
	info := FileInfo{Path: path, Size: fi.Size(), ModTime: fi.ModTime(), Linked: linked, Opts: ls.Opts}
	return f, info, nil
}

// Stat describes a file without opening it.
func (s *Store) Stat(path string) (FileInfo, error) {
	fsPath, err := s.resolve(path)
	if err != nil {
		return FileInfo{}, err
	}
	fi, err := os.Stat(fsPath)
	if err != nil {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	s.mu.Lock()
	ls, linked := s.links[path]
	s.mu.Unlock()
	return FileInfo{Path: path, Size: fi.Size(), ModTime: fi.ModTime(), Linked: linked, Opts: ls.Opts}, nil
}

// ---------- coordinated backup ----------

// BackupLinked copies every linked RECOVERY YES file under dst.
func (s *Store) BackupLinked(dst string) (int, error) {
	s.mu.Lock()
	var paths []string
	for p, ls := range s.links {
		if ls.Opts.RecoveryYes {
			paths = append(paths, p)
		}
	}
	s.mu.Unlock()
	sort.Strings(paths)
	n := 0
	for _, p := range paths {
		fsPath, err := s.resolve(p)
		if err != nil {
			return n, err
		}
		target := filepath.Join(dst, filepath.FromSlash(strings.TrimPrefix(p, "/")))
		if err := copyFileMk(fsPath, target); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// RestoreLinked copies files back from a BackupLinked tree and re-links
// them with their registered options (or default EASIA options when the
// registry entry was lost with the store).
func (s *Store) RestoreLinked(src string) (int, error) {
	var restored []string
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		local := "/" + filepath.ToSlash(rel)
		fsPath, err := s.resolve(local)
		if err != nil {
			return err
		}
		if err := copyFileMk(path, fsPath); err != nil {
			return err
		}
		restored = append(restored, local)
		return nil
	})
	if err != nil {
		return len(restored), err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var recs []LinkState
	for _, local := range restored {
		if _, linked := s.links[local]; !linked {
			// An explicit restore overrides any tombstone.
			recs = append(recs, LinkState{Path: local, Opts: sqltypes.DefaultEASIA(), LinkedAt: time.Now().UTC()})
		}
	}
	return len(restored), s.recordLocked(recs...)
}

func copyFileMk(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
