package dlfs

import (
	"io"

	"repro/internal/med"
	"repro/internal/sqltypes"
)

// Manager is the in-process Data Links File Manager for one host. It
// binds a Store to a host name and a token authority, and implements
// both med.FileServer (link control) and med.BackupParticipant
// (coordinated backup). Tests, simulations and the benchmarks use
// Manager directly; cmd/dlfsd wraps one in the HTTP daemon.
type Manager struct {
	host  string
	store *Store
	auth  *med.TokenAuthority
}

// NewManager creates a manager serving host from the given store. auth
// validates access tokens for READ PERMISSION DB files; it must be the
// same authority (same secret) the database host mints with.
func NewManager(host string, store *Store, auth *med.TokenAuthority) *Manager {
	return &Manager{host: host, store: store, auth: auth}
}

// Host implements med.FileServer.
func (m *Manager) Host() string { return m.host }

// Store exposes the underlying store (daemon wiring and tests).
func (m *Manager) Store() *Store { return m.store }

// Prepare implements med.FileServer.
func (m *Manager) Prepare(txID uint64, op med.LinkOp) error { return m.store.Prepare(txID, op) }

// Commit implements med.FileServer.
func (m *Manager) Commit(txID uint64) error { return m.store.Commit(txID) }

// Abort implements med.FileServer. In-process aborts cannot fail.
func (m *Manager) Abort(txID uint64) error { m.store.Abort(txID); return nil }

// EnsureLinked implements med.FileServer.
func (m *Manager) EnsureLinked(path string, opts sqltypes.DatalinkOptions) error {
	return m.store.EnsureLinked(path, opts)
}

// BackupLinked implements med.BackupParticipant.
func (m *Manager) BackupLinked(dst string) (int, error) { return m.store.BackupLinked(dst) }

// RestoreLinked implements med.BackupParticipant.
func (m *Manager) RestoreLinked(src string) (int, error) { return m.store.RestoreLinked(src) }

// Put stores a file on this host (archiving data where it is generated).
func (m *Manager) Put(path string, r io.Reader) (int64, error) { return m.store.Put(path, r) }

// Open reads a file, enforcing READ PERMISSION DB token checks.
func (m *Manager) Open(path, token string) (io.ReadCloser, FileInfo, error) {
	return m.store.Open(path, token, m.auth)
}

// Stat describes a file.
func (m *Manager) Stat(path string) (FileInfo, error) { return m.store.Stat(path) }

// Rename moves a file (refused while either end is linked).
func (m *Manager) Rename(oldPath, newPath string) error { return m.store.Rename(oldPath, newPath) }

// Remove deletes a file (refused while linked).
func (m *Manager) Remove(path string) error { return m.store.Remove(path) }

// LinkStates lists the link registry (the daemon's /dlfm/links and
// /dlfm/linked routes).
func (m *Manager) LinkStates() []LinkState { return m.store.LinkStates() }

// Compile-time interface checks.
var (
	_ med.FileServer        = (*Manager)(nil)
	_ med.BackupParticipant = (*Manager)(nil)
)
