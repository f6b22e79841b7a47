// Package iofault is an injectable filesystem abstraction for the
// storage tiers. Production code takes an FS (Disk is the real thing)
// and a Faults controller wraps any FS with scriptable failures in the
// netsim style — per-path fsync errors, short writes, and crash points
// ("die after the Nth write to wal.log") — so the crash-recovery and
// durability tests exercise the exact file operations production runs,
// not mocks of them.
//
// The package also carries the durability helpers the storage layers
// share: SyncDir (parent-directory fsync, the half of atomic-rename
// durability that is easy to forget), WriteFileAtomic
// (tmp + write + fsync + rename + dir fsync), the record framing of the
// append-only logs with the scan that tells a torn tail from corruption
// (AppendFrame, ScanFrames: frame.go), and the stream copy of every
// upload, download and fetch, which borrows its buffer from a pool
// rather than allocating one per call (Copy: copy.go).
package iofault

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the storage tiers use.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Name() string
	Stat() (os.FileInfo, error)
	Sync() error
}

// FS is the filesystem the storage tiers run on. Disk is the real
// implementation; Faults wraps any FS with injected failures.
type FS interface {
	// OpenFile is the generalised open call (os.OpenFile semantics).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	MkdirAll(path string, perm os.FileMode) error
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs a directory, making previously-renamed or created
	// entries durable. An atomic-rename that skips it can lose the new
	// name (or resurrect the old file) across a power failure.
	SyncDir(dir string) error
}

// Disk is the real filesystem.
type Disk struct{}

type diskFile struct{ *os.File }

// OpenFile implements FS.
func (Disk) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return diskFile{f}, nil
}

// Rename implements FS.
func (Disk) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (Disk) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (Disk) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// MkdirAll implements FS.
func (Disk) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Stat implements FS.
func (Disk) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// SyncDir implements FS: open the directory and fsync it.
func (Disk) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open opens name read-only on fs.
func Open(f FS, name string) (File, error) {
	return f.OpenFile(name, os.O_RDONLY, 0)
}

// Create creates (truncating) name on fs.
func Create(f FS, name string) (File, error) {
	return f.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

// ReadFile reads the whole of name from fs.
func ReadFile(f FS, name string) ([]byte, error) {
	fl, err := Open(f, name)
	if err != nil {
		return nil, err
	}
	defer fl.Close()
	fi, err := fl.Stat()
	var data []byte
	if err == nil && fi.Size() > 0 {
		data = make([]byte, 0, int(fi.Size()))
	}
	buf := make([]byte, 32*1024)
	for {
		n, rerr := fl.Read(buf)
		data = append(data, buf[:n]...)
		if rerr == io.EOF {
			return data, nil
		}
		if rerr != nil {
			return data, rerr
		}
	}
}

// WriteFile writes data to name on fs (no durability guarantee — the
// plain os.WriteFile shape). Prefer WriteFileAtomic for state files.
func WriteFile(f FS, name string, data []byte, perm os.FileMode) error {
	fl, err := f.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	_, werr := fl.Write(data)
	cerr := fl.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// WriteFileAtomic durably replaces name with data: write to name+".tmp",
// fsync the file, rename over name, fsync the parent directory. After it
// returns nil, a crash at any point leaves either the complete old file
// or the complete new file — never a torn mix, never neither.
func WriteFileAtomic(f FS, name string, data []byte, perm os.FileMode) error {
	tmp := name + ".tmp"
	fl, err := f.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	_, err = fl.Write(data)
	if err == nil {
		err = fl.Sync()
	}
	if cerr := fl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		f.Remove(tmp) //nolint:errcheck // best-effort cleanup of the torn tmp
		return err
	}
	if err := f.Rename(tmp, name); err != nil {
		f.Remove(tmp) //nolint:errcheck
		return err
	}
	return f.SyncDir(filepath.Dir(name))
}

// IsNotExist reports whether err is a not-exists error from any FS.
func IsNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}
