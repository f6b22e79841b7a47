package sqltypes

import (
	"errors"
	"fmt"
	"strings"
)

// The SQL/MED DATALINK column options (ISO/IEC 9075-9). Each option maps
// one-to-one onto the clauses shown in the paper's CREATE TABLE slide:
//
//	download_result DATALINK
//	    LINKTYPE URL
//	    FILE LINK CONTROL
//	    READ PERMISSION DB ...
type (
	// ReadPermission controls who may read a linked file.
	ReadPermission uint8
	// WritePermission controls who may modify a linked file.
	WritePermission uint8
	// UnlinkAction controls what happens to the file when its row is
	// deleted (or the DATALINK value replaced).
	UnlinkAction uint8
)

// READ PERMISSION values.
const (
	// ReadFS — the file system alone controls reads (no tokens).
	ReadFS ReadPermission = iota
	// ReadDB — reads require an encrypted access token obtained from the
	// database by a user holding SELECT privilege; this is the mode EASIA
	// uses for result files.
	ReadDB
)

// WRITE PERMISSION values.
const (
	// WriteFS — the file system controls writes.
	WriteFS WritePermission = iota
	// WriteBlocked — linked files are immutable while linked.
	WriteBlocked
)

// ON UNLINK values.
const (
	// UnlinkNone — nothing happens on unlink (only valid without file
	// link control).
	UnlinkNone UnlinkAction = iota
	// UnlinkRestore — ownership/permissions are restored to the file
	// owner; the file remains.
	UnlinkRestore
	// UnlinkDelete — the file is deleted when unlinked.
	UnlinkDelete
)

// DatalinkOptions is the full option set for one DATALINK column.
// The zero value is "DATALINK LINKTYPE URL NO FILE LINK CONTROL".
type DatalinkOptions struct {
	// FileLinkControl — when true the DBMS takes control of the file:
	// existence is checked at INSERT/UPDATE, and the file manager blocks
	// rename/delete while linked.
	FileLinkControl bool
	// IntegrityAll — INTEGRITY ALL (files may not be deleted/renamed
	// through any interface while linked); false means SELECTIVE.
	IntegrityAll bool
	ReadPerm     ReadPermission
	WritePerm    WritePermission
	// RecoveryYes — the DBMS includes the file in coordinated
	// backup/recovery (RECOVERY YES).
	RecoveryYes bool
	OnUnlink    UnlinkAction
	// TokenLifetime is the access-token expiry interval in seconds for
	// READ PERMISSION DB columns; 0 selects the database default. The
	// paper: "The access tokens have a finite life determined by a
	// database configuration parameter."
	TokenLifetime int
}

// DefaultEASIA returns the option set used by the paper's RESULT_FILE
// table: full link control, DB read permission, blocked writes, recovery
// and restore-on-unlink.
func DefaultEASIA() DatalinkOptions {
	return DatalinkOptions{
		FileLinkControl: true,
		IntegrityAll:    true,
		ReadPerm:        ReadDB,
		WritePerm:       WriteBlocked,
		RecoveryYes:     true,
		OnUnlink:        UnlinkRestore,
	}
}

// String renders the options as DDL clauses.
func (o DatalinkOptions) String() string {
	var b strings.Builder
	b.WriteString("LINKTYPE URL")
	if o.FileLinkControl {
		b.WriteString(" FILE LINK CONTROL")
		if o.IntegrityAll {
			b.WriteString(" INTEGRITY ALL")
		} else {
			b.WriteString(" INTEGRITY SELECTIVE")
		}
		if o.ReadPerm == ReadDB {
			b.WriteString(" READ PERMISSION DB")
		} else {
			b.WriteString(" READ PERMISSION FS")
		}
		if o.WritePerm == WriteBlocked {
			b.WriteString(" WRITE PERMISSION BLOCKED")
		} else {
			b.WriteString(" WRITE PERMISSION FS")
		}
		if o.RecoveryYes {
			b.WriteString(" RECOVERY YES")
		} else {
			b.WriteString(" RECOVERY NO")
		}
		switch o.OnUnlink {
		case UnlinkRestore:
			b.WriteString(" ON UNLINK RESTORE")
		case UnlinkDelete:
			b.WriteString(" ON UNLINK DELETE")
		}
	} else {
		b.WriteString(" NO FILE LINK CONTROL")
	}
	return b.String()
}

// Validate rejects option combinations SQL/MED forbids.
func (o DatalinkOptions) Validate() error {
	if !o.FileLinkControl {
		if o.ReadPerm == ReadDB {
			return fmt.Errorf("sqltypes: READ PERMISSION DB requires FILE LINK CONTROL")
		}
		if o.RecoveryYes {
			return fmt.Errorf("sqltypes: RECOVERY YES requires FILE LINK CONTROL")
		}
		if o.OnUnlink != UnlinkNone {
			return fmt.Errorf("sqltypes: ON UNLINK requires FILE LINK CONTROL")
		}
		return nil
	}
	if o.OnUnlink == UnlinkNone {
		return fmt.Errorf("sqltypes: FILE LINK CONTROL requires ON UNLINK RESTORE or DELETE")
	}
	if o.ReadPerm == ReadFS && o.OnUnlink == UnlinkDelete && !o.IntegrityAll {
		return fmt.Errorf("sqltypes: ON UNLINK DELETE with READ PERMISSION FS requires INTEGRITY ALL")
	}
	return nil
}

// DatalinkURL is the parsed form of a DATALINK value:
//
//	http://host/filesystem/directory/filename
//
// Scheme and Host identify the file server; Path is the file-server-local
// path (always beginning with "/").
type DatalinkURL struct {
	Scheme string
	Host   string // host[:port]
	Path   string // "/filesystem/directory/filename"
}

// ErrBadDatalinkURL is wrapped by every ParseDatalinkURL error.
var ErrBadDatalinkURL = errors.New("sqltypes: datalink URL")

// ParseDatalinkURL parses the URL form used in INSERT/UPDATE statements.
// Only http and file schemes are accepted (LINKTYPE URL).
func ParseDatalinkURL(s string) (DatalinkURL, error) {
	rest := s
	var u DatalinkURL
	switch {
	case strings.HasPrefix(rest, "http://"):
		u.Scheme, rest = "http", rest[len("http://"):]
	case strings.HasPrefix(rest, "https://"):
		u.Scheme, rest = "https", rest[len("https://"):]
	case strings.HasPrefix(rest, "file://"):
		u.Scheme, rest = "file", rest[len("file://"):]
	default:
		return u, fmt.Errorf("%w %q: unsupported scheme (want http/https/file)", ErrBadDatalinkURL, s)
	}
	slash := strings.IndexByte(rest, '/')
	if slash <= 0 {
		return u, fmt.Errorf("%w %q: missing host or path", ErrBadDatalinkURL, s)
	}
	u.Host = rest[:slash]
	u.Path = rest[slash:]
	if strings.HasSuffix(u.Path, "/") {
		return u, fmt.Errorf("%w %q: path names a directory, not a file", ErrBadDatalinkURL, s)
	}
	return u, nil
}

// String reassembles the canonical URL.
func (u DatalinkURL) String() string {
	return u.Scheme + "://" + u.Host + u.Path
}

// Dir returns the directory part of Path (with trailing slash trimmed),
// and File the final path element.
func (u DatalinkURL) Dir() string {
	i := strings.LastIndexByte(u.Path, '/')
	if i <= 0 {
		return "/"
	}
	return u.Path[:i]
}

// File returns the filename component of the linked path.
func (u DatalinkURL) File() string {
	i := strings.LastIndexByte(u.Path, '/')
	return u.Path[i+1:]
}

// WithToken injects an access token ahead of the filename, producing the
// SELECT-time form the paper shows:
//
//	http://host/filesystem/directory/access_token;filename
func (u DatalinkURL) WithToken(token string) string {
	return u.Scheme + "://" + u.Host + u.Dir() + "/" + token + ";" + u.File()
}

// SplitTokenizedPath splits a path of the form "/dir/token;file" into
// ("/dir/file", "token"). When no token is present the token is empty.
func SplitTokenizedPath(p string) (path, token string) {
	i := strings.LastIndexByte(p, '/')
	last := p[i+1:]
	if j := strings.IndexByte(last, ';'); j >= 0 {
		return p[:i+1] + last[j+1:], last[:j]
	}
	return p, ""
}
