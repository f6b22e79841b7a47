package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dlfs"
	"repro/internal/med"
	"repro/internal/sqldb"
	"repro/internal/sqltypes"
	"repro/internal/turb"
	"repro/internal/xuis"
)

// newArchive assembles a full in-process EASIA deployment: metadata DB,
// token authority, and two file-server hosts.
func newArchive(t *testing.T, dbDir string) (*Archive, *dlfs.Manager, *dlfs.Manager) {
	t.Helper()
	secret := []byte("integration-secret")
	a, err := Open(Config{
		DBDir:    dbDir,
		Secret:   secret,
		WorkRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })

	auth, err := med.NewTokenAuthority(secret, 0)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(host string) *dlfs.Manager {
		store, err := dlfs.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		m := dlfs.NewManager(host, store, auth)
		a.AttachFileServer(WrapManager(m))
		return m
	}
	return a, mk("fs1.sim:80"), mk("fs2.sim:80")
}

// seedSimulation archives one simulation with a real TSF dataset and an
// EASL post-processing code, mirroring the paper's demo content.
func seedSimulation(t *testing.T, a *Archive, n int) {
	t.Helper()
	if err := a.InitTurbulenceSchema(); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`INSERT INTO AUTHOR VALUES ('A19990110151042', 'Papiani', 'University of Southampton', 'p@soton.ac.uk')`,
		`INSERT INTO SIMULATION VALUES ('S19990110150932', 'A19990110151042',
			'Turbulent channel flow', 'Direct numerical simulation of channel flow.',
			` + fmt.Sprint(n) + `, 1395.0, 100, '2000-03-27 09:00:00')`,
	} {
		if _, err := a.DB.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	// Archive the dataset where it was generated (fs1).
	var tsf bytes.Buffer
	if _, err := turb.Generate(n, 4, 7).WriteTo(&tsf); err != nil {
		t.Fatal(err)
	}
	url, err := a.ArchiveFile("fs1.sim:80", "/vol0/run1/ts4.tsf", bytes.NewReader(tsf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.DB.Exec(fmt.Sprintf(
		`INSERT INTO RESULT_FILE VALUES ('ts4.tsf', 'S19990110150932', 4, 'u,v,w,p', 'TSF', %d, DLVALUE('%s'))`,
		tsf.Len(), url)); err != nil {
		t.Fatal(err)
	}
	// Archive the post-processing code on fs2.
	codeURL, err := a.ArchiveFile("fs2.sim:80", "/codes/getimage.easl", strings.NewReader(`
let st = sliceStats(filename, "u", "z", floor(datasetInfo(filename).n / 2))
writeFile("report.txt", "rms=" + str(st.rms))
print("GetImage done")
`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.DB.Exec(fmt.Sprintf(
		`INSERT INTO CODE_FILE VALUES ('GetImage.easl', 'S19990110150932', 'EASL', 'Slice visualiser', DLVALUE('%s'))`,
		codeURL)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.GenerateXUIS("TURBULENCE"); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndArchiveFlow(t *testing.T) {
	a, fs1, _ := newArchive(t, "")
	seedSimulation(t, a, 12)

	// The INSERT linked the file: the file manager now protects it.
	if fs1.Store().LinkedCount() != 1 {
		t.Fatalf("linked files on fs1 = %d, want 1", fs1.Store().LinkedCount())
	}
	if err := fs1.Store().Remove("/vol0/run1/ts4.tsf"); !errors.Is(err, dlfs.ErrLinked) {
		t.Fatalf("linked dataset deletable: %v", err)
	}

	// Search via QBE (the paper's query form).
	rs, err := a.Search(QBE{
		Table:        "RESULT_FILE",
		Restrictions: []Restriction{{Column: "MEASUREMENT", Op: "=", Value: "u,v,w,p"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("search rows = %d", len(rs.Rows))
	}

	// DATALINK browsing: authorised users get a tokenized URL.
	dl := rs.Row(0)["RESULT_FILE.DOWNLOAD_RESULT"]
	tokURL, err := a.DownloadURL(dl.Str(), User{Name: "papiani"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tokURL, ";ts4.tsf") {
		t.Fatalf("tokenized URL = %q", tokURL)
	}
	rc, err := a.OpenDownload(tokURL)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if int64(len(data)) != turb.FileBytes(12) {
		t.Fatalf("downloaded %d bytes, want %d", len(data), turb.FileBytes(12))
	}

	// Guests cannot download (the paper's demo policy).
	if _, err := a.DownloadURL(dl.Str(), User{Name: "guest", Guest: true}); err == nil {
		t.Fatal("guest obtained a download URL")
	}
	// Tokenless direct access is refused.
	if _, err := a.OpenDownload(dl.Str()); err == nil {
		t.Fatal("tokenless download succeeded")
	}
}

func TestBrowsing(t *testing.T) {
	a, _, _ := newArchive(t, "")
	seedSimulation(t, a, 8)

	// FK browsing: AUTHOR_KEY → full author details.
	rs, err := a.BrowseFK("AUTHOR", "AUTHOR_KEY", "A19990110151042")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Row(0)["AUTHOR.NAME"].AsString() != "Papiani" {
		t.Fatalf("fk browse: %v", rs.Rows)
	}

	// PK browsing: SIMULATION_KEY → rows of RESULT_FILE referencing it.
	rs, err = a.BrowsePK("RESULT_FILE", "SIMULATION_KEY", "S19990110150932")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Row(0)["RESULT_FILE.FILE_NAME"].AsString() != "ts4.tsf" {
		t.Fatalf("pk browse: %v", rs.Rows)
	}

	// FK substitution: raw key → author name.
	name, err := a.SubstituteFK("AUTHOR", "AUTHOR_KEY", "NAME", "A19990110151042")
	if err != nil {
		t.Fatal(err)
	}
	if name != "Papiani" {
		t.Fatalf("substituted = %q", name)
	}
}

func TestQBEBuildSQL(t *testing.T) {
	a, _, _ := newArchive(t, "")
	seedSimulation(t, a, 8)

	sql, args, err := a.BuildSQL(QBE{
		Table:  "SIMULATION",
		Select: []string{"SIMULATION_KEY", "TITLE"},
		Restrictions: []Restriction{
			{Column: "TITLE", Op: "CONTAINS", Value: "channel"},
			{Column: "GRID_SIZE", Op: ">=", Value: "8"},
			{Column: "REYNOLDS", Op: "=", Value: ""}, // empty: dropped
		},
		OrderBy: "SIMULATION_KEY",
		Limit:   10,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT SIMULATION_KEY, TITLE FROM SIMULATION WHERE TITLE LIKE ? AND GRID_SIZE >= ? ORDER BY SIMULATION_KEY LIMIT 10"
	if sql != want {
		t.Fatalf("sql = %q", sql)
	}
	if len(args) != 2 || args[0].AsString() != "%channel%" {
		t.Fatalf("args = %v", args)
	}

	// Injection attempts fail cleanly: names are validated, values bound.
	if _, _, err := a.BuildSQL(QBE{Table: "SIMULATION; DROP TABLE AUTHOR"}); err == nil {
		t.Fatal("bad table accepted")
	}
	if _, _, err := a.BuildSQL(QBE{Table: "SIMULATION",
		Restrictions: []Restriction{{Column: "TITLE", Op: "= 1 OR", Value: "x"}}}); err == nil {
		t.Fatal("bad operator accepted")
	}
	rs, err := a.Search(QBE{Table: "SIMULATION",
		Restrictions: []Restriction{{Column: "TITLE", Op: "=", Value: "x' OR '1'='1"}}})
	if err != nil || len(rs.Rows) != 0 {
		t.Fatalf("injection through value: rows=%d err=%v", len(rs.Rows), err)
	}

	// A select list is at most the table's columns, each once: valid
	// names alone do not bound what a request can make the engine project.
	if _, _, err := a.BuildSQL(QBE{Table: "SIMULATION", Select: []string{"TITLE", "title"}}); err == nil {
		t.Fatal("repeated column accepted")
	}
	if _, _, err := a.BuildSQL(QBE{Table: "SIMULATION", Select: slices.Repeat([]string{"TITLE"}, 8193)}); err == nil {
		t.Fatal("8,193-column select list accepted")
	}
	schema, _ := a.DB.Catalog().Table("SIMULATION")
	if _, _, err := a.BuildSQL(QBE{Table: "SIMULATION", Select: schema.ColNames()}); err != nil {
		t.Fatalf("every column once refused: %v", err)
	}
}

func TestCaseInsensitiveQBESearch(t *testing.T) {
	a, _, _ := newArchive(t, "")
	seedSimulation(t, a, 8)
	rs, err := a.Search(QBE{Table: "simulation", Select: []string{"title"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
}

func TestRunOperationThroughArchive(t *testing.T) {
	a, _, _ := newArchive(t, "")
	seedSimulation(t, a, 12)
	spec := a.Spec()
	op := &xuis.Operation{
		Name: "GetImage", Type: "EASL", Filename: "getimage.easl", Format: "easl", GuestAccess: true,
		Location: &xuis.Location{DatabaseResult: &xuis.DatabaseResult{
			ColID:      "CODE_FILE.DOWNLOAD_CODE_FILE",
			Conditions: []xuis.Condition{{ColID: "CODE_FILE.CODE_NAME", Eq: "'GetImage.easl'"}},
		}},
	}
	if err := spec.AddOperation("RESULT_FILE", "DOWNLOAD_RESULT", op); err != nil {
		t.Fatal(err)
	}
	if err := a.SetSpec(spec); err != nil {
		t.Fatal(err)
	}
	res, err := a.RunOperation("GetImage", "RESULT_FILE.DOWNLOAD_RESULT", "RESULT_FILE",
		map[string]string{"FILE_NAME": "ts4.tsf", "SIMULATION_KEY": "S19990110150932"},
		nil, User{Name: "guest", Guest: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "GetImage done") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	if len(res.Files) != 1 || res.Files[0].Name != "report.txt" {
		t.Fatalf("files = %v", res.Files)
	}
}

func TestUploadThroughArchive(t *testing.T) {
	a, _, _ := newArchive(t, "")
	seedSimulation(t, a, 12)
	spec := a.Spec()
	if err := spec.SetUpload("RESULT_FILE", "DOWNLOAD_RESULT", &xuis.Upload{
		Type: "EASL", Format: "easl", GuestAccess: false,
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.SetSpec(spec); err != nil {
		t.Fatal(err)
	}
	code := []byte(`print("energy:", datasetInfo(filename).n)`)
	key := map[string]string{"FILE_NAME": "ts4.tsf", "SIMULATION_KEY": "S19990110150932"}
	// Guests refused at the archive layer.
	if _, err := a.UploadAndRun("RESULT_FILE.DOWNLOAD_RESULT", "RESULT_FILE", key, code, "easl", "u.easl", nil,
		User{Name: "guest", Guest: true}); err == nil {
		t.Fatal("guest upload ran")
	}
	res, err := a.UploadAndRun("RESULT_FILE.DOWNLOAD_RESULT", "RESULT_FILE", key, code, "easl", "u.easl", nil,
		User{Name: "papiani"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "energy: 12") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
}

// TestCrashRecoveryAndReconcile: after a database restart, WAL replay
// restores metadata and Reconcile re-asserts link state on file hosts.
func TestCrashRecoveryAndReconcile(t *testing.T) {
	dbDir := t.TempDir()
	secret := []byte("integration-secret")
	fsDir := t.TempDir()

	a1, err := Open(Config{DBDir: dbDir, Secret: secret, WorkRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	auth, _ := med.NewTokenAuthority(secret, 0)
	store1, err := dlfs.NewStore(fsDir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := dlfs.NewManager("fs1.sim:80", store1, auth)
	a1.AttachFileServer(WrapManager(m1))
	if err := a1.InitTurbulenceSchema(); err != nil {
		t.Fatal(err)
	}
	if _, err := a1.DB.Exec(`INSERT INTO AUTHOR VALUES ('A1', 'Papiani', NULL, NULL)`); err != nil {
		t.Fatal(err)
	}
	if _, err := a1.DB.Exec(`INSERT INTO SIMULATION VALUES ('S1', 'A1', 'Run', NULL, 8, 100.0, 1, NOW())`); err != nil {
		t.Fatal(err)
	}
	url, err := a1.ArchiveFile("fs1.sim:80", "/d/f.tsf", strings.NewReader("data"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a1.DB.Exec(fmt.Sprintf(
		`INSERT INTO RESULT_FILE VALUES ('f.tsf', 'S1', 0, 'u', 'TSF', 4, DLVALUE('%s'))`, url)); err != nil {
		t.Fatal(err)
	}
	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash" the file host: fresh store over the same directory but
	// with the registry wiped (simulating lost file-manager state).
	if err := store1.Remove("/nonexistent"); err == nil {
		t.Fatal("sanity: remove should fail")
	}
	store2, err := dlfs.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store2.Put("/d/f.tsf", strings.NewReader("data")); err != nil {
		t.Fatal(err)
	}

	a2, err := Open(Config{DBDir: dbDir, Secret: secret, WorkRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	m2 := dlfs.NewManager("fs1.sim:80", store2, auth)
	a2.AttachFileServer(WrapManager(m2))

	// Metadata survived.
	rows, err := a2.DB.Query(`SELECT COUNT(*) FROM RESULT_FILE`)
	if err != nil || rows.Data[0][0].Int() != 1 {
		t.Fatalf("metadata lost: %v %v", rows, err)
	}
	// Reconcile restores the link.
	if store2.LinkedCount() != 0 {
		t.Fatal("sanity: fresh store should have no links")
	}
	if err := a2.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if store2.LinkedCount() != 1 {
		t.Fatalf("reconcile linked %d files, want 1", store2.LinkedCount())
	}
}

func TestCoordinatedBackupRestore(t *testing.T) {
	a, fs1, fs2 := newArchive(t, t.TempDir())
	seedSimulation(t, a, 8)
	_ = fs2

	backupDir := t.TempDir()
	n, err := a.Backup(backupDir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // dataset on fs1 + code on fs2
		t.Fatalf("backup captured %d files, want 2", n)
	}

	// Restore the dataset host from the backup after "disk loss".
	freshStore, err := dlfs.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	auth, _ := med.NewTokenAuthority([]byte("integration-secret"), 0)
	fresh := dlfs.NewManager("fs1.sim:80", freshStore, auth)
	set := med.BackupSet{Dir: backupDir}
	restored, err := set.Restore("", []med.BackupParticipant{fresh})
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 || freshStore.LinkedCount() != 1 {
		t.Fatalf("restored=%d linked=%d", restored, freshStore.LinkedCount())
	}
	_ = fs1
}

func TestUserStore(t *testing.T) {
	s := NewUserStore()
	// Guest account pre-provisioned with the demo credentials.
	u, err := s.Authenticate("guest", "guest")
	if err != nil || !u.Guest {
		t.Fatalf("guest auth: %+v %v", u, err)
	}
	if _, err := s.Authenticate("guest", "wrong"); err == nil {
		t.Fatal("wrong password accepted")
	}
	if _, err := s.Authenticate("nobody", "x"); err == nil {
		t.Fatal("unknown user accepted")
	}
	if err := s.Add(User{Name: "papiani"}, "s3cret"); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(User{Name: "papiani"}, "dup"); err == nil {
		t.Fatal("duplicate user accepted")
	}
	u, err = s.Authenticate("papiani", "s3cret")
	if err != nil || u.Guest {
		t.Fatalf("full user auth: %+v %v", u, err)
	}
	if err := s.SetPassword("papiani", "new"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Authenticate("papiani", "s3cret"); err == nil {
		t.Fatal("old password still valid")
	}
	if err := s.Remove("guest"); err == nil {
		t.Fatal("guest removal allowed")
	}
	if err := s.Remove("papiani"); err != nil {
		t.Fatal(err)
	}
	names := s.Names()
	if len(names) != 1 || names[0] != "guest" {
		t.Fatalf("names = %v", names)
	}
}

func TestTokenExpiryThroughArchive(t *testing.T) {
	now := time.Date(2000, 3, 27, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	secret := []byte("expiry-secret")
	a, err := Open(Config{Secret: secret, TokenTTL: 30 * time.Second, WorkRoot: t.TempDir(), Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	auth, _ := med.NewTokenAuthority(secret, 0)
	auth.SetClock(clock)
	store, err := dlfs.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := dlfs.NewManager("fs1.sim:80", store, auth)
	a.AttachFileServer(WrapManager(m))
	if err := a.InitTurbulenceSchema(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.DB.Exec(`INSERT INTO AUTHOR VALUES ('A1', 'X', NULL, NULL)`); err != nil {
		t.Fatal(err)
	}
	if _, err := a.DB.Exec(`INSERT INTO SIMULATION VALUES ('S1', 'A1', 'R', NULL, 4, 1.0, 1, NOW())`); err != nil {
		t.Fatal(err)
	}
	url, err := a.ArchiveFile("fs1.sim:80", "/d/f.tsf", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.DB.Exec(fmt.Sprintf(
		`INSERT INTO RESULT_FILE VALUES ('f.tsf', 'S1', 0, 'u', 'TSF', 1, DLVALUE('%s'))`, url)); err != nil {
		t.Fatal(err)
	}

	tokURL, err := a.DownloadURL(url, User{Name: "u"})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := a.OpenDownload(tokURL)
	if err != nil {
		t.Fatalf("fresh token refused: %v", err)
	}
	rc.Close()
	// Let the token age past its finite life.
	now = now.Add(time.Hour)
	if _, err := a.OpenDownload(tokURL); !errors.Is(err, med.ErrTokenExpired) {
		t.Fatalf("expired token: %v", err)
	}
}

// TestDatalinkUpdateRelinks: an SQL UPDATE that re-points a DATALINK
// unlinks the old file (releasing it) and links the new one, all inside
// the transaction.
func TestDatalinkUpdateRelinks(t *testing.T) {
	a, fs1, _ := newArchive(t, "")
	seedSimulation(t, a, 8)

	// Archive a replacement file.
	newURL, err := a.ArchiveFile("fs1.sim:80", "/vol0/run1/ts4-v2.tsf", strings.NewReader("replacement"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.DB.Exec(
		`UPDATE RESULT_FILE SET DOWNLOAD_RESULT = DLVALUE(?) WHERE FILE_NAME = 'ts4.tsf'`,
		sqltypes.NewString(newURL)); err != nil {
		t.Fatal(err)
	}
	// The old file is free again; the new file is protected.
	if err := fs1.Store().Remove("/vol0/run1/ts4.tsf"); err != nil {
		t.Fatalf("old file still protected after relink: %v", err)
	}
	if err := fs1.Store().Remove("/vol0/run1/ts4-v2.tsf"); !errors.Is(err, dlfs.ErrLinked) {
		t.Fatalf("new file not protected: %v", err)
	}
	// And exactly one file is linked on fs1 (the new one).
	if got := fs1.Store().LinkedCount(); got != 1 {
		t.Fatalf("linked count = %d, want 1", got)
	}
}

// TestDatalinkUpdateToMissingFileFails: re-pointing at a nonexistent
// file aborts the UPDATE and leaves everything as it was.
func TestDatalinkUpdateToMissingFileFails(t *testing.T) {
	a, fs1, _ := newArchive(t, "")
	seedSimulation(t, a, 8)
	_, err := a.DB.Exec(
		`UPDATE RESULT_FILE SET DOWNLOAD_RESULT = DLVALUE('http://fs1.sim:80/nope/ghost.tsf')
		 WHERE FILE_NAME = 'ts4.tsf'`)
	if err == nil {
		t.Fatal("update to missing file succeeded")
	}
	// Old link intact, row unchanged.
	if err := fs1.Store().Remove("/vol0/run1/ts4.tsf"); !errors.Is(err, dlfs.ErrLinked) {
		t.Fatalf("old link lost after failed update: %v", err)
	}
	rows, err := a.DB.Query(`SELECT DLURLPATH(DOWNLOAD_RESULT) FROM RESULT_FILE WHERE FILE_NAME = 'ts4.tsf'`)
	if err != nil || rows.Data[0][0].AsString() != "/vol0/run1/ts4.tsf" {
		t.Fatalf("row changed after failed update: %v %v", rows, err)
	}
}

// TestDownloadURLForUsesColumnExpiry: a DATALINK column's EXPIRY sets
// the token life whether the minting caller names the column or
// DownloadURL finds it, and the zero Column mints with the default.
func TestDownloadURLForUsesColumnExpiry(t *testing.T) {
	now := time.Date(2000, 3, 27, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	secret := []byte("expiry-secret")
	a, err := Open(Config{Secret: secret, TokenTTL: time.Minute, WorkRoot: t.TempDir(), Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	auth, _ := med.NewTokenAuthority(secret, 0)
	auth.SetClock(clock)
	store, err := dlfs.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a.AttachFileServer(WrapManager(dlfs.NewManager("fs1.sim:80", store, auth)))
	if _, err := a.DB.Exec(`CREATE TABLE SHORT_LIVED (ID INTEGER PRIMARY KEY,
		F DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL READ PERMISSION DB EXPIRY 5)`); err != nil {
		t.Fatal(err)
	}
	url, err := a.ArchiveFile("fs1.sim:80", "/d/f.tsf", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.DB.Exec(`INSERT INTO SHORT_LIVED VALUES (1, DLVALUE(?))`, sqltypes.NewString(url)); err != nil {
		t.Fatal(err)
	}
	schema, _ := a.DB.Catalog().Table("SHORT_LIVED")
	col, _ := schema.Col("F")
	u := User{Name: "u"}
	found, err := a.DownloadURL(url, u)
	if err != nil {
		t.Fatal(err)
	}
	named, err := a.DownloadURLFor(col, url, u)
	if err != nil {
		t.Fatal(err)
	}
	unnamed, err := a.DownloadURLFor(sqldb.Column{}, url, u)
	if err != nil {
		t.Fatal(err)
	}
	open := func(tok string) error {
		rc, err := a.OpenDownload(tok)
		if err == nil {
			rc.Close()
		}
		return err
	}
	now = now.Add(4 * time.Second)
	for _, tok := range []string{found, named, unnamed} {
		if err := open(tok); err != nil {
			t.Fatalf("token refused inside its life: %v", err)
		}
	}
	now = now.Add(2 * time.Second)
	for _, tok := range []string{found, named} {
		if err := open(tok); !errors.Is(err, med.ErrTokenExpired) {
			t.Fatalf("token past the column's EXPIRY 5: %v", err)
		}
	}
	if err := open(unnamed); err != nil {
		t.Fatalf("default-life token refused after 6s: %v", err)
	}
	if _, err := a.DownloadURLFor(col, url, User{Name: "guest", Guest: true}); err == nil {
		t.Fatal("guest minted a download URL")
	}
}

// TestResultSetClose: Close releases a search's rows once; a second
// Close and a nil result are no-ops.
func TestResultSetClose(t *testing.T) {
	a, _, _ := newArchive(t, "")
	seedSimulation(t, a, 8)
	rs, err := a.Search(QBE{Table: "RESULT_FILE"})
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("search: %d rows, %v", len(rs.Rows), err)
	}
	rs.Close()
	if rs.Rows != nil {
		t.Fatal("Rows still readable after Close")
	}
	rs.Close()
	var none *ResultSet
	none.Close()
}
