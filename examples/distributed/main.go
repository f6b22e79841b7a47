// Distributed deployment: the paper's architecture over real HTTP. Two
// Data Links File Manager daemons run on loopback listeners, each one
// file-server host with its own store; the archive server manages the
// files on both through one central database and one link-control 2PC.
//
// The example archives a dataset on each host, shows integrity
// enforcement and token-gated downloads against a remote host, and then
// runs one transaction that links a file on each host while a
// netsim-injected partition cuts one host off: the transaction commits
// nothing on either host, and the reachable host keeps no link. After
// the partition heals, the same transaction commits on both. It ends
// with a coordinated backup.
//
//	go run ./examples/distributed
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"

	"repro/internal/core"
	"repro/internal/dlfs"
	"repro/internal/med"
	"repro/internal/netsim"
	"repro/internal/turb"
)

func main() {
	secret := []byte("distributed-secret")
	work, err := os.MkdirTemp("", "easia-distributed-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(work)

	// --- file-server hosts: real daemons on loopback ---
	startDaemon := func(name, dir string) daemon {
		auth, err := med.NewTokenAuthority(secret, 0)
		if err != nil {
			log.Fatal(err)
		}
		store, err := dlfs.NewStore(dir)
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		host := ln.Addr().String()
		srv := &http.Server{Handler: dlfs.NewServer(dlfs.NewManager(host, store, auth))}
		go srv.Serve(ln) //nolint:errcheck // closed on shutdown
		fmt.Printf("%s daemon listening on %s (root %s)\n", name, host, dir)
		return daemon{host: host, store: store, stop: func() { srv.Close() }}
	}
	fs1 := startDaemon("fs1", work+"/fs1")
	fs2 := startDaemon("fs2", work+"/fs2")
	defer fs1.stop()
	defer fs2.stop()

	// --- archive server host ---
	archive, err := core.Open(core.Config{
		DBDir:    work + "/db",
		Secret:   secret,
		WorkRoot: work + "/ops",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer archive.Close()

	// Each host is reached through a plain dlfs.Client whose traffic
	// passes a netsim fault controller, so a WAN path can be severed
	// below.
	faults := netsim.NewFaults()
	clients := map[string]*dlfs.Client{}
	for _, d := range []daemon{fs1, fs2} {
		c := dlfs.NewClient(d.host, "http://"+d.host, faults.Client())
		clients[d.host] = c
		archive.AttachFileServer(core.WrapClient(c))
	}

	if err := archive.InitTurbulenceSchema(); err != nil {
		log.Fatal(err)
	}
	mustExec(archive, `INSERT INTO AUTHOR VALUES ('A1', 'Papiani', 'Southampton', NULL)`)
	mustExec(archive, `INSERT INTO SIMULATION VALUES ('S1', 'A1', 'Distributed demo', NULL, 16, 100.0, 2, NOW())`)

	// Archive one dataset on each host, where it was generated; the
	// single central database links both.
	for i, d := range []daemon{fs1, fs2} {
		url, size := archiveFile(archive, d.host, i)
		mustExec(archive, insertSQL(i, size, url))
		fmt.Printf("archived and linked %s\n", url)
	}

	// --- integrity enforcement across the wire ---
	if err := clients[fs1.host].Remove("/runs/s1/ts0.tsf"); errors.Is(err, dlfs.ErrLinked) {
		fmt.Println("remote delete of a linked file -> refused by its host")
	} else {
		log.Fatalf("integrity breach: %v", err)
	}
	if err := clients[fs2.host].Rename("/runs/s1/ts1.tsf", "/runs/s1/sneaky.tsf"); errors.Is(err, dlfs.ErrLinked) {
		fmt.Println("remote rename of a linked file -> refused by its host")
	} else {
		log.Fatalf("integrity breach: %v", err)
	}

	// --- token-gated download from a remote host ---
	rows, err := archive.Search(core.QBE{Table: "RESULT_FILE", OrderBy: "TIMESTEP"})
	if err != nil {
		log.Fatal(err)
	}
	dl := rows.Row(1)["RESULT_FILE.DOWNLOAD_RESULT"].Str()
	tokURL, err := archive.DownloadURL(dl, core.User{Name: "papiani"})
	if err != nil {
		log.Fatal(err)
	}
	rc, err := archive.OpenDownload(tokURL)
	if err != nil {
		log.Fatal(err)
	}
	n, _ := io.Copy(io.Discard, rc)
	rc.Close()
	fmt.Printf("token-gated download from %s: %d bytes\n", fs2.host, n)
	if _, err := archive.OpenDownload(dl); err != nil {
		fmt.Printf("tokenless download -> refused (%v)\n", shortErr(err))
	} else {
		log.Fatal("tokenless download succeeded")
	}

	// --- one transaction across both hosts, one of them partitioned ---
	// Both files are on their hosts before the transaction starts; the
	// partition then cuts fs2 off, so its prepare cannot be delivered.
	url2, size2 := archiveFile(archive, fs1.host, 2)
	url3, size3 := archiveFile(archive, fs2.host, 3)
	faults.Partition(fs2.host)
	fmt.Printf("netsim: partitioned %s\n", fs2.host)
	err = linkBoth(archive, insertSQL(2, size2, url2), insertSQL(3, size3, url3))
	if err == nil {
		log.Fatal("a transaction reaching a partitioned host committed")
	}
	fmt.Printf("cross-host transaction -> rolled back (%v)\n", shortErr(err))
	if got := countRows(archive, "ts2.tsf", "ts3.tsf"); got != 0 {
		log.Fatalf("the rolled-back transaction left %d rows", got)
	}
	if linked(clients[fs1.host], "/runs/s1/ts2.tsf") {
		log.Fatalf("the reachable host %s kept the rolled-back link", fs1.host)
	}
	fmt.Printf("database holds no row of it, and %s holds no link\n", fs1.host)

	// --- the partition heals: the same transaction commits on both ---
	// Preparing on fs2 first delivers the abort it missed.
	faults.Heal(fs2.host)
	if err := linkBoth(archive, insertSQL(2, size2, url2), insertSQL(3, size3, url3)); err != nil {
		log.Fatal(err)
	}
	if !linked(clients[fs1.host], "/runs/s1/ts2.tsf") || !linked(clients[fs2.host], "/runs/s1/ts3.tsf") {
		log.Fatal("the committed transaction is not linked on both hosts")
	}
	if n := archive.Coord.FailedAbortCount(); n != 0 {
		log.Fatalf("%d aborts still queued after the heal", n)
	}
	fmt.Printf("partition healed; the transaction commits and links on %s and %s\n", fs1.host, fs2.host)

	// --- a failed statement leaves no remote link state ---
	if _, err := archive.DB.Exec(insertSQL(9, 0, "http://"+fs1.host+"/runs/s1/ghost.tsf")); err != nil {
		fmt.Printf("insert referencing a missing remote file -> refused (%v)\n", shortErr(err))
	} else {
		log.Fatal("dangling insert accepted")
	}

	// --- coordinated backup of database + linked files ---
	// The archive reaches its hosts as remote clients (no backup
	// interface), so back up through managers bound directly to the
	// daemons' stores — on a real deployment each host runs this locally.
	backupDir := work + "/backup"
	auth, err := med.NewTokenAuthority(secret, 0)
	if err != nil {
		log.Fatal(err)
	}
	parts := []med.BackupParticipant{
		dlfs.NewManager(fs1.host, fs1.store, auth),
		dlfs.NewManager(fs2.host, fs2.store, auth),
	}
	captured, err := med.BackupSet{Dir: backupDir}.Backup(archive.DB, work+"/db", parts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coordinated backup captured the database plus %d linked files into %s\n", captured, backupDir)
}

// daemon is one loopback file-server process.
type daemon struct {
	host  string
	store *dlfs.Store
	stop  func()
}

// archiveFile stores timestep i's dataset on host and returns its
// DATALINK URL and size.
func archiveFile(a *core.Archive, host string, i int) (string, int) {
	var buf bytes.Buffer
	if _, err := turb.Generate(16, i, int64(i)).WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	url, err := a.ArchiveFile(host, fmt.Sprintf("/runs/s1/ts%d.tsf", i), bytes.NewReader(buf.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	return url, buf.Len()
}

// insertSQL is the RESULT_FILE row linking timestep i's dataset.
func insertSQL(i, size int, url string) string {
	return fmt.Sprintf(
		`INSERT INTO RESULT_FILE VALUES ('ts%d.tsf', 'S1', %d, 'u,v,w,p', 'TSF', %d, DLVALUE('%s'))`,
		i, i, size, url)
}

// linkBoth runs both INSERTs in one transaction, rolling it back if
// either fails.
func linkBoth(a *core.Archive, first, second string) error {
	tx, err := a.DB.Begin()
	if err != nil {
		return err
	}
	for _, sql := range []string{first, second} {
		if _, err := tx.Exec(sql); err != nil {
			// The rollback's own error names the partitioned host's
			// abort, which the coordinator queues and delivers later.
			tx.Rollback() //nolint:errcheck
			return err
		}
	}
	return tx.Commit()
}

// countRows counts the RESULT_FILE rows with the given file names.
func countRows(a *core.Archive, names ...string) int {
	n := 0
	for _, name := range names {
		rows, err := a.DB.Query(`SELECT FILE_NAME FROM RESULT_FILE WHERE FILE_NAME = '` + name + `'`)
		if err != nil {
			log.Fatal(err)
		}
		n += len(rows.Data)
		rows.Close()
	}
	return n
}

// linked reports whether the host's link registry holds path as a live
// link.
func linked(c *dlfs.Client, path string) bool {
	states, err := c.LinkStates()
	if err != nil {
		log.Fatal(err)
	}
	for _, ls := range states {
		if ls.Path == path && !ls.Tombstone() {
			return true
		}
	}
	return false
}

func mustExec(a *core.Archive, sql string) {
	if _, err := a.DB.Exec(sql); err != nil {
		log.Fatalf("%s: %v", sql, err)
	}
}

func shortErr(err error) string {
	s := err.Error()
	if len(s) > 80 {
		s = s[:80] + "…"
	}
	return s
}
