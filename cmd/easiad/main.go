// Command easiad is the EASIA archive server: the database server host
// from the paper's architecture figure. It runs the metadata database,
// the SQL/MED coordinator and token authority, the operations engine
// and the web front end, and talks to dlfsd daemons on the file-server
// hosts (or to a built-in local file server for single-machine use).
//
// Usage (single machine with a built-in file server and demo data):
//
//	easiad -listen :8080 -db ./easia-db -secret s3cret -local-fs localhost:8080 -seed-demo
//
// Usage (distributed, with dlfsd daemons):
//
//	easiad -listen :8080 -db ./easia-db -secret s3cret \
//	    -fs fs1.example.org:8081=http://fs1.example.org:8081 \
//	    -fs fs2.example.org:8081=http://fs2.example.org:8081
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dlfs"
	"repro/internal/med"
	"repro/internal/turb"
	"repro/internal/webui"
	"repro/internal/xuis"
)

// fsFlags collects repeated -fs host=url mappings.
type fsFlags map[string]string

func (f fsFlags) String() string { return fmt.Sprint(map[string]string(f)) }

func (f fsFlags) Set(v string) error {
	host, url, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want host=url, got %q", v)
	}
	f[host] = url
	return nil
}

func main() {
	var (
		listen   = flag.String("listen", ":8080", "web UI listen address")
		dbDir    = flag.String("db", "easia-db", "database directory ('' for in-memory)")
		secret   = flag.String("secret", "", "shared token secret (must match every dlfsd)")
		ttl      = flag.Duration("ttl", med.DefaultTokenTTL, "access-token lifetime")
		workRoot = flag.String("work", "easia-work", "operation working directory root")
		localFS  = flag.String("local-fs", "", "run a built-in file server under this host name")
		localDir = flag.String("local-fs-root", "easia-files", "built-in file server root")
		seedDemo = flag.Bool("seed-demo", false, "load the turbulence demo simulation")
		adminPw  = flag.String("admin-password", "", "provision an 'admin' account with this password")
		salvage  = flag.Bool("salvage", false, "accept committed-data loss on a corrupt WAL: recover the intact prefix instead of refusing to open")
		slowLog  = flag.String("slow-query-log", "", "append EXPLAIN ANALYZE JSON lines for statements over -slow-query-threshold to this file")
		slowThr  = flag.Duration("slow-query-threshold", 100*time.Millisecond, "statement wall time that counts as slow (with -slow-query-log)")
	)
	remotes := fsFlags{}
	flag.Var(remotes, "fs", "remote file server as host=baseURL (repeatable)")
	flag.Parse()
	if *secret == "" {
		log.Fatal("easiad: -secret is required")
	}

	a, err := core.Open(core.Config{
		DBDir:    *dbDir,
		Secret:   []byte(*secret),
		TokenTTL: *ttl,
		WorkRoot: *workRoot,
		Salvage:  *salvage,
	})
	if err != nil {
		log.Fatalf("easiad: %v", err)
	}
	defer a.Close()
	if rec := a.DB.Recovery(); rec.Salvaged || rec.TruncatedBytes > 0 || rec.StaleWAL {
		log.Printf("easiad: crash recovery: tail=%s truncated=%dB staleWAL=%v salvaged=%v replayed=%d tx",
			rec.Tail, rec.TruncatedBytes, rec.StaleWAL, rec.Salvaged, rec.ReplayedTx)
	}
	if *slowLog != "" {
		f, err := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("easiad: slow-query log: %v", err)
		}
		defer f.Close()
		a.DB.SetSlowQueryLog(f)
		a.DB.SetTraceThreshold(*slowThr)
		log.Printf("easiad: tracing statements, logging those over %s to %s", *slowThr, *slowLog)
	}

	var localMgr *dlfs.Manager
	if *localFS != "" {
		auth, err := med.NewTokenAuthority([]byte(*secret), *ttl)
		if err != nil {
			log.Fatalf("easiad: %v", err)
		}
		store, err := dlfs.NewStore(*localDir)
		if err != nil {
			log.Fatalf("easiad: %v", err)
		}
		localMgr = dlfs.NewManager(*localFS, store, auth)
		a.AttachFileServer(core.WrapManager(localMgr))
		log.Printf("easiad: built-in file server %s rooted at %s", *localFS, *localDir)
	}
	for host, base := range remotes {
		a.AttachFileServer(core.WrapClient(dlfs.NewClient(host, base, nil)))
		log.Printf("easiad: attached remote file server %s at %s", host, base)
	}

	// Create the schema on first run; reopening an existing directory
	// finds it already present.
	if _, ok := a.DB.Catalog().Table("SIMULATION"); !ok {
		if err := a.InitTurbulenceSchema(); err != nil {
			log.Fatalf("easiad: schema: %v", err)
		}
		log.Print("easiad: installed turbulence schema")
	}
	if *seedDemo {
		if err := seed(a, *localFS); err != nil {
			log.Fatalf("easiad: seeding demo: %v", err)
		}
	}
	// Crash reconciliation: every controlled DATALINK in the database
	// must be linked on its file server.
	if err := a.Reconcile(); err != nil {
		log.Printf("easiad: reconcile warning: %v", err)
	}
	spec, err := a.GenerateXUIS("TURBULENCE")
	if err != nil {
		log.Fatalf("easiad: XUIS: %v", err)
	}
	if *seedDemo {
		if err := customiseDemoSpec(spec); err != nil {
			log.Fatalf("easiad: customising XUIS: %v", err)
		}
		if err := a.SetSpec(spec); err != nil {
			log.Fatalf("easiad: installing XUIS: %v", err)
		}
	}
	if *adminPw != "" {
		if err := a.Users.Add(core.User{Name: "admin", Admin: true}, *adminPw); err != nil {
			log.Fatalf("easiad: %v", err)
		}
	}

	srv := &http.Server{
		Addr:         *listen,
		Handler:      webui.NewServer(a),
		ReadTimeout:  time.Minute,
		WriteTimeout: 10 * time.Minute,
	}
	log.Printf("easiad: web interface on %s (guest/guest to browse)", *listen)

	// Graceful drain on SIGTERM/SIGINT: stop accepting requests, give
	// in-flight ones a bounded window to finish, then fall through to
	// the deferred a.Close() — which itself drains in-flight statements
	// before tearing the engine down, so a statement mid-scan sees
	// ErrClosed instead of a yanked WAL.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatalf("easiad: %v", err)
	case <-ctx.Done():
		stop()
		log.Print("easiad: shutdown signal received, draining")
		shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("easiad: shutdown: %v", err)
		}
	}
}

// seed loads the demo content: one author, one simulation, a real
// generated dataset and the GetImage post-processing code.
func seed(a *core.Archive, localHost string) error {
	if localHost == "" {
		return fmt.Errorf("-seed-demo requires -local-fs")
	}
	if rows, err := a.DB.Query(`SELECT COUNT(*) FROM SIMULATION`); err == nil {
		seeded := rows.Data[0][0].Int() > 0
		rows.Close()
		if seeded {
			return nil
		}
	}
	for _, sql := range []string{
		`INSERT INTO AUTHOR VALUES ('A19990110151042', 'Papiani', 'University of Southampton', 'papiani@computer.org')`,
		`INSERT INTO SIMULATION VALUES ('S19990110150932', 'A19990110151042', 'Turbulent channel flow',
			'Direct numerical simulation of turbulent channel flow.', 48, 1395.0, 3, '2000-03-27 09:00:00')`,
	} {
		if _, err := a.DB.Exec(sql); err != nil {
			return err
		}
	}
	for step := 0; step < 3; step++ {
		var buf bytes.Buffer
		if _, err := turb.Generate(48, step, 1999).WriteTo(&buf); err != nil {
			return err
		}
		path := fmt.Sprintf("/vol0/run1/ts%d.tsf", step)
		url, err := a.ArchiveFile(localHost, path, bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		if _, err := a.DB.Exec(fmt.Sprintf(
			`INSERT INTO RESULT_FILE VALUES ('ts%d.tsf', 'S19990110150932', %d, 'u,v,w,p', 'TSF', %d, DLVALUE('%s'))`,
			step, step, buf.Len(), url)); err != nil {
			return err
		}
	}
	code := `
let axis = params["slice"]
let comp = params["type"]
if (axis == nil) { axis = "z" }
if (comp == nil) { comp = "u" }
let info = datasetInfo(filename)
let mid = floor(info.n / 2)
writeImage("slice.pgm", filename, comp, axis, mid)
let st = sliceStats(filename, comp, axis, mid)
print("slice", axis, "=", mid, "of", comp, " min", st.min, "max", st.max)
`
	url, err := a.ArchiveFile(localHost, "/codes/getimage.easl", strings.NewReader(code))
	if err != nil {
		return err
	}
	if _, err := a.DB.Exec(fmt.Sprintf(
		`INSERT INTO CODE_FILE VALUES ('GetImage.easl', 'S19990110150932', 'EASL', 'Slice visualiser', DLVALUE('%s'))`,
		url)); err != nil {
		return err
	}
	log.Print("easiad: demo simulation seeded (3 timesteps, GetImage code)")
	return nil
}

// customiseDemoSpec applies the paper's customisations: FK substitution
// and the GetImage operation with its parameter form, plus code upload.
func customiseDemoSpec(spec *xuis.Spec) error {
	if err := spec.SetFKSubstitution("SIMULATION", "AUTHOR_KEY", "AUTHOR.NAME"); err != nil {
		return err
	}
	op := &xuis.Operation{
		Name: "GetImage", Type: "EASL", Filename: "getimage.easl", Format: "easl", GuestAccess: true,
		Location: &xuis.Location{DatabaseResult: &xuis.DatabaseResult{
			ColID:      "CODE_FILE.DOWNLOAD_CODE_FILE",
			Conditions: []xuis.Condition{{ColID: "CODE_FILE.CODE_NAME", Eq: "'GetImage.easl'"}},
		}},
		Description: "Visualise one slice of the dataset without downloading it",
		Parameters: &xuis.Parameters{Params: []xuis.Param{
			{Variable: xuis.Variable{
				Description: "Select the slice you wish to visualise:",
				Select: &xuis.Select{Name: "slice", Size: 3, Options: []xuis.Option{
					{Value: "x", Label: "x plane"}, {Value: "y", Label: "y plane"}, {Value: "z", Label: "z plane"},
				}},
			}},
			{Variable: xuis.Variable{
				Description: "Select velocity component or pressure:",
				Inputs: []xuis.Input{
					{Type: "radio", Name: "type", Value: "u", Label: "u speed"},
					{Type: "radio", Name: "type", Value: "v", Label: "v speed"},
					{Type: "radio", Name: "type", Value: "w", Label: "w speed"},
					{Type: "radio", Name: "type", Value: "p", Label: "pressure"},
				},
			}},
		}},
	}
	if err := spec.AddOperation("RESULT_FILE", "DOWNLOAD_RESULT", op); err != nil {
		return err
	}
	return spec.SetUpload("RESULT_FILE", "DOWNLOAD_RESULT", &xuis.Upload{
		Type: "EASL", Format: "easl", GuestAccess: false,
	})
}
