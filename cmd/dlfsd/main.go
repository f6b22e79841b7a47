// Command dlfsd is the Data Links File Manager daemon: run one on every
// file-server host. It stores the large result files, enforces SQL/MED
// link control (linked files cannot be renamed or deleted), validates
// encrypted access tokens for READ PERMISSION DB files, and speaks the
// two-phase link protocol with the archive's coordinator.
//
// Usage (single file server):
//
//	dlfsd -host fs1.example.org:8081 -listen :8081 -root /data/archive -secret s3cret
//
// With -replica flags the daemon instead runs as a replication
// gateway: it serves the same wire protocol, but every file is placed
// on -rf of the named peer daemons (rendezvous hashing), link-control
// 2PC fans out to the placed replicas, reads fail over past dead
// peers, and a background health checker + anti-entropy loop
// re-replicates what a crashed peer missed once it rejoins:
//
//	dlfsd -host fs.example.org:8080 -listen :8080 -secret s3cret \
//	      -rf 2 -replica fs1.example.org:8081=http://fs1.example.org:8081 \
//	            -replica fs2.example.org:8081=http://fs2.example.org:8081
package main

import (
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

	"repro/internal/dlfs"
	"repro/internal/dlfs/cluster"
	"repro/internal/med"
	"repro/internal/telemetry"
)

func main() {
	var (
		host    = flag.String("host", "localhost:8081", "host[:port] as it appears in DATALINK URLs")
		listen  = flag.String("listen", ":8081", "listen address")
		root    = flag.String("root", "dlfs-data", "file store root directory (single-server mode)")
		secret  = flag.String("secret", "", "shared token secret (must match the archive server)")
		ttl     = flag.Duration("ttl", med.DefaultTokenTTL, "default token lifetime")
		rf      = flag.Int("rf", cluster.DefaultReplicationFactor, "replication factor (gateway mode)")
		probe   = flag.Duration("probe", 2*time.Second, "health-probe / anti-entropy interval (gateway mode)")
		rpcTO   = flag.Duration("rpc-timeout", 0, "per-attempt deadline for RPCs to peer daemons (gateway mode; 0 = unbounded)")
		retries = flag.Int("rpc-retries", 0, "extra attempts for idempotent RPCs to peer daemons, with jittered exponential backoff (gateway mode)")
		state   = flag.String("state", "", "repair-state checkpoint file (gateway mode): removal tombstones and pending repairs survive a restart")
		spool   = flag.String("spool", "", "spool directory for fan-out/repair payloads (gateway mode; default OS temp dir, often RAM-backed tmpfs — use a real disk for large datasets)")
	)
	var replicas []string
	flag.Func("replica", "peer daemon as host=baseURL (repeatable; enables gateway mode)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want host=baseURL, got %q", v)
		}
		replicas = append(replicas, v)
		return nil
	})
	flag.Parse()
	if *secret == "" {
		log.Fatal("dlfsd: -secret is required (shared with the archive server)")
	}
	auth, err := med.NewTokenAuthority([]byte(*secret), *ttl)
	if err != nil {
		log.Fatalf("dlfsd: %v", err)
	}

	// One registry per process: in gateway mode the cluster tier's
	// counters land in it; in single-server mode it still serves the
	// /metrics endpoint (empty exposition until metrics register).
	metrics := telemetry.New()
	var backend dlfs.Backend
	var gateway *cluster.ReplicaSet
	switch {
	case len(replicas) > 0:
		rs := cluster.New(cluster.Config{
			Host:              *host,
			ReplicationFactor: *rf,
			ProbeInterval:     *probe,
			RPCTimeout:        *rpcTO,
			RetryAttempts:     *retries,
			Tokens:            auth,
			StatePath:         *state,
			SpoolDir:          *spool,
			Metrics:           metrics,
		})
		for _, spec := range replicas {
			name, base, _ := strings.Cut(spec, "=")
			if err := rs.Add(cluster.NewClientNode(dlfs.NewClient(name, base, nil))); err != nil {
				log.Fatalf("dlfsd: %v", err)
			}
		}
		if err := rs.LoadState(); err != nil {
			log.Fatalf("dlfsd: %v", err)
		}
		rs.Start()
		backend = rs
		gateway = rs
		log.Printf("dlfsd: gateway for host %s over replicas %v (rf=%d, probe=%s) on %s",
			*host, rs.Members(), *rf, *probe, *listen)
	default:
		store, err := dlfs.NewStore(*root)
		if err != nil {
			log.Fatalf("dlfsd: %v", err)
		}
		backend = dlfs.NewManager(*host, store, auth)
		log.Printf("dlfsd: serving host %s from %s on %s (%d linked files)",
			*host, *root, *listen, store.LinkedCount())
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler())
	mux.Handle("/", dlfs.NewServer(backend))
	srv := &http.Server{
		Addr:         *listen,
		Handler:      mux,
		ReadTimeout:  5 * time.Minute,
		WriteTimeout: 30 * time.Minute, // large dataset downloads
	}

	// Graceful drain on SIGTERM/SIGINT: stop accepting connections,
	// let in-flight transfers finish within a bounded window, then (in
	// gateway mode) stop the probe/repair loop so a mid-pass repair
	// completes its current step and the repair-state checkpoint is
	// consistent on disk.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatalf("dlfsd: %v", err)
	case <-ctx.Done():
		stop()
		log.Print("dlfsd: shutdown signal received, draining")
		shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("dlfsd: shutdown: %v", err)
		}
		if gateway != nil {
			gateway.Stop()
		}
	}
}
