// Command dlfsd is the Data Links File Manager daemon: run one on every
// file-server host. It stores the large result files, enforces SQL/MED
// link control (linked files cannot be renamed or deleted), validates
// encrypted access tokens for READ PERMISSION DB files, and speaks the
// two-phase link protocol with the archive's coordinator.
//
// Usage:
//
//	dlfsd -host fs1.example.org:8081 -listen :8081 -root /data/archive -secret s3cret
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dlfs"
	"repro/internal/med"
)

func main() {
	var (
		host   = flag.String("host", "localhost:8081", "host[:port] as it appears in DATALINK URLs")
		listen = flag.String("listen", ":8081", "listen address")
		root   = flag.String("root", "dlfs-data", "file store root directory")
		secret = flag.String("secret", "", "shared token secret (must match the archive server)")
		ttl    = flag.Duration("ttl", med.DefaultTokenTTL, "default token lifetime")
	)
	flag.Parse()
	if *secret == "" {
		log.Fatal("dlfsd: -secret is required (shared with the archive server)")
	}
	auth, err := med.NewTokenAuthority([]byte(*secret), *ttl)
	if err != nil {
		log.Fatalf("dlfsd: %v", err)
	}
	store, err := dlfs.NewStore(*root)
	if err != nil {
		log.Fatalf("dlfsd: %v", err)
	}
	log.Printf("dlfsd: serving host %s from %s on %s (%d linked files)",
		*host, *root, *listen, store.LinkedCount())
	srv := &http.Server{
		Addr:         *listen,
		Handler:      dlfs.NewServer(dlfs.NewManager(*host, store, auth)),
		ReadTimeout:  5 * time.Minute,
		WriteTimeout: 30 * time.Minute, // large dataset downloads
	}

	// Graceful drain on SIGTERM/SIGINT: stop accepting connections and
	// let in-flight transfers finish within a bounded window.
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
	}
}
