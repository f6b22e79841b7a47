package med

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sqltypes"
)

func newAuthority(t *testing.T) *TokenAuthority {
	t.Helper()
	ta, err := NewTokenAuthority([]byte("easia-test-secret"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return ta
}

func TestTokenRoundTrip(t *testing.T) {
	ta := newAuthority(t)
	tok, err := ta.Mint("/vol0/run1/ts42.tsf", "guest", 0)
	if err != nil {
		t.Fatal(err)
	}
	claims, err := ta.Validate(tok, "/vol0/run1/ts42.tsf")
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if claims.User != "guest" || claims.Path != "/vol0/run1/ts42.tsf" {
		t.Fatalf("claims = %+v", claims)
	}
}

func TestTokenWrongPath(t *testing.T) {
	ta := newAuthority(t)
	tok, _ := ta.Mint("/a/b.dat", "u", 0)
	if _, err := ta.Validate(tok, "/a/c.dat"); err != ErrTokenWrongFile {
		t.Fatalf("err = %v, want ErrTokenWrongFile", err)
	}
}

func TestTokenExpiry(t *testing.T) {
	ta := newAuthority(t)
	now := time.Date(2000, 3, 27, 12, 0, 0, 0, time.UTC)
	ta.SetClock(func() time.Time { return now })
	tok, _ := ta.Mint("/a/b.dat", "u", 30*time.Second)
	if _, err := ta.Validate(tok, "/a/b.dat"); err != nil {
		t.Fatalf("fresh token rejected: %v", err)
	}
	now = now.Add(31 * time.Second)
	if _, err := ta.Validate(tok, "/a/b.dat"); err != ErrTokenExpired {
		t.Fatalf("err = %v, want ErrTokenExpired", err)
	}
}

func TestTokenTamperRejected(t *testing.T) {
	ta := newAuthority(t)
	tok, _ := ta.Mint("/a/b.dat", "u", 0)
	// Flip a character.
	b := []byte(tok)
	if b[5] == 'A' {
		b[5] = 'B'
	} else {
		b[5] = 'A'
	}
	if _, err := ta.Validate(string(b), "/a/b.dat"); err != ErrTokenTampered {
		t.Fatalf("err = %v, want ErrTokenTampered", err)
	}
	if _, err := ta.Validate("not-base64!!!", "/a/b.dat"); err != ErrTokenTampered {
		t.Fatalf("garbage: err = %v, want ErrTokenTampered", err)
	}
}

func TestTokenAuthoritiesWithDifferentSecrets(t *testing.T) {
	ta1, _ := NewTokenAuthority([]byte("secret-one"), time.Minute)
	ta2, _ := NewTokenAuthority([]byte("secret-two"), time.Minute)
	tok, _ := ta1.Mint("/a/b.dat", "u", 0)
	if _, err := ta2.Validate(tok, "/a/b.dat"); err != ErrTokenTampered {
		t.Fatalf("cross-secret validation: %v, want ErrTokenTampered", err)
	}
}

// Property: any path/user pair round-trips and the token is URL-safe.
func TestTokenRoundTripProperty(t *testing.T) {
	ta := newAuthority(t)
	f := func(rawPath, user string) bool {
		path := "/" + strings.Map(func(r rune) rune {
			if r == ';' || r == '\x00' || r == '\n' {
				return '_'
			}
			return r
		}, rawPath)
		tok, err := ta.Mint(path, user, 0)
		if err != nil {
			return false
		}
		if strings.ContainsAny(tok, "/+=;") {
			return false // must survive inside "token;file" URLs
		}
		claims, err := ta.Validate(tok, path)
		return err == nil && claims.Path == path && claims.User == user
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenInspect(t *testing.T) {
	ta := newAuthority(t)
	now := time.Date(2000, 3, 27, 12, 0, 0, 0, time.UTC)
	ta.SetClock(func() time.Time { return now })
	tok, _ := ta.Mint("/x/y.dat", "alice", 2*time.Minute)
	claims, err := ta.Inspect(tok)
	if err != nil {
		t.Fatal(err)
	}
	if !claims.Expires.Equal(now.Add(2 * time.Minute)) {
		t.Fatalf("expiry = %v", claims.Expires)
	}
}

// fakeServer records coordinator calls for protocol tests.
type fakeServer struct {
	host      string
	prepared  []LinkOp
	commits   []uint64
	aborts    []uint64
	failPrep  bool
	failAbort bool
}

func (f *fakeServer) Host() string { return f.host }
func (f *fakeServer) Prepare(tx uint64, op LinkOp) error {
	if f.failPrep {
		return ErrTokenTampered // any error will do
	}
	f.prepared = append(f.prepared, op)
	return nil
}
func (f *fakeServer) Commit(tx uint64) error { f.commits = append(f.commits, tx); return nil }
func (f *fakeServer) Abort(tx uint64) error {
	if f.failAbort {
		return ErrTokenTampered // any error will do
	}
	f.aborts = append(f.aborts, tx)
	return nil
}
func (f *fakeServer) EnsureLinked(path string, opts sqltypes.DatalinkOptions) error {
	f.prepared = append(f.prepared, LinkOp{Kind: OpLink, Path: path, Opts: opts})
	return nil
}

func TestCoordinatorRouting(t *testing.T) {
	c := NewCoordinator()
	fs1 := &fakeServer{host: "fs1.sim:80"}
	fs2 := &fakeServer{host: "fs2.sim:80"}
	c.Register(fs1)
	c.Register(fs2)

	opts := sqltypes.DefaultEASIA()
	if err := c.PrepareLink(7, "http://fs1.sim:80/data/a.tsf", opts); err != nil {
		t.Fatal(err)
	}
	if err := c.PrepareLink(7, "http://fs2.sim:80/data/b.tsf", opts); err != nil {
		t.Fatal(err)
	}
	if err := c.PrepareUnlink(7, "http://fs1.sim:80/data/c.tsf", opts); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(7); err != nil {
		t.Fatal(err)
	}
	if len(fs1.prepared) != 2 || len(fs2.prepared) != 1 {
		t.Fatalf("prepare fanout: fs1=%d fs2=%d", len(fs1.prepared), len(fs2.prepared))
	}
	if len(fs1.commits) != 1 || len(fs2.commits) != 1 {
		t.Fatalf("commit fanout: fs1=%v fs2=%v", fs1.commits, fs2.commits)
	}
	// Commit of an unknown transaction touches no servers.
	if err := c.Commit(99); err != nil {
		t.Fatal(err)
	}
	if len(fs1.commits) != 1 {
		t.Fatal("unknown tx reached server")
	}
}

func TestCoordinatorAbortFanout(t *testing.T) {
	c := NewCoordinator()
	fs1 := &fakeServer{host: "fs1.sim:80"}
	c.Register(fs1)
	opts := sqltypes.DefaultEASIA()
	if err := c.PrepareLink(3, "http://fs1.sim:80/d/x.tsf", opts); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(3); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if len(fs1.aborts) != 1 {
		t.Fatalf("aborts = %v", fs1.aborts)
	}
}

// TestCoordinatorAbortFailureQueued: an abort that cannot reach its
// server is surfaced, queued, and retried until it lands — a staged
// prepare must not silently leak files on a server that missed the
// abort.
func TestCoordinatorAbortFailureQueued(t *testing.T) {
	c := NewCoordinator()
	fs1 := &fakeServer{host: "fs1.sim:80", failAbort: true}
	c.Register(fs1)
	opts := sqltypes.DefaultEASIA()
	if err := c.PrepareLink(4, "http://fs1.sim:80/d/x.tsf", opts); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(4); err == nil {
		t.Fatal("abort failure was swallowed")
	}
	if c.FailedAbortCount() != 1 {
		t.Fatalf("FailedAbortCount = %d, want 1", c.FailedAbortCount())
	}
	// While the server stays unreachable the retry keeps it queued.
	if err := c.RetryFailedAborts(); err == nil || c.FailedAbortCount() != 1 {
		t.Fatalf("retry against dead server: err=%v queued=%d", err, c.FailedAbortCount())
	}
	// Once it comes back the retry drains the queue.
	fs1.failAbort = false
	if err := c.RetryFailedAborts(); err != nil {
		t.Fatalf("retry after recovery: %v", err)
	}
	if c.FailedAbortCount() != 0 || len(fs1.aborts) != 1 {
		t.Fatalf("queue not drained: queued=%d aborts=%v", c.FailedAbortCount(), fs1.aborts)
	}
}

func TestCoordinatorUnknownHost(t *testing.T) {
	c := NewCoordinator()
	err := c.PrepareLink(1, "http://unknown.host/d/x.tsf", sqltypes.DefaultEASIA())
	if err == nil || !strings.Contains(err.Error(), "no file manager") {
		t.Fatalf("err = %v", err)
	}
}

func TestCoordinatorReconcile(t *testing.T) {
	c := NewCoordinator()
	fs1 := &fakeServer{host: "fs1.sim:80"}
	c.Register(fs1)
	urls := []string{"http://fs1.sim:80/d/a.tsf", "http://fs1.sim:80/d/b.tsf"}
	if err := c.Reconcile(urls, sqltypes.DefaultEASIA()); err != nil {
		t.Fatal(err)
	}
	if len(fs1.prepared) != 2 {
		t.Fatalf("reconciled %d files, want 2", len(fs1.prepared))
	}
	// Unknown host is reported, known host still processed.
	err := c.Reconcile([]string{"http://nope/d/x.tsf", "http://fs1.sim:80/d/c.tsf"}, sqltypes.DefaultEASIA())
	if err == nil {
		t.Fatal("expected error for unknown host")
	}
	if len(fs1.prepared) != 3 {
		t.Fatalf("partial reconcile: %d", len(fs1.prepared))
	}
}

// gatedServer is a FileServer whose Commit announces itself on entered
// and returns only once released, failing if fail is set.
type gatedServer struct {
	host    string
	entered chan uint64
	release chan struct{}
	fail    atomic.Bool
}

func newGatedServer(host string) *gatedServer {
	return &gatedServer{host: host, entered: make(chan uint64, 8), release: make(chan struct{})}
}

func (g *gatedServer) Host() string                       { return g.host }
func (g *gatedServer) Prepare(tx uint64, op LinkOp) error { return nil }
func (g *gatedServer) Abort(tx uint64) error              { return nil }
func (g *gatedServer) EnsureLinked(path string, opts sqltypes.DatalinkOptions) error {
	return nil
}
func (g *gatedServer) Commit(tx uint64) error {
	g.entered <- tx
	<-g.release
	if g.fail.Load() {
		return ErrTokenTampered // any error will do
	}
	return nil
}

// TestCoordinatorLinkGeneration: the link generation is odd exactly
// while a transaction that unlinks is committing on its hosts, and
// after one whose host Commit failed until a Reconcile succeeds; each
// moves it on by two once done, and so does replacing a host. Linking,
// aborting and preparing without committing leave it as it is.
func TestCoordinatorLinkGeneration(t *testing.T) {
	c := NewCoordinator()
	s := newGatedServer("fs1.sim:80")
	c.Register(s)
	gen := c.LinkGeneration()
	if gen != 2 {
		t.Fatalf("after registering one host the generation is %d, want 2", gen)
	}
	opts := sqltypes.DefaultEASIA()
	const url = "http://fs1.sim:80/d/a.tsf"
	want := func(what string, g uint64) {
		t.Helper()
		if got := c.LinkGeneration(); got != g {
			t.Fatalf("%s: generation %d, want %d", what, got, g)
		}
	}
	// commit runs Commit(tx) until its host is inside Commit, checks
	// the generation there, then lets the host answer.
	commit := func(tx uint64, during uint64) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- c.Commit(tx) }()
		if got := <-s.entered; got != tx {
			t.Fatalf("host committing tx %d, want %d", got, tx)
		}
		want(fmt.Sprintf("tx %d in flight", tx), during)
		s.release <- struct{}{}
		return <-done
	}

	if err := c.PrepareLink(1, url, opts); err != nil {
		t.Fatal(err)
	}
	if err := commit(1, gen); err != nil {
		t.Fatal(err)
	}
	want("after a link-only commit", gen)

	if err := c.PrepareUnlink(2, url, opts); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(2); err != nil {
		t.Fatal(err)
	}
	want("after an aborted unlink", gen)

	if err := c.PrepareUnlink(3, url, opts); err != nil {
		t.Fatal(err)
	}
	want("after an unlink prepared and not committed", gen)

	if err := c.PrepareLink(4, "http://fs1.sim:80/d/b.tsf", opts); err != nil {
		t.Fatal(err)
	}
	if err := c.PrepareUnlink(4, url, opts); err != nil {
		t.Fatal(err)
	}
	if err := commit(4, gen+1); err != nil {
		t.Fatal(err)
	}
	gen += 2
	want("after an unlink commits", gen)

	s.fail.Store(true)
	if err := c.PrepareUnlink(5, url, opts); err != nil {
		t.Fatal(err)
	}
	if err := commit(5, gen+1); err == nil {
		t.Fatal("the host's failed Commit was not reported")
	}
	s.fail.Store(false)
	// The host may still apply the unlink: odd until a Reconcile
	// succeeds.
	want("after an unlink whose host Commit failed", gen+1)
	if err := c.Reconcile([]string{"http://fs9.sim:80/d/a.tsf"}, opts); err == nil {
		t.Fatal("reconciling a URL on an unknown host succeeded")
	}
	want("after a failed Reconcile", gen+1)
	if err := c.Reconcile([]string{url}, opts); err != nil {
		t.Fatal(err)
	}
	gen += 2
	want("after Reconcile", gen)

	// Two unlinks in flight at once: odd until the last one is done.
	for _, tx := range []uint64{6, 7} {
		if err := c.PrepareUnlink(tx, url, opts); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 2)
	go func() { done <- c.Commit(6) }()
	<-s.entered
	go func() { done <- c.Commit(7) }()
	<-s.entered
	want("two unlinks in flight", gen+3)
	s.release <- struct{}{}
	<-done
	want("one of two unlinks done", gen+3)
	s.release <- struct{}{}
	<-done
	gen += 4
	want("both unlinks done", gen)

	c.Register(newGatedServer("fs1.sim:80"))
	want("after a host is replaced", gen+2)
}
