package med

import (
	"strings"
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
