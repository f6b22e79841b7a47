package dlfs

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientRetryIdempotent: the client sends each RPC once, idempotent
// ones included, so a transient 503 reaches the caller as the first
// fault and fault injection sees every fault exactly once.
func TestClientRetryIdempotent(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "warming up", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := NewClient("fs.sim:80", srv.URL, nil)
	if _, err := c.Stat("/d/f"); err == nil {
		t.Fatal("Stat swallowed the 503")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("client issued %d attempts, want 1", got)
	}
}

// TestClientRPCTimeout: a WithContext deadline ends an RPC to a stalled
// daemon with the caller's deadline error.
func TestClientRPCTimeout(t *testing.T) {
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stall:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(stall)

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	c := NewClient("fs.sim:80", srv.URL, nil).WithContext(ctx)
	start := time.Now()
	_, err := c.Stat("/d/f")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Stat against a stalled daemon = %v, want the caller's deadline", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the deadline took %v to end the RPC", took)
	}
}

// TestClientContextAbortsBackoff: the client has no backoff to wait out.
// Against a daemon that always fails, a Stat under a long caller deadline
// returns the daemon's error after one attempt, far inside the deadline;
// a context already cancelled sends no request at all.
func TestClientContextAbortsBackoff(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err := NewClient("fs.sim:80", srv.URL, nil).WithContext(ctx).Stat("/d/f")
	took := time.Since(start)
	if err == nil {
		t.Fatal("Stat succeeded against a permanently failing daemon")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Stat waited out the caller's deadline: %v", err)
	}
	if took > time.Second {
		t.Fatalf("Stat against a failing daemon took %v — the client waited between attempts", took)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("daemon saw %d attempts, want 1", got)
	}

	done, stop := context.WithCancel(context.Background())
	stop()
	_, err = NewClient("fs.sim:80", srv.URL, nil).WithContext(done).Stat("/d/f")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Stat under a cancelled context = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("a cancelled context reached the daemon: %d attempts, want 1", got)
	}
}
