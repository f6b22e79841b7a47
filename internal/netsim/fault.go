package netsim

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// WAN fault injection for the distributed-tier tests and examples. A
// Faults controller wraps an http.RoundTripper and applies scripted
// failures per target host:
//
//   - Partition(host): requests fail with a connection-style error, the
//     way a severed WAN path or a crashed daemon looks to the caller;
//   - SetDelay(host, d): requests stall for d first (a slow host);
//   - CrashAfter(host, pathSubstr, n): the nth matching request is
//     delivered, then the host partitions — which is exactly "the
//     daemon crashed between prepare and commit" when pathSubstr is
//     "/dlfm/prepare".
//
// Faults composes with real HTTP stacks (httptest daemons, dlfs.Client)
// so the 2PC fault tests exercise the same wire protocol production
// uses, not mocks.

// PartitionError is the failure surfaced for a partitioned host.
type PartitionError struct{ Host string }

func (e *PartitionError) Error() string {
	return fmt.Sprintf("netsim: host %s is partitioned", e.Host)
}

// crashRule arms a deferred partition.
type crashRule struct {
	pathSubstr string
	remaining  int
}

// Faults is a scriptable fault controller keyed by request host.
type Faults struct {
	mu      sync.Mutex
	blocked map[string]bool
	delay   map[string]time.Duration
	crashes map[string]*crashRule
}

// NewFaults returns a controller with no failures armed.
func NewFaults() *Faults {
	return &Faults{
		blocked: make(map[string]bool),
		delay:   make(map[string]time.Duration),
		crashes: make(map[string]*crashRule),
	}
}

// Partition cuts the host off: every subsequent request errors.
func (f *Faults) Partition(host string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.blocked[host] = true
}

// Heal restores the host and disarms any pending crash rule.
func (f *Faults) Heal(host string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.blocked, host)
	delete(f.crashes, host)
}

// Partitioned reports whether the host is currently cut off.
func (f *Faults) Partitioned(host string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.blocked[host]
}

// SetDelay stalls every request to host by d (0 removes the stall).
func (f *Faults) SetDelay(host string, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if d <= 0 {
		delete(f.delay, host)
		return
	}
	f.delay[host] = d
}

// CrashAfter arms a deferred partition: the host serves the next n
// requests whose URL path contains pathSubstr, then drops off the
// network. CrashAfter(h, "/dlfm/prepare", 1) crashes h between prepare
// and commit of the next transaction that touches it.
func (f *Faults) CrashAfter(host, pathSubstr string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashes[host] = &crashRule{pathSubstr: pathSubstr, remaining: n}
}

// Transport wraps base (nil = http.DefaultTransport) with this
// controller's rules.
func (f *Faults) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &faultTransport{faults: f, base: base}
}

// Client is a convenience: an *http.Client whose transport applies the
// controller's rules.
func (f *Faults) Client(base http.RoundTripper) *http.Client {
	return &http.Client{Transport: f.Transport(base)}
}

type faultTransport struct {
	faults *Faults
	base   http.RoundTripper
}

// RoundTrip applies partition/delay rules before delegating, and arms
// deferred crashes after delivery.
func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	t.faults.mu.Lock()
	if t.faults.blocked[host] {
		t.faults.mu.Unlock()
		return nil, &PartitionError{Host: host}
	}
	delay := t.faults.delay[host]
	t.faults.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	resp, err := t.base.RoundTrip(req)
	t.faults.mu.Lock()
	if rule := t.faults.crashes[host]; rule != nil && strings.Contains(req.URL.Path, rule.pathSubstr) {
		rule.remaining--
		if rule.remaining <= 0 {
			t.faults.blocked[host] = true
			delete(t.faults.crashes, host)
		}
	}
	t.faults.mu.Unlock()
	return resp, err
}
