package netsim

import (
	"fmt"
	"net/http"
	"sync"
)

// WAN fault injection for the distributed example and its tests. A
// Faults controller wraps http.DefaultTransport and cuts target hosts
// off: after Partition(host), requests to it fail with a
// connection-style error, the way a severed WAN path or a crashed
// daemon looks to the caller, until Heal(host).
//
// Faults composes with real HTTP stacks (httptest daemons, dlfs.Client)
// so the 2PC fault paths exercise the same wire protocol production
// uses, not mocks.

// PartitionError is the failure surfaced for a partitioned host.
type PartitionError struct{ Host string }

func (e *PartitionError) Error() string {
	return fmt.Sprintf("netsim: host %s is partitioned", e.Host)
}

// Faults is a scriptable fault controller keyed by request host.
type Faults struct {
	mu      sync.Mutex
	blocked map[string]bool
}

// NewFaults returns a controller with no failures armed.
func NewFaults() *Faults {
	return &Faults{blocked: make(map[string]bool)}
}

// Partition cuts the host off: every subsequent request errors.
func (f *Faults) Partition(host string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.blocked[host] = true
}

// Heal restores the host.
func (f *Faults) Heal(host string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.blocked, host)
}

// Client returns an *http.Client whose requests to a partitioned host
// fail with a PartitionError.
func (f *Faults) Client() *http.Client {
	return &http.Client{Transport: faultTransport{f}}
}

type faultTransport struct{ faults *Faults }

// RoundTrip refuses a partitioned host and delegates everything else.
func (t faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	t.faults.mu.Lock()
	blocked := t.faults.blocked[host]
	t.faults.mu.Unlock()
	if blocked {
		return nil, &PartitionError{Host: host}
	}
	return http.DefaultTransport.RoundTrip(req)
}
