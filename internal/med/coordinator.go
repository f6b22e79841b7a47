package med

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sqltypes"
)

// LinkOpKind distinguishes link from unlink work.
type LinkOpKind uint8

// Link-control operation kinds.
const (
	OpLink LinkOpKind = iota
	OpUnlink
)

// LinkOp is one unit of link-control work shipped to a file server.
type LinkOp struct {
	Kind LinkOpKind
	Path string // file-server-local path
	Opts sqltypes.DatalinkOptions
}

// FileServer is the coordinator's view of one Data Links File Manager
// (the daemon running on each file-server host). internal/dlfs provides
// an in-process implementation and an HTTP client/daemon pair.
type FileServer interface {
	// Host returns the "host[:port]" this manager serves, matching the
	// host component of DATALINK URLs.
	Host() string
	// Prepare validates and reserves an operation inside transaction
	// txID: for OpLink the file must exist and not already be linked;
	// for OpUnlink the file must currently be linked. Prepare must be
	// idempotent per (txID, op).
	Prepare(txID uint64, op LinkOp) error
	// Commit atomically applies every operation prepared under txID.
	// It must be idempotent: committing an unknown txID is a no-op.
	Commit(txID uint64) error
	// Abort discards every operation prepared under txID. Like Commit it
	// must be idempotent (aborting an unknown txID is a no-op), so the
	// coordinator can retry aborts that failed to reach the server. A
	// non-nil error means the server may still hold the staged prepare.
	Abort(txID uint64) error
	// EnsureLinked repairs divergence after a crash between the
	// database commit and the file-manager commit: the file must end up
	// linked with the given options no matter what state it was in.
	EnsureLinked(path string, opts sqltypes.DatalinkOptions) error
}

// Coordinator routes SQL/MED link-control callbacks from the database
// engine to the file managers named in each DATALINK URL. It satisfies
// sqldb.LinkController structurally.
//
// Protocol (the root package doc's durability contract): the engine
// calls PrepareLink/PrepareUnlink while executing statements, then,
// after its WAL records are durable, Commit; Abort on rollback. The
// coordinator fans each call out to the file servers involved in the
// transaction.
type Coordinator struct {
	mu      sync.Mutex
	servers map[string]FileServer // host → manager
	pending map[uint64]*pendingTx
	// failedAborts queues (txID → servers) whose Abort did not get
	// through (e.g. the daemon was unreachable). Until the abort lands,
	// the server holds the staged prepare and its path reservations —
	// files could leak. RetryFailedAborts drains the queue; Reconcile
	// calls it as part of startup repair.
	failedAborts map[uint64]map[string]FileServer
	// started counts the changes that can alter a linked file — a
	// commit that unlinks, a host replaced — and open those not yet
	// finished; LinkGeneration reads them. held counts the open changes
	// of unlinking commits that failed on a host: the host may still
	// apply the unlink, so they stay open until Reconcile.
	started, open, held uint64
}

// pendingTx is one transaction's prepared link work: the servers it
// touches, and whether any of its operations unlinks.
type pendingTx struct {
	servers map[string]FileServer
	unlinks bool
}

// NewCoordinator returns a coordinator with no registered file servers.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		servers:      make(map[string]FileServer),
		pending:      make(map[uint64]*pendingTx),
		failedAborts: make(map[uint64]map[string]FileServer),
	}
}

// LinkGeneration reports the link generation. It is odd exactly while
// a change that can alter a linked file is open — a transaction that
// unlinks is committing on its hosts, or failed to commit on one and
// Reconcile has not run since — and moves on whenever a change starts
// or a host is replaced and whenever the last open change finishes; one
// change on its own moves it on by two. So what a host said about a
// linked, write-blocked file under an even generation still holds while
// the generation is unchanged: only an unlink lets such a file change.
func (c *Coordinator) LinkGeneration() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	gen := 2 * c.started
	if c.open > 0 {
		gen--
	}
	return gen
}

// Register adds (or replaces) the manager for a host. It moves the link
// generation on: a replacing manager may hold other files.
func (c *Coordinator) Register(fs FileServer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.servers[strings.ToLower(fs.Host())] = fs
	c.started++
}

// Server returns the manager for host, if registered.
func (c *Coordinator) Server(host string) (FileServer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fs, ok := c.servers[strings.ToLower(host)]
	return fs, ok
}

// Hosts lists registered hosts, sorted.
func (c *Coordinator) Hosts() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	hosts := make([]string, 0, len(c.servers))
	for h := range c.servers {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

func (c *Coordinator) prepare(txID uint64, url string, kind LinkOpKind, opts sqltypes.DatalinkOptions) error {
	u, err := sqltypes.ParseDatalinkURL(url)
	if err != nil {
		return err
	}
	host := strings.ToLower(u.Host)
	c.mu.Lock()
	fs, ok := c.servers[host]
	if ok {
		p := c.pending[txID]
		if p == nil {
			p = &pendingTx{servers: make(map[string]FileServer)}
			c.pending[txID] = p
		}
		p.servers[host] = fs
		p.unlinks = p.unlinks || kind == OpUnlink
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("med: no file manager registered for host %s", u.Host)
	}
	// Opportunistically drain aborts this host missed: a leaked staged
	// prepare holds its paths reserved, which would reject this new
	// prepare with a reservation conflict. If the server is reachable
	// enough to prepare, it is reachable enough to take the aborts.
	c.retryFailedAbortsForHost(host)
	return fs.Prepare(txID, LinkOp{Kind: kind, Path: u.Path, Opts: opts})
}

// retryFailedAbortsForHost re-sends queued aborts destined for host
// (best-effort; still-failing entries stay queued).
func (c *Coordinator) retryFailedAbortsForHost(host string) {
	type entry struct {
		txID uint64
		fs   FileServer
	}
	c.mu.Lock()
	var retry []entry
	for txID, servers := range c.failedAborts {
		if fs, ok := servers[host]; ok {
			retry = append(retry, entry{txID: txID, fs: fs})
		}
	}
	c.mu.Unlock()
	for _, e := range retry {
		if err := e.fs.Abort(e.txID); err != nil {
			continue // stays queued
		}
		c.dropFailedAbort(e.txID, host)
	}
}

// PrepareLink implements the engine's LinkController contract.
func (c *Coordinator) PrepareLink(txID uint64, url string, opts sqltypes.DatalinkOptions) error {
	return c.prepare(txID, url, OpLink, opts)
}

// PrepareUnlink implements the engine's LinkController contract.
func (c *Coordinator) PrepareUnlink(txID uint64, url string, opts sqltypes.DatalinkOptions) error {
	return c.prepare(txID, url, OpUnlink, opts)
}

// Commit applies the transaction's link work on every involved server.
// A transaction that unlinks holds the link generation odd until every
// server has answered, and past that until Reconcile if one failed.
func (c *Coordinator) Commit(txID uint64) error {
	c.mu.Lock()
	tx := c.pending[txID]
	delete(c.pending, txID)
	if tx != nil && tx.unlinks {
		c.started++
		c.open++
	}
	c.mu.Unlock()
	if tx == nil {
		return nil
	}
	var errs []error
	for _, fs := range tx.servers {
		if err := fs.Commit(txID); err != nil {
			errs = append(errs, fmt.Errorf("host %s: %w", fs.Host(), err))
		}
	}
	if tx.unlinks {
		c.mu.Lock()
		if len(errs) > 0 {
			c.held++
		} else {
			c.open--
		}
		c.mu.Unlock()
	}
	return errors.Join(errs...)
}

// Abort discards the transaction's link work on every involved server.
// Failures are aggregated and returned — a server that missed its abort
// still holds the staged prepare, which would leak files — and the
// (txID, server) pairs are queued for RetryFailedAborts.
func (c *Coordinator) Abort(txID uint64) error {
	c.mu.Lock()
	tx := c.pending[txID]
	delete(c.pending, txID)
	c.mu.Unlock()
	if tx == nil {
		return nil
	}
	var errs []error
	for host, fs := range tx.servers {
		if err := fs.Abort(txID); err != nil {
			errs = append(errs, fmt.Errorf("host %s: abort tx %d: %w", fs.Host(), txID, err))
			c.mu.Lock()
			m := c.failedAborts[txID]
			if m == nil {
				m = make(map[string]FileServer)
				c.failedAborts[txID] = m
			}
			m[host] = fs
			c.mu.Unlock()
		}
	}
	return errors.Join(errs...)
}

// RetryFailedAborts re-sends every queued abort. Entries that succeed
// (Abort is idempotent on the server) are dropped; the rest stay queued
// and their errors are returned. The queue maps are only ever touched
// under the lock — the snapshot taken here is a private slice — so this
// is safe against concurrent per-host retries from prepare.
func (c *Coordinator) RetryFailedAborts() error {
	type entry struct {
		txID uint64
		host string
		fs   FileServer
	}
	c.mu.Lock()
	var queued []entry
	for txID, servers := range c.failedAborts {
		for host, fs := range servers {
			queued = append(queued, entry{txID: txID, host: host, fs: fs})
		}
	}
	c.mu.Unlock()
	var errs []error
	for _, e := range queued {
		if err := e.fs.Abort(e.txID); err != nil {
			errs = append(errs, fmt.Errorf("host %s: abort tx %d: %w", e.fs.Host(), e.txID, err))
			continue
		}
		c.dropFailedAbort(e.txID, e.host)
	}
	return errors.Join(errs...)
}

// dropFailedAbort removes one settled entry from the retry queue.
func (c *Coordinator) dropFailedAbort(txID uint64, host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if servers, ok := c.failedAborts[txID]; ok {
		delete(servers, host)
		if len(servers) == 0 {
			delete(c.failedAborts, txID)
		}
	}
}

// FailedAbortCount reports how many (transaction, server) aborts are
// still queued for retry.
func (c *Coordinator) FailedAbortCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, servers := range c.failedAborts {
		n += len(servers)
	}
	return n
}

// Reconcile repairs file-manager state after recovery: for every
// DATALINK value that the (already recovered) database holds, the
// corresponding file must be linked. The archive core calls this at
// startup with the URLs of all controlled DATALINK columns. Aborts that
// previously failed to reach their server are retried first, so a
// rolled-back prepare cannot keep files reserved across a recovery. A
// Reconcile that succeeds finishes the changes of unlinking commits that
// failed on a host before it began.
func (c *Coordinator) Reconcile(urls []string, opts sqltypes.DatalinkOptions) error {
	c.mu.Lock()
	held := c.held
	c.mu.Unlock()
	var errs []error
	if err := c.RetryFailedAborts(); err != nil {
		errs = append(errs, err)
	}
	for _, url := range urls {
		u, err := sqltypes.ParseDatalinkURL(url)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		fs, ok := c.Server(u.Host)
		if !ok {
			errs = append(errs, fmt.Errorf("med: reconcile %s: no file manager for host %s", url, u.Host))
			continue
		}
		if err := fs.EnsureLinked(u.Path, opts); err != nil {
			errs = append(errs, fmt.Errorf("med: reconcile %s: %w", url, err))
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	c.mu.Lock()
	c.held -= held
	c.open -= held
	c.mu.Unlock()
	return nil
}
