package cluster

import (
	"context"
	"io"
	"time"

	"repro/internal/dlfs"
	"repro/internal/med"
	"repro/internal/sqltypes"
)

// Node is the replica set's view of one physical file-server process:
// the SQL/MED participant protocol plus file, registry and liveness
// access. An in-process dlfs.Manager satisfies it through
// NewManagerNode; a remote daemon through NewClientNode.
type Node interface {
	med.FileServer
	Put(path string, r io.Reader) (int64, error)
	Open(path, token string) (io.ReadCloser, dlfs.FileInfo, error)
	Stat(path string) (dlfs.FileInfo, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	LinkStates() ([]dlfs.LinkState, error)
	Ping() error
}

// ContextNode is an optional Node capability: a node that can rebind
// its RPCs to a caller's context, so a fan-out's attempts are aborted
// the moment the request that asked for them gives up. Remote client
// nodes implement it; in-process managers (no wire, nothing to cancel)
// do not.
type ContextNode interface {
	WithContext(ctx context.Context) Node
}

// managerNode adapts an in-process manager. Only LinkStates needs a
// shim (the local registry read cannot fail).
type managerNode struct{ *dlfs.Manager }

func (n managerNode) LinkStates() ([]dlfs.LinkState, error) { return n.Manager.LinkStates(), nil }

// NewManagerNode wraps an in-process manager as a cluster node.
func NewManagerNode(m *dlfs.Manager) Node { return managerNode{m} }

// clientNode adapts a remote daemon client.
type clientNode struct{ c *dlfs.Client }

// NewClientNode wraps a remote daemon client as a cluster node.
func NewClientNode(c *dlfs.Client) Node { return clientNode{c} }

func (n clientNode) Host() string                           { return n.c.Host() }
func (n clientNode) Prepare(tx uint64, op med.LinkOp) error { return n.c.Prepare(tx, op) }
func (n clientNode) Commit(tx uint64) error                 { return n.c.Commit(tx) }
func (n clientNode) Abort(tx uint64) error                  { return n.c.Abort(tx) }
func (n clientNode) EnsureLinked(path string, opts sqltypes.DatalinkOptions) error {
	return n.c.EnsureLinked(path, opts)
}

func (n clientNode) Put(path string, r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	if err := n.c.Put(path, cr); err != nil {
		return 0, err
	}
	return cr.n, nil
}

func (n clientNode) Open(path, token string) (io.ReadCloser, dlfs.FileInfo, error) {
	return n.c.OpenStat(path, token)
}

func (n clientNode) Stat(path string) (dlfs.FileInfo, error) { return n.c.Stat(path) }
func (n clientNode) Rename(oldPath, newPath string) error    { return n.c.Rename(oldPath, newPath) }
func (n clientNode) Remove(path string) error                { return n.c.Remove(path) }
func (n clientNode) LinkStates() ([]dlfs.LinkState, error)   { return n.c.LinkStates() }
func (n clientNode) Ping() error                             { return n.c.Ping() }

// SetRPCTimeout forwards the tier's per-attempt deadline to the client
// (applied by ReplicaSet.Add before the node is routed to).
func (n clientNode) SetRPCTimeout(d time.Duration) { n.c.SetRPCTimeout(d) }

// SetRetry forwards the tier's idempotent-retry policy to the client.
func (n clientNode) SetRetry(extra int, base time.Duration) { n.c.SetRetry(extra, base) }

// WithContext implements ContextNode: a view of this node whose RPCs
// are bounded by ctx.
func (n clientNode) WithContext(ctx context.Context) Node { return clientNode{n.c.WithContext(ctx)} }

// countingReader counts bytes as the upload streams them, since the
// wire protocol does not echo the stored size back.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}
