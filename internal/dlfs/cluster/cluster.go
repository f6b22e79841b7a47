// Package cluster is the replicated DATALINK file-server tier. A
// ReplicaSet groups several Data Links File Managers behind one logical
// DATALINK host: each file is placed on ReplicationFactor members by
// rendezvous hashing, link-control 2PC fans out to the placed replicas,
// reads fail over to the first healthy replica (token checks intact),
// and an anti-entropy pass re-replicates whatever a crashed or
// partitioned member missed once it rejoins.
//
// The set drops into the existing architecture unchanged: it implements
// med.FileServer and med.BackupParticipant (so med.Coordinator drives
// it like a single manager), dlfs.Backend (so cmd/dlfsd can serve it as
// a replication gateway), and core.FileHost's file methods (so the
// archive attaches it like any host).
//
// Consistency model: availability first, bounded divergence after.
// Writes apply to every placed replica that is reachable; a down
// replica never blocks a link or a read (the paper's availability goal
// for distributed scientific archives). Divergence created while a
// replica is unreachable is recorded (the dirty set) and repaired by
// Repair — last writer wins on rejoin, with the database's Reconcile
// remaining the final authority after a coordinator crash.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dlfs"
	"repro/internal/iofault"
	"repro/internal/med"
	"repro/internal/sqltypes"
	"repro/internal/telemetry"
)

// Tier errors.
var (
	ErrNoReplica      = errors.New("cluster: no healthy replica available")
	ErrUnknownMember  = errors.New("cluster: unknown member")
	ErrDuplicateHost  = errors.New("cluster: member host already registered")
	ErrNoTokenMinting = errors.New("cluster: no token authority configured for replicating READ PERMISSION DB files")
)

// Config shapes a ReplicaSet.
type Config struct {
	// Host is the logical host[:port] appearing in DATALINK URLs served
	// by this set.
	Host string
	// ReplicationFactor is how many members hold each file; 0 selects
	// the default of 2. Capped at the member count.
	ReplicationFactor int
	// FailureThreshold is how many consecutive probe/transport failures
	// trip a member's circuit breaker; 0 selects 3.
	FailureThreshold int
	// ProbeInterval paces the background health checker and anti-entropy
	// loop started by Start; 0 selects 2s.
	ProbeInterval time.Duration
	// RPCTimeout bounds each RPC attempt against a remote member; 0
	// leaves attempts unbounded. Applied to capable nodes (remote
	// clients) as they are registered with Add — a hung member then
	// surfaces as a transport failure feeding its breaker instead of
	// stalling a fan-out indefinitely.
	RPCTimeout time.Duration
	// RetryAttempts allows that many extra attempts (jittered
	// exponential backoff, RetryBackoff base) for idempotent RPCs
	// against remote members. 0 disables retries, keeping every fault
	// visible to the breaker exactly once.
	RetryAttempts int
	// RetryBackoff is the base backoff between retry attempts; 0
	// selects the client default (50ms).
	RetryBackoff time.Duration
	// Tokens mints internal access tokens so replication reads can copy
	// READ PERMISSION DB files between members. It must share the secret
	// with the members' validators. Without it, repairing such files
	// fails with ErrNoTokenMinting.
	Tokens *med.TokenAuthority
	// StatePath, when set, checkpoints the tier's repair state (the
	// dirty set and queued commit retries) to this file, so removal
	// tombstones and pending repairs survive a gateway restart. Call
	// LoadState after registering members to restore it. Empty keeps
	// the state memory-only.
	StatePath string
	// SpoolDir is where fan-out writes and repair copies spool their
	// payload for per-replica replay. Empty selects the OS temp dir —
	// which on many Linux hosts is RAM-backed tmpfs, so gateways moving
	// multi-GB datasets should point this at a real disk.
	SpoolDir string
	// FS is the filesystem the repair-state checkpoint goes through;
	// nil selects the real disk. Tests inject an iofault controller.
	FS iofault.FS
	// Metrics is the telemetry registry the tier's counters register
	// into, letting a daemon share one /metrics endpoint across
	// subsystems. Nil creates a private registry (reachable via
	// ReplicaSet.Metrics).
	Metrics *telemetry.Registry
}

// DefaultReplicationFactor is used when Config leaves it zero.
const DefaultReplicationFactor = 2

// member is one registered file server plus its health bookkeeping
// (all fields beyond name/node are guarded by ReplicaSet.mu).
type member struct {
	name string
	node Node

	down  bool // circuit open: skipped by routing until it closes
	held  bool // MarkDown was manual; probes must not flip it up
	fails int  // consecutive failures toward FailureThreshold
}

// dirtyState records the desired state of a path that could not be
// applied to every placed replica (a member was down or unreachable).
// wantLinked nil with syncContent set means the newest file content
// must be re-replicated (a partial Put); remove tombstones a deletion
// so a rejoined member cannot resurrect the file.
type dirtyState struct {
	wantLinked  *bool
	opts        sqltypes.DatalinkOptions
	syncContent bool
	remove      bool
	// gen is bumped on every (re-)mark, so Repair's compare-and-delete
	// can tell a concurrent re-mark from the entry it snapshotted even
	// when the semantic fields come out identical.
	gen uint64
}

// txWork accumulates one transaction's prepares across calls.
type txWork struct {
	ops      []med.LinkOp
	prepared map[string]*member // members that accepted at least one prepare
	partial  bool               // some placed replica missed a prepare
}

// Stats counts tier events (observability and tests). It is a view
// over the tier's telemetry counters — see ReplicaSet.Metrics for the
// full registry including histograms and repair totals.
type Stats struct {
	Failovers      int // reads served by a non-first replica
	PartialCommits int // commits that missed at least one replica
	PartialWrites  int // puts/links that missed at least one replica
	// StateCheckpointFailures counts repair-state checkpoints that did
	// not reach disk. The in-memory state stays correct and the next
	// mutation retries, but each count is a window where a gateway
	// restart would forget tombstones and pending repairs — worth an
	// operator's attention, not a silent discard.
	StateCheckpointFailures int
}

// ReplicaSet is the replicated tier for one logical DATALINK host.
type ReplicaSet struct {
	cfg Config

	mu       sync.Mutex
	members  map[string]*member
	order    []string // sorted member names, for deterministic iteration
	pending  map[uint64]*txWork
	dirty    map[string]dirtyState
	dirtyGen uint64
	// retryCommits queues (txID → members) whose Commit did not get
	// through: the member still holds the staged transaction and its
	// path reservations. Repair drains it (Commit is idempotent).
	retryCommits map[uint64]map[string]*member
	met          clusterMetrics

	repairTx uint64 // synthetic tx ids for repair-time unlinks

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// New creates an empty replica set; register members with Add.
func New(cfg Config) *ReplicaSet {
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = DefaultReplicationFactor
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 3
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.FS == nil {
		cfg.FS = iofault.Disk{}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.New()
	}
	return &ReplicaSet{
		cfg:          cfg,
		met:          newClusterMetrics(reg),
		members:      make(map[string]*member),
		pending:      make(map[uint64]*txWork),
		dirty:        make(map[string]dirtyState),
		retryCommits: make(map[uint64]map[string]*member),
		// High bit set: repair unlinks run a private 2PC against single
		// members and must never collide with engine transaction ids.
		repairTx: 1 << 63,
	}
}

// Add registers a member file server. Registering a replacement for a
// failed host is how capacity is restored: the next Repair copies every
// placed file onto it.
func (rs *ReplicaSet) Add(n Node) error {
	name := strings.ToLower(n.Host())
	// Apply the tier's RPC governance to nodes that support it (remote
	// clients do; in-process managers have no wire to govern).
	if rs.cfg.RPCTimeout > 0 {
		if tn, ok := n.(interface{ SetRPCTimeout(time.Duration) }); ok {
			tn.SetRPCTimeout(rs.cfg.RPCTimeout)
		}
	}
	if rs.cfg.RetryAttempts > 0 {
		if rn, ok := n.(interface{ SetRetry(int, time.Duration) }); ok {
			rn.SetRetry(rs.cfg.RetryAttempts, rs.cfg.RetryBackoff)
		}
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, dup := rs.members[name]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateHost, name)
	}
	rs.members[name] = &member{name: name, node: n}
	rs.order = append(rs.order, name)
	sort.Strings(rs.order)
	return nil
}

// Host implements med.FileServer: the logical host the set serves.
func (rs *ReplicaSet) Host() string { return rs.cfg.Host }

// Members lists registered member hosts, sorted.
func (rs *ReplicaSet) Members() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]string(nil), rs.order...)
}

// Replicas reports which members hold path, in placement (failover)
// order — the first entry is the path's primary.
func (rs *ReplicaSet) Replicas(path string) []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	placed := rs.placedLocked(path)
	out := make([]string, len(placed))
	for i, m := range placed {
		out[i] = m.name
	}
	return out
}

// Stats returns a snapshot of the tier counters.
func (rs *ReplicaSet) Stats() Stats {
	return Stats{
		Failovers:               int(rs.met.failovers.Value()),
		PartialCommits:          int(rs.met.partialCommits.Value()),
		PartialWrites:           int(rs.met.partialWrites.Value()),
		StateCheckpointFailures: int(rs.met.stateCkptFails.Value()),
	}
}

// UnderReplicated lists the paths currently known to be missing a
// replica (the dirty set), sorted.
func (rs *ReplicaSet) UnderReplicated() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]string, 0, len(rs.dirty))
	for p := range rs.dirty {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// placedLocked returns the members holding path, in placement order.
func (rs *ReplicaSet) placedLocked(path string) []*member {
	rf := rs.cfg.ReplicationFactor
	ranked := rankMembers(rs.order, path)
	if rf > len(ranked) {
		rf = len(ranked)
	}
	out := make([]*member, 0, rf)
	for _, name := range ranked[:rf] {
		out = append(out, rs.members[name])
	}
	return out
}

// upMembers snapshots the reachable members in sorted order.
func (rs *ReplicaSet) upMembers() []*member {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]*member, 0, len(rs.order))
	for _, name := range rs.order {
		if m := rs.members[name]; !m.down {
			out = append(out, m)
		}
	}
	return out
}

// allMembers snapshots every member in sorted order.
func (rs *ReplicaSet) allMembers() []*member {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]*member, 0, len(rs.order))
	for _, name := range rs.order {
		out = append(out, rs.members[name])
	}
	return out
}

// routeSnapshot splits the placed replicas of path into healthy (in
// placement order) and down, under one lock acquisition.
func (rs *ReplicaSet) routeSnapshot(path string) (up, down []*member) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, m := range rs.placedLocked(path) {
		if m.down {
			down = append(down, m)
		} else {
			up = append(up, m)
		}
	}
	return up, down
}

// markDirtyLocked merges desired state for repair into the path's
// dirty entry. Merging, not replacing, matters: a partial Put must not
// erase a pending unlink tombstone recorded earlier (Repair would then
// trust the rejoining replica's stale registry and resurrect the
// link), and a partial link commit must not drop a pending content
// sync. A removal supersedes earlier content/link work but keeps a
// pending unlink verdict — a rejoined member still holding the stale
// link must be unlinked before its copy can be deleted — and any later
// write clears a pending removal (the file exists again).
func (rs *ReplicaSet) markDirtyLocked(path string, d dirtyState) {
	// Checkpoint on every mark, whatever the merge path below: call
	// sites must not be able to forget it (a lost tombstone is exactly
	// the failure the checkpoint exists to prevent).
	defer rs.saveStateLocked()
	rs.dirtyGen++
	d.gen = rs.dirtyGen
	cur, ok := rs.dirty[path]
	if !ok {
		rs.dirty[path] = d
		return
	}
	if d.remove {
		if cur.wantLinked != nil && !*cur.wantLinked {
			d.wantLinked = cur.wantLinked
			d.opts = cur.opts
		}
		rs.dirty[path] = d
		return
	}
	merged := dirtyState{
		wantLinked:  cur.wantLinked,
		opts:        cur.opts,
		syncContent: cur.syncContent || d.syncContent,
		gen:         d.gen,
	}
	if d.wantLinked != nil {
		merged.wantLinked = d.wantLinked
		merged.opts = d.opts
	}
	rs.dirty[path] = merged
}

func boolPtr(b bool) *bool { return &b }

// dirtyGenOf snapshots the generation of path's dirty entry (0 when
// absent). Fan-outs take it before touching any replica, so settleDirty
// can tell the entry they saw from one a concurrent writer re-marked.
func (rs *ReplicaSet) dirtyGenOf(path string) uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.dirty[path].gen
}

// dirtyStillCurrent reports whether path's dirty entry still carries the
// generation a Repair pass snapshotted. Repair re-checks this just
// before every destructive step (a remove or unlink driven by the dirty
// set): a concurrent fully-successful write settles the entry, and a
// pass that already snapshotted the stale verdict must notice and stand
// down instead of deleting data the write just acknowledged.
func (rs *ReplicaSet) dirtyStillCurrent(path string, gen uint64) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	cur, ok := rs.dirty[path]
	return ok && cur.gen == gen
}

// settled enumerates what a fully-successful fan-out decided for a path
// on every placed replica.
type settled struct {
	link    bool // the link/remove verdict was applied everywhere placed
	content bool // the bytes were rewritten everywhere placed
}

// settleDirty clears the parts of path's dirty entry that a fully-
// successful fan-out has just superseded. Without this, Repair would
// later apply a stale verdict: a removal tombstone queued while a
// member was down would delete the file a newer fully-replicated Put
// recreated, and a pending unlink would tear down a link the engine
// has since fully re-committed — both violating last-writer-wins.
// snapGen is the entry's generation observed before the fan-out began;
// a newer generation means a concurrent partial write re-marked the
// path mid-flight, and that record must survive untouched.
func (rs *ReplicaSet) settleDirty(path string, snapGen uint64, s settled) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	cur, ok := rs.dirty[path]
	if !ok || cur.gen != snapGen {
		return
	}
	if s.link {
		cur.wantLinked = nil
		cur.opts = sqltypes.DatalinkOptions{}
		cur.remove = false
	}
	if s.content {
		cur.syncContent = false
		cur.remove = false
	}
	if cur.wantLinked == nil && !cur.syncContent && !cur.remove {
		delete(rs.dirty, path)
	} else {
		rs.dirty[path] = cur
	}
	rs.saveStateLocked()
}

// ---------- two-phase link control (med.FileServer) ----------

// Prepare fans the operation out to every healthy placed replica.
//
// Replica-disagreement policy: a validation error every replica would
// agree on (already linked, reserved by another transaction, bad path)
// fails the prepare. A minority replica missing the file (OpLink
// ErrNotFound) or missing the link (OpUnlink ErrNotLinked) is exactly
// the divergence anti-entropy exists to fix, so the prepare proceeds on
// the replicas that can take it and the path is queued for repair.
func (rs *ReplicaSet) Prepare(txID uint64, op med.LinkOp) error {
	up, downPlaced := rs.routeSnapshot(op.Path)
	if len(up) == 0 {
		return fmt.Errorf("%w: prepare %s", ErrNoReplica, op.Path)
	}
	var (
		acceptedBy []*member
		repairable []error // minority divergence, tolerated
		errs       []error
	)
	for _, m := range up {
		err := m.node.Prepare(txID, op)
		switch {
		case err == nil:
			rs.noteSuccess(m)
			acceptedBy = append(acceptedBy, m)
		case op.Kind == med.OpLink && errors.Is(err, dlfs.ErrNotFound),
			op.Kind == med.OpUnlink && errors.Is(err, dlfs.ErrNotLinked):
			repairable = append(repairable, fmt.Errorf("replica %s: %w", m.name, err))
		case isDomainErr(err):
			// Definitive refusal: undo this op on the replicas that took
			// it (idempotent; the engine will also Abort the whole tx).
			errs = append(errs, fmt.Errorf("replica %s: %w", m.name, err))
		default:
			rs.noteFailure(m)
			repairable = append(repairable, fmt.Errorf("replica %s: %w", m.name, err))
		}
		if len(errs) > 0 {
			break
		}
	}
	// Record every replica that accepted a prepare — even when the
	// overall prepare fails — so the transaction's Abort reaches them
	// and releases their reservations.
	rs.mu.Lock()
	w := rs.pending[txID]
	if w == nil {
		w = &txWork{prepared: make(map[string]*member)}
		rs.pending[txID] = w
	}
	for _, m := range acceptedBy {
		w.prepared[m.name] = m
	}
	if len(errs) == 0 && len(acceptedBy) > 0 {
		w.ops = append(w.ops, op)
		if len(downPlaced) > 0 || len(repairable) > 0 {
			w.partial = true
		}
	}
	rs.mu.Unlock()
	if len(errs) > 0 || len(acceptedBy) == 0 {
		errs = append(errs, repairable...)
		return fmt.Errorf("cluster: prepare %s: %w", op.Path, errors.Join(errs...))
	}
	return nil
}

// Commit applies the transaction on every replica that prepared it. The
// logical commit succeeds if ANY replica commits — the database is
// already durable by the time the coordinator calls this, so a replica
// that crashed between prepare and commit must not fail the
// transaction; its divergence is queued for anti-entropy instead.
func (rs *ReplicaSet) Commit(txID uint64) error {
	rs.mu.Lock()
	w := rs.pending[txID]
	delete(rs.pending, txID)
	var snapGens map[string]uint64
	if w != nil {
		snapGens = make(map[string]uint64, len(w.ops))
		for _, op := range w.ops {
			snapGens[op.Path] = rs.dirty[op.Path].gen
		}
	}
	rs.mu.Unlock()
	if w == nil {
		return nil // idempotence, like a single manager
	}
	var errs []error
	missed := make(map[string]*member)
	committed := 0
	for _, name := range sortedKeys(w.prepared) {
		m := w.prepared[name]
		if err := m.node.Commit(txID); err != nil {
			rs.noteFailure(m)
			missed[name] = m
			errs = append(errs, fmt.Errorf("replica %s: %w", m.name, err))
			continue
		}
		rs.noteSuccess(m)
		committed++
	}
	if committed == 0 && len(w.prepared) > 0 {
		// Nothing applied anywhere. The database is already durable, so
		// the work cannot be dropped: queue the commit for Repair to
		// drain (Commit is idempotent on the replicas) and record the
		// desired link state so the scan converges the stores even if a
		// replica crash-restarted and lost the staged transaction.
		rs.mu.Lock()
		rs.retryCommits[txID] = missed
		for _, op := range w.ops {
			rs.markDirtyLocked(op.Path, dirtyState{wantLinked: boolPtr(op.Kind == med.OpLink), opts: op.Opts})
		}
		rs.met.partialCommits.Inc()
		rs.saveStateLocked()
		rs.mu.Unlock()
		return fmt.Errorf("cluster: commit tx %d reached no replica: %w", txID, errors.Join(errs...))
	}
	if w.partial || len(errs) > 0 {
		rs.mu.Lock()
		for _, op := range w.ops {
			rs.markDirtyLocked(op.Path, dirtyState{wantLinked: boolPtr(op.Kind == med.OpLink), opts: op.Opts})
		}
		// A replica that missed the commit still holds the staged
		// transaction and its reservations; queue the commit for Repair
		// to drain once the replica is reachable.
		if len(missed) > 0 {
			rs.retryCommits[txID] = missed
		}
		rs.met.partialCommits.Inc()
		rs.saveStateLocked()
		rs.mu.Unlock()
	} else {
		// Every placed replica committed: the transaction's verdict is
		// the path's true state everywhere, so any stale dirty entry (a
		// removal tombstone, a pending unlink from an earlier partial
		// pass) is superseded and must not be applied by a later Repair.
		for _, op := range w.ops {
			rs.settleDirty(op.Path, snapGens[op.Path], settled{link: true})
		}
	}
	return nil
}

// Abort discards the transaction on every replica that prepared it.
// Failures are surfaced — the coordinator queues them for retry so a
// staged prepare cannot leak files on a replica that missed the abort.
func (rs *ReplicaSet) Abort(txID uint64) error {
	// Snapshot the prepared members under the lock: the engine
	// serializes per-transaction calls, but in gateway mode a retried
	// abort can race a prepare for the same transaction, and iterating
	// w.prepared while Prepare mutates it is a map race. Taking the
	// snapshot OUT of pending (ownership transfer) matters too: a
	// concurrent Prepare that re-stages on one of these members then
	// creates its own surviving record instead of being wiped by this
	// abort's cleanup, so a later retry still reaches it.
	rs.mu.Lock()
	w := rs.pending[txID]
	var snap []*member
	if w != nil {
		for _, name := range sortedKeys(w.prepared) {
			snap = append(snap, w.prepared[name])
			delete(w.prepared, name)
		}
	}
	rs.mu.Unlock()
	if w == nil {
		return nil
	}
	var errs []error
	failed := make(map[string]bool, len(snap))
	for _, m := range snap {
		if err := m.node.Abort(txID); err != nil {
			rs.noteFailure(m)
			failed[m.name] = true
			errs = append(errs, fmt.Errorf("replica %s: abort tx %d: %w", m.name, txID, err))
		} else {
			rs.noteSuccess(m)
		}
	}
	// Members whose abort failed keep the staged prepare and its path
	// reservations: put them back so a retried Abort — the coordinator
	// queues one — reaches them. Merge into whatever pending holds NOW
	// (a concurrent Prepare or duplicated abort may have replaced or
	// dropped the entry this call snapshotted from).
	rs.mu.Lock()
	cur := rs.pending[txID]
	if len(failed) > 0 {
		if cur == nil {
			cur = &txWork{prepared: make(map[string]*member)}
			rs.pending[txID] = cur
		}
		for _, m := range snap {
			if failed[m.name] {
				if _, exists := cur.prepared[m.name]; !exists {
					cur.prepared[m.name] = m
				}
			}
		}
	} else if cur == w && len(cur.prepared) == 0 {
		delete(rs.pending, txID)
	}
	rs.mu.Unlock()
	return errors.Join(errs...)
}

// EnsureLinked forces path into the linked state on every reachable
// placed replica (crash reconciliation). A replica missing the file is
// healed in place by copying from a holder; replicas that stay
// unreachable are queued for repair. It succeeds if at least one
// replica holds the link afterwards.
func (rs *ReplicaSet) EnsureLinked(path string, opts sqltypes.DatalinkOptions) error {
	up, downPlaced := rs.routeSnapshot(path)
	if len(up) == 0 {
		return fmt.Errorf("%w: ensure %s", ErrNoReplica, path)
	}
	snapGen := rs.dirtyGenOf(path)
	var errs []error
	ensured := 0
	for _, m := range up {
		err := m.node.EnsureLinked(path, opts)
		if errors.Is(err, dlfs.ErrNotFound) {
			// The replica lost the file: re-replicate, then link.
			if cerr := rs.copyTo(m, path, opts); cerr != nil {
				errs = append(errs, fmt.Errorf("replica %s: %w", m.name, errors.Join(err, cerr)))
				continue
			}
			err = m.node.EnsureLinked(path, opts)
		}
		if err != nil {
			if !isDomainErr(err) {
				rs.noteFailure(m)
			}
			errs = append(errs, fmt.Errorf("replica %s: %w", m.name, err))
			continue
		}
		rs.noteSuccess(m)
		ensured++
	}
	if ensured == 0 {
		return fmt.Errorf("cluster: ensure %s: %w", path, errors.Join(errs...))
	}
	if len(errs) > 0 || len(downPlaced) > 0 {
		rs.mu.Lock()
		rs.markDirtyLocked(path, dirtyState{wantLinked: boolPtr(true), opts: opts})
		rs.met.partialWrites.Inc()
		rs.mu.Unlock()
	} else {
		// Every placed replica holds the link: supersede any stale
		// tombstone or unlink verdict lingering from a partial pass.
		rs.settleDirty(path, snapGen, settled{link: true})
	}
	return nil
}

// ---------- file operations (dlfs.Backend / core.FileHost) ----------

// Put stores the file on every healthy placed replica ("fan-out
// write"). It succeeds when at least one replica stored the content;
// replicas that were down or unreachable are queued for repair. A
// refusal every replica would agree on (WRITE PERMISSION BLOCKED, a
// link-control reservation, a bad path) fails the write outright.
func (rs *ReplicaSet) Put(path string, r io.Reader) (int64, error) {
	start := time.Now()
	up, downPlaced := rs.routeSnapshot(path)
	if len(up) == 0 {
		return 0, fmt.Errorf("%w: put %s", ErrNoReplica, path)
	}
	snapGen := rs.dirtyGenOf(path)
	// Pre-flight: a WRITE PERMISSION BLOCKED refusal must surface
	// before ANY replica is mutated — discovering it mid-fan-out would
	// leave the replicas that already accepted holding rejected bytes.
	for _, m := range up {
		fi, err := m.node.Stat(path)
		if err == nil && fi.Linked && fi.Opts.WritePerm == sqltypes.WriteBlocked {
			return 0, fmt.Errorf("cluster: put %s: replica %s: %w", path, m.name, dlfs.ErrWriteBlocked)
		}
	}
	// Fan-out needs a rewindable source; spool it to a temp file rather
	// than memory — the daemon is sized for multi-GB dataset transfers,
	// and a few concurrent fan-outs must not exhaust RAM.
	sp, err := newSpool(rs.cfg.SpoolDir, r)
	if err != nil {
		return 0, err
	}
	defer sp.Close()
	var errs []error
	stored := 0
	for _, m := range up {
		_, err := m.node.Put(path, sp.reader())
		switch {
		case err == nil:
			rs.noteSuccess(m)
			stored++
		case isDomainErr(err):
			// A refusal that raced past the pre-flight (a concurrent
			// link or reservation). Replicas written before it now hold
			// bytes the caller is told were rejected: record the
			// divergence so anti-entropy converges the content.
			if stored > 0 {
				rs.mu.Lock()
				rs.markDirtyLocked(path, dirtyState{syncContent: true})
				rs.mu.Unlock()
			}
			return 0, fmt.Errorf("cluster: put %s: replica %s: %w", path, m.name, err)
		default:
			rs.noteFailure(m)
			errs = append(errs, fmt.Errorf("replica %s: %w", m.name, err))
		}
	}
	if stored == 0 {
		return 0, fmt.Errorf("cluster: put %s: %w", path, errors.Join(errs...))
	}
	if len(errs) > 0 || len(downPlaced) > 0 {
		rs.mu.Lock()
		rs.markDirtyLocked(path, dirtyState{syncContent: true})
		rs.met.partialWrites.Inc()
		rs.mu.Unlock()
	} else {
		// Every placed replica holds the new bytes: the file exists
		// again, superseding any removal tombstone or content-sync
		// verdict a Repair pass might otherwise apply on top of it.
		rs.settleDirty(path, snapGen, settled{content: true})
	}
	rs.met.putNs.ObserveSince(start)
	return sp.size, nil
}

// spool buffers an upload in a temp file so a fan-out can replay it
// once per replica without holding the whole payload in memory. dir ""
// selects the OS temp dir (see Config.SpoolDir for the tmpfs caveat).
type spool struct {
	f    *os.File
	size int64
}

func newSpool(dir string, r io.Reader) (*spool, error) {
	f, err := os.CreateTemp(dir, "dlfs-fanout-*")
	if err != nil {
		return nil, err
	}
	sp := &spool{f: f}
	if sp.size, err = io.Copy(f, r); err != nil {
		sp.Close()
		return nil, err
	}
	return sp, nil
}

// reader returns a fresh reader over the spooled bytes.
func (sp *spool) reader() io.Reader { return io.NewSectionReader(sp.f, 0, sp.size) }

func (sp *spool) Close() error {
	name := sp.f.Name()
	err := sp.f.Close()
	os.Remove(name)
	return err
}

// Open reads path with replica failover: placed replicas are tried in
// placement order (then any other member as a last resort, in case a
// membership change left a stray copy), skipping members whose circuit
// breaker is open. Token enforcement is preserved: an access-control
// verdict (missing/expired/tampered token) is returned immediately —
// every replica validates with the same authority, so failing over
// would only mask the refusal.
func (rs *ReplicaSet) Open(path, token string) (io.ReadCloser, dlfs.FileInfo, error) {
	return rs.OpenContext(context.Background(), path, token)
}

// OpenContext is Open bounded by the caller's context: the failover
// scan stops trying further replicas once ctx ends, and each attempt
// against a context-capable node (a remote client) inherits ctx — its
// cancellation aborts the in-flight RPC and any backoff wait.
func (rs *ReplicaSet) OpenContext(ctx context.Context, path, token string) (io.ReadCloser, dlfs.FileInfo, error) {
	var (
		rc  io.ReadCloser
		fi  dlfs.FileInfo
		err error
	)
	err = rs.eachReplica(ctx, path, func(m *member, n Node) error {
		var e error
		rc, fi, e = n.Open(path, token)
		return e
	})
	return rc, fi, err
}

// Stat describes path, with the same failover as Open.
func (rs *ReplicaSet) Stat(path string) (dlfs.FileInfo, error) {
	return rs.StatContext(context.Background(), path)
}

// StatContext is Stat bounded by the caller's context (see OpenContext).
func (rs *ReplicaSet) StatContext(ctx context.Context, path string) (dlfs.FileInfo, error) {
	var fi dlfs.FileInfo
	err := rs.eachReplica(ctx, path, func(m *member, n Node) error {
		var e error
		fi, e = n.Stat(path)
		return e
	})
	return fi, err
}

// eachReplica runs f against replicas of path until one succeeds:
// healthy placed replicas in placement order, then the remaining
// members (down or non-placed) as a last resort. Access-control errors
// abort the scan immediately, and so does the caller's deadline — a
// fan-out must not outlive the request that asked for it. f receives
// the member (for breaker bookkeeping by callers that need it) and the
// node to call, rebound to ctx when the node supports it.
func (rs *ReplicaSet) eachReplica(ctx context.Context, path string, f func(*member, Node) error) error {
	rs.mu.Lock()
	placed := rs.placedLocked(path)
	inPlaced := make(map[string]bool, len(placed))
	var tryOrder []*member
	for _, m := range placed {
		inPlaced[m.name] = true
		if !m.down {
			tryOrder = append(tryOrder, m)
		}
	}
	// Last-resort passes: down placed replicas (they may have recovered
	// since the last probe), then everything else that might hold a
	// stray copy from before a membership change.
	for _, m := range placed {
		if m.down {
			tryOrder = append(tryOrder, m)
		}
	}
	for _, name := range rs.order {
		if !inPlaced[name] {
			tryOrder = append(tryOrder, rs.members[name])
		}
	}
	rs.mu.Unlock()
	if len(tryOrder) == 0 || len(placed) == 0 {
		return fmt.Errorf("%w: %s", ErrNoReplica, path)
	}
	primary := placed[0]
	var errs []error
	for _, m := range tryOrder {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		node := m.node
		if cn, ok := node.(ContextNode); ok {
			node = cn.WithContext(ctx)
		}
		err := f(m, node)
		if err == nil {
			rs.noteSuccess(m)
			if m != primary {
				rs.met.failovers.Inc()
			}
			return nil
		}
		if isAuthErr(err) {
			return err
		}
		if !isDomainErr(err) {
			rs.noteFailure(m)
		}
		errs = append(errs, fmt.Errorf("replica %s: %w", m.name, err))
	}
	return fmt.Errorf("cluster: %s: all replicas failed: %w", path, errors.Join(errs...))
}

// Rename moves an unlinked file within the set. Placement follows the
// path, so the content is re-placed: read, write to the new path's
// replicas, remove the old copies. Linked files are refused, exactly
// like a single store.
func (rs *ReplicaSet) Rename(oldPath, newPath string) error {
	fi, err := rs.Stat(oldPath)
	if err != nil {
		return err
	}
	if fi.Linked {
		return fmt.Errorf("%w: rename %s", dlfs.ErrLinked, oldPath)
	}
	var rc io.ReadCloser
	if err := rs.eachReplica(context.Background(), oldPath, func(m *member, n Node) error {
		var e error
		rc, _, e = n.Open(oldPath, "")
		return e
	}); err != nil {
		return err
	}
	defer rc.Close()
	if _, err := rs.Put(newPath, rc); err != nil {
		return err
	}
	return rs.Remove(oldPath)
}

// Remove deletes a file from every member holding it (placed or stray);
// refused while linked anywhere. Members that are down or unreachable
// are tolerated when at least one copy was removed: the deletion is
// tombstoned in the dirty set so Repair finishes it once the member
// rejoins — otherwise a rejoining member would resurrect the file
// through the read fallback.
func (rs *ReplicaSet) Remove(path string) error {
	snapGen := rs.dirtyGenOf(path)
	var errs []error
	removed, skipped := 0, 0
	for _, m := range rs.allMembers() {
		rs.mu.Lock()
		isDown := m.down
		rs.mu.Unlock()
		if isDown {
			skipped++
			continue
		}
		err := m.node.Remove(path)
		switch {
		case err == nil:
			rs.noteSuccess(m)
			removed++
		case errors.Is(err, dlfs.ErrNotFound):
			// This member never held it.
		case errors.Is(err, dlfs.ErrLinked):
			// A replica still holds the link (divergent link state).
			// Copies deleted from earlier members in this fan-out now
			// under-replicate a linked file: record a content sync so
			// Repair restores them from the linked holder (the union
			// scan supplies the desired-linked verdict).
			if removed > 0 {
				rs.mu.Lock()
				rs.markDirtyLocked(path, dirtyState{syncContent: true})
				rs.mu.Unlock()
			}
			return fmt.Errorf("cluster: remove %s: replica %s: %w", path, m.name, err)
		default:
			if !isDomainErr(err) {
				rs.noteFailure(m)
			}
			errs = append(errs, fmt.Errorf("replica %s: %w", m.name, err))
		}
	}
	if removed == 0 {
		switch {
		case len(errs) > 0:
			return fmt.Errorf("cluster: remove %s: %w", path, errors.Join(errs...))
		case skipped > 0:
			return fmt.Errorf("%w: remove %s", ErrNoReplica, path)
		default:
			return fmt.Errorf("%w: %s", dlfs.ErrNotFound, path)
		}
	}
	if skipped > 0 || len(errs) > 0 {
		rs.mu.Lock()
		rs.markDirtyLocked(path, dirtyState{remove: true})
		rs.mu.Unlock()
	} else {
		// The file is gone from every member: nothing left to repair.
		rs.settleDirty(path, snapGen, settled{link: true, content: true})
	}
	return errors.Join(errs...)
}

// LinkStates merges the link registries of all reachable members: one
// entry per path, the newest event winning (the tier's last-writer-wins
// rule). Unlink tombstones participate in the merge — an unlink newer
// than every link suppresses the path — but are not returned: the
// Backend contract reports live links. Implements dlfs.Backend.
func (rs *ReplicaSet) LinkStates() []dlfs.LinkState {
	union, _ := rs.linkUnion()
	out := make([]dlfs.LinkState, 0, len(union))
	for _, ls := range union {
		if ls.Tombstone() {
			continue
		}
		out = append(out, ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// linkUnion gathers every reachable member's registry — live links and
// unlink tombstones — keeping the newest event per path. A tombstone
// that outranks every link is the record that stops a healed partition
// from resurrecting an unlinked file; a link newer than the tombstone
// (an explicit re-link) wins back.
func (rs *ReplicaSet) linkUnion() (map[string]dlfs.LinkState, error) {
	ms := rs.upMembers()
	union := make(map[string]dlfs.LinkState)
	var errs []error
	for _, m := range ms {
		states, err := m.node.LinkStates()
		if err != nil {
			rs.noteFailure(m)
			errs = append(errs, fmt.Errorf("replica %s: %w", m.name, err))
			continue
		}
		rs.noteSuccess(m)
		for _, ls := range states {
			if cur, ok := union[ls.Path]; !ok || ls.EventTime().After(cur.EventTime()) {
				union[ls.Path] = ls
			}
		}
	}
	return union, errors.Join(errs...)
}

// ---------- coordinated backup (med.BackupParticipant) ----------

// BackupLinked delegates to the first healthy member that supports
// backup (in-process managers do; remote clients do not). Anti-entropy
// keeps replicas converged, so any one replica's registry captures the
// set's RECOVERY YES files.
func (rs *ReplicaSet) BackupLinked(dst string) (int, error) {
	var errs []error
	for _, m := range rs.upMembers() {
		bp, ok := nodeBackup(m.node)
		if !ok {
			continue
		}
		n, err := bp.BackupLinked(dst)
		if err != nil {
			errs = append(errs, fmt.Errorf("replica %s: %w", m.name, err))
			continue
		}
		return n, nil
	}
	if len(errs) > 0 {
		return 0, errors.Join(errs...)
	}
	return 0, fmt.Errorf("cluster: no backup-capable replica in set %s", rs.cfg.Host)
}

// RestoreLinked restores the backup into every healthy backup-capable
// member, so the replicas come back converged.
func (rs *ReplicaSet) RestoreLinked(src string) (int, error) {
	var errs []error
	best := 0
	restored := false
	for _, m := range rs.upMembers() {
		bp, ok := nodeBackup(m.node)
		if !ok {
			continue
		}
		n, err := bp.RestoreLinked(src)
		if err != nil {
			errs = append(errs, fmt.Errorf("replica %s: %w", m.name, err))
			continue
		}
		restored = true
		if n > best {
			best = n
		}
	}
	if !restored {
		if len(errs) > 0 {
			return 0, errors.Join(errs...)
		}
		return 0, fmt.Errorf("cluster: no backup-capable replica in set %s", rs.cfg.Host)
	}
	return best, errors.Join(errs...)
}

// nodeBackup unwraps a node's backup capability.
func nodeBackup(n Node) (med.BackupParticipant, bool) {
	bp, ok := n.(med.BackupParticipant)
	return bp, ok
}

// ---------- core.FileHost adapters ----------

// OpenFile implements the archive's FileHost read path.
func (rs *ReplicaSet) OpenFile(path, token string) (io.ReadCloser, error) {
	rc, _, err := rs.Open(path, token)
	return rc, err
}

// PutFile implements the archive's FileHost write path.
func (rs *ReplicaSet) PutFile(path string, r io.Reader) error {
	_, err := rs.Put(path, r)
	return err
}

// StatFile implements the archive's FileHost stat path.
func (rs *ReplicaSet) StatFile(path string) (dlfs.FileInfo, error) { return rs.Stat(path) }

// sortedKeys returns the map's keys in sorted order (deterministic
// fan-out and error text).
func sortedKeys(m map[string]*member) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Compile-time interface checks.
var (
	_ med.FileServer        = (*ReplicaSet)(nil)
	_ med.BackupParticipant = (*ReplicaSet)(nil)
	_ dlfs.Backend          = (*ReplicaSet)(nil)
)
