// Package repro is a from-scratch Go reproduction of "An Architecture
// for Archiving and Post-Processing Large, Distributed, Scientific Data
// Using SQL/MED and XML" (Papiani, Wason, Nicole; EDBT 2000) — the
// EASIA system: a web-based active archive where multi-gigabyte
// simulation results stay on the file servers that generated them,
// managed through SQL/MED DATALINKs, while a schema-derived XML user
// interface specification (XUIS) drives searching, browsing and
// server-side post-processing.
//
// internal/exp regenerates every table and figure of the paper's
// evaluation (cmd/easiabench prints them, bench_test.go wraps them as
// Go benchmarks) and bench/README.md explains the end-to-end
// benchmark. The library lives under internal/ (core is the archive
// facade); cmd/ holds the runnable daemons and tools; examples/ holds
// runnable walkthroughs.
//
// # The metadata engine's prepare/cache layer
//
// All archive traffic funnels through the embedded SQL/MED engine
// (internal/sqldb), so its per-statement cost bounds the whole system.
// Four mechanisms keep that cost down:
//
//   - Prepared statements and a plan cache. DB.Prepare(sql) returns a
//     *sqldb.Stmt whose parsed AST and — for SELECTs — bound plan
//     (resolved table/column slots, expanded projection) are reused
//     across executions. An internal LRU keyed by SQL text backs
//     Prepare and is consulted by plain Exec/Query and by an explicit
//     transaction's Tx.Exec/Tx.Query too, so every caller — a batch of
//     archival INSERTs inside one transaction included — gets
//     statement caching for free. Any DDL bumps a schema epoch;
//     plans record the epoch they were bound at and transparently
//     re-bind when it moves, so a stale plan is never served.
//
//   - A concurrent read path. SELECTs (Query, Stmt.Query) share the
//     engine's read lock and run in parallel — against each other and,
//     through MVCC snapshot reads, against sharded single-table DML
//     (see "Concurrency model" below). Query results are fully
//     materialised, read-only results, valid after the lock is
//     released and concurrent with later writes.
//
//   - A compact value layout. sqltypes.Value is a 32-byte tagged union
//     (kind + flags byte, one 64-bit scalar word shared by INTEGER/
//     DOUBLE/BOOLEAN/TIMESTAMP, and a string header shared by text,
//     DATALINK and BLOB payloads — timestamps encode as UTC unix
//     nanoseconds, with instants outside 1678–2262 kept marshalled
//     behind the far-time flag). Rows are copied by value throughout
//     the SELECT path, so the shrink from the previous 112-byte struct
//     (~27% of SELECT CPU in duffcopy) cuts both scan time and result
//     materialisation B/op (BenchmarkAblation_ValueLayout; layout
//     invariants documented in internal/sqltypes/value.go).
//
//   - One index structure with an access-path planner. Every PRIMARY
//     KEY and UNIQUE constraint and every CREATE INDEX name ON table
//     (col, ...) builds the same B+tree over a canonical total-order
//     key encoding of sqltypes values (a trailing USING HASH|ORDERED
//     is accepted and ignored); composite indexes concatenate the
//     per-column encodings, whose terminator scheme makes tuple order
//     equal byte order. Constraints are enforced by probing that
//     tree's MVCC postings for a current holder, so the structure
//     that guards a key is the one the planner reads it through. The
//     planner matches WHERE conjuncts against each index's leading
//     prefix: full-tuple equality is a point lookup, any equality
//     prefix plus one range/BETWEEN/IS [NOT] NULL predicate on the
//     next column is one bounded scan, and ORDER BY keys that walk
//     the index columns after the (constant) equality prefix — all in
//     one direction — are emitted in order with no sort (LIMIT stops
//     the scan early). The choice is cached in the prepared plan and
//     re-made when DDL moves the schema epoch. A path that consumes
//     the whole WHERE exactly (residual-free) is the predicate: its key
//     range holds exactly the matching rows, so no row it selects is
//     tested again. Every other path, and the heap scan a probe that
//     fails to evaluate or align falls back to, tests the full WHERE.
//     Either way the returned row set is a full scan's
//     (TestPlannerPropertyIndexVsScan, TestPlannerPropertyDML with its
//     in-transaction key moves, FuzzIndexPathMatchesScan,
//     TestFarKeysMatchReference, TestReferenceEvaluatorProperty,
//     composite_test.go; ablated by BenchmarkAblation_OrderedIndex and
//     BenchmarkAblation_CompositeIndex). Key equality is value
//     equality — integers beyond ±2^53 carry an exact tiebreak after
//     their float64 image (key.go; FuzzKeyEncoding) — so an index
//     serves ORDER BY in exact value order, and a far DOUBLE or text
//     probe on an INTEGER column reads the key range of the integers
//     sharing its image. The B+tree merges emptied
//     leaves away on delete (merge-at-empty, no further rebalancing),
//     so delete-heavy tables do not accumulate hollow nodes.
//
//   - One row source, one sink. Every SELECT runs as a row source —
//     the filtered scan of a lone table through its access path or the
//     heap, or the depth-first join of several — handing each row, as
//     it is produced, to one sink: the projection (OFFSET skip, LIMIT
//     stop), or the sort in front of it when DISTINCT or an ORDER BY
//     the path did not serve must see rows first. Under ORDER BY ...
//     LIMIT the sort holds only the OFFSET+LIMIT best candidates in a
//     bounded heap and projects only the survivors; a LIMIT with no
//     sort stops the scan or the join at the last row wanted. Nothing
//     holds the complete row set of a scan or a join, and UPDATE and
//     DELETE find their rows through the same filtered scan
//     (internal/sqldb/select.go; TestJoinLimitStopsTheJoin and
//     TestTopKCandidateFootprint pin what streaming buys).
//
//   - A fold-based aggregation pipeline. Every COUNT/SUM/AVG/MIN/MAX
//     call gets an accumulator slot and rows fold into per-group
//     accumulator structs (internal/sqldb/agg.go) as the source hands
//     them over — a scan's rows and a join's alike — and are never
//     retained: grouped state is O(groups), and the groups HAVING
//     keeps take the rows' place in front of the sink.
//     Every GROUP BY groups one way ("hash-agg" in Stmt.AccessPath):
//     groups hash on the index-key encoding of their keys, which keeps
//     NULL, the empty string and 0 vs '0' in distinct groups and INTEGER 1 and
//     DOUBLE 1 in one (DISTINCT keys on the same encoding), and
//     allocates a key string only when a group first appears. No
//     GROUP BY reads an index to cluster its groups or folds them off
//     index keys: the report's rollup measured faster on a heap scan
//     than through its index. What that gives up: a GROUP BY ... LIMIT
//     with no ORDER BY folds every source row instead of stopping at
//     the last group wanted; a path the WHERE clause happens to cluster
//     by group folds through the hash table too (measured no slower);
//     and the groups of a GROUP BY with no ORDER BY come out in
//     first-seen order, not index order, an order SQL leaves
//     unspecified. An integer SUM whose exact value leaves the BIGINT
//     range fails ("SUM out of BIGINT range") instead of wrapping; like
//     every fold error, only a group HAVING keeps raises it
//     (TestAggFoldErrorParity). The fold is held to a naive reference
//     evaluator (internal/sqldb/refeval_test.go — nested loops over
//     table snapshots, pairwise grouping, sort.SliceStable) over
//     hand-written and generated statements, with index paths on and
//     under SetFullScanOnly.
//
//   - Index-only aggregates. When a single-table COUNT/MIN/MAX query's
//     WHERE clause is consumed exactly by the chosen path (no residual
//     conjuncts — tracked at plan time), COUNT is answered by summing
//     visible-posting counts under the key range the statement's scan
//     resolved — zero heap rows read, asserted via DB.HeapRowReads —
//     and MIN/MAX walk that range in order and read one boundary row:
//     the first live row whose value is not NULL. An aggregate with no
//     path, an unfiltered COUNT(*) included, folds over the heap.
//
//   - Index nested-loop and hash joins. Equality conjuncts of the form
//     inner.col = expr(outer tables) in ON or WHERE are matched against
//     the inner table's indexes; each accumulated outer row then probes
//     the index instead of re-scanning the inner heap, with the ON
//     condition still applied to every candidate and the WHERE applied
//     after the join (identical results, property-tested against the
//     cross-product path in join_test.go). When equi-conjuncts exist
//     but NO index covers them, the executor builds a hash table over
//     the probed table once — keyed by the same canonical encoding,
//     NULL keys never matching — and probes it per outer row, so an
//     unindexed equi-join costs O(|inner| + |outer|) instead of the
//     cross product (BenchmarkAblation_HashJoin: ~200x on 1k×1k). A
//     join always runs forward: the first table drives the outer loop,
//     through its access path when one serves the execution
//     (TestJoinKeepsFirstTablePath), and each later table is probed or
//     scanned in FROM order. The join assembles its rows in place, in
//     one row buffer per execution: each level writes its candidate's
//     columns — only the columns some expression of the statement
//     reads — into its own slots, and probes fill reused candidate and
//     slot buffers. Each
//     row that passes the WHERE is copied once, into the scratch
//     arena, and that copy is what the memory budget is charged for
//     (TestJoinAllocsFlatPerRow, TestJoinFoldFootprint). Join plans
//     live in the cached selectPlan under the same schema-epoch
//     invalidation (BenchmarkAblation_JoinPlan: ≥100x on a 1k×1k
//     equi-join).
//
//   - WAL group commit. Committers stage their redo frames under the
//     writer lock (log order = commit order) and wait for durability
//     after releasing it; the first waiter flushes the whole pending
//     batch with one fsync. Concurrent commit load therefore pays ~one
//     fsync per flush window instead of one per transaction
//     (BenchmarkAblation_GroupCommit). A transaction that stages
//     nothing still acknowledges only after the state it could have
//     observed in the group-commit visibility window is durable.
//
// # Concurrency model
//
// The engine is multi-version: every heap row is a chain of versions
// stamped with the commit timestamps that created and (when
// overwritten or deleted) ended them, and secondary-index postings
// carry the same stamps. The rules:
//
//   - Visibility. A statement run under the shared read lock pins a
//     snapshot — the highest published commit stamp — at statement
//     start, and sees exactly the versions whose begin stamp is
//     committed and ≤ the snapshot and whose end stamp is absent,
//     uncommitted, or > the snapshot. Writers install new versions and
//     stamp old ones without ever blocking readers: an open scan keeps
//     answering from its snapshot while later transactions commit.
//     Statements inside an explicit transaction (Tx, ExecScript) run
//     under the exclusive lock in latest-state mode, so they see their
//     own uncommitted writes — explicit transactions remain
//     serialisable. Commit stamps are allocated in WAL-stage order
//     under one commit mutex, so on-disk order, stamp order and
//     visibility order always agree, and crash replay reassigns stamps
//     transaction-by-transaction in the same order.
//
//   - Sharded writes. Autocommit single-table DML whose table has no
//     foreign keys in either direction and no DATALINK columns commits
//     under the shared engine lock plus a per-table write latch:
//     writers on different tables proceed concurrently through the
//     same WAL group-commit path, and readers are never blocked by
//     either. Everything else — DDL, FK-bearing DML, link-control
//     writes, explicit transactions — takes the engine lock
//     exclusively (the DDL/global barrier), which also guarantees no
//     statement snapshot is open while the catalogue changes.
//
//   - Vacuum. Dead versions (and their index postings) accumulate
//     until reclaimed: DB.Vacuum on demand, or the background vacuum
//     once the dead-version debt crosses DB.AutoVacuumDeadRows
//     (default 16384; 0 disables). Vacuum runs under the global
//     barrier with the WAL fenced, so every stamp is resolved and no
//     snapshot is live; because readers hold the read lock for the
//     whole statement, "older than the oldest live snapshot" reduces
//     to "not the current committed version", and each table folds to
//     exactly one version per live row, with every index swept of
//     dead postings (emptied leaves merge away). That barrier is also
//     why an index posting can be the row reference itself — a pointer
//     to the row's slot, followed with no id lookup after the table
//     latch is released: a slot and its postings are removed only here,
//     together, with no reader in flight (TestSlotOrderInvariant).
//     Checkpoints vacuum as a side effect, since the snapshot they
//     write keeps only current rows. TestMVCCSnapshotIsolation,
//     TestVacuumReclaim and TestAutoVacuum pin these contracts down;
//     BenchmarkParallelQuery tracks read scaling and the 90/10 mixed
//     workload.
//
// # Result pipeline and caching
//
// SELECT results flow through an arena/columnar pipeline rather than a
// per-row make on the heap, and every byte it allocates is proportional
// to the rows a statement returns — not to the table, not to a fixed
// slab: the archive's pages are 1–50-row results.
//
//   - Stored rows. When the projection is the lone table's columns in
//     stored order — SELECT *, the same list spelled out, every QBE page
//     the form sends — a result row is the visible row version itself,
//     clipped to its width so an append cannot reach storage: no copy,
//     no arena. A version is never written after it is published, so
//     the result keeps its as-of values through later UPDATEs, DELETEs,
//     VACUUM and checkpoints (TestStoredOrderResultOutlivesWrites,
//     TestStoredOrderRowsAreStoredVersions). The trade: a retained
//     result keeps alive the versions it returned after VACUUM unlinks
//     them, bounded by what callers hold plus the 512 KiB result cache;
//     and writing through such a row would corrupt the table, which is
//     why Rows are read-only.
//
//   - Arena ownership. Every other projection carves its result rows
//     from a per-statement bump allocator (rowArena). It starts on
//     plain-heap chunks — the first sized to the first request, later
//     ones doubling to 16 KiB, about a page of rows in all — that nobody
//     owns; only a result that has outgrown them (or filled a whole
//     projection batch) draws pooled fixed-size Value slabs. The
//     returned Rows owns the arena: Rows.Close releases every slab back
//     to the pool wholesale, after which the row slices must not be
//     touched. For a small result Close is a no-op on storage, and an
//     unclosed large result is reclaimed by the GC and only misses the
//     pool. Callers that consume a result close it: core.ResultSet
//     aliases Rows.Data and passes Close on, and the webui results page
//     closes its search after the last row is written. Rows.Detach copies arena-backed rows
//     out into plain heap memory first, so detached results stay valid
//     indefinitely (the contract long-lived callers rely on); Close is
//     idempotent and nil-safe either way.
//     A join's delivered rows — one copy of each row that passes the
//     WHERE — live in a separate scratch arena released when the
//     statement returns; a computed projection copies surviving values
//     into the result arena, so no scratch reference escapes. It batches source rows by reference (colBatch) and
//     flushes each batch into one rows × columns arena block, filled a
//     column at a time with no staging columns; a batch is at most 1024
//     rows and never more than fit a slab.
//
//   - Exact sizing. Row headers collect in a list — the first 64 in a
//     pooled head, the rest in pooled blocks reused across statements —
//     and the result's row slice is made once, at the exact row count
//     (TestSmallResultFootprint pins a page-sized SELECT to ≤ 8 KiB
//     beyond its rows; TestResultBytesPerReturnedRow a 4,000-row range
//     of a 100,000-row table to ≤ 40 B per returned row;
//     TestLargeResultRecyclesSlabs and BenchmarkAblation_Arena the
//     large-result bytes per row and allocs/op; there is no arena-less
//     mode, and TestArenaReferenceEquivalence and
//     TestArenaBoundaryEquivalence hold the path to the reference
//     evaluator at every size where it changes what it allocates from).
//
//   - Result cache. Every database opens with an LRU of complete
//     SELECT results keyed by statement text plus an exact encoding of
//     the bound arguments. The key is an exact identity on purpose: a
//     hit is replayed with no residual check, so `SELECT v, ?` bound to
//     INTEGER 1 and to DOUBLE 1 must stay two entries, unlike the index
//     key encoding, which folds equal-comparing numerics together. An
//     entry records the schema epoch and the snapshot it was computed
//     at; a lookup serves it only when the epoch still matches, every
//     referenced table's last committed write stamp is ≤ the entry's
//     snapshot, and the reader's snapshot is ≥ it — so a cached read
//     can never observe staler data than a fresh execution
//     (TestResultCacheConcurrentNoStaleReads). Commits eagerly drop
//     entries for the tables they touched and DDL flushes the cache
//     with the epoch bump; both are reclamation, not the correctness
//     mechanism — the serve-time stamp check is. A completed miss fills
//     only on a repeat that would have hit: a doorkeeper of key hashes
//     must have seen the same statement at the same source-table write
//     stamp, and on a full cache the candidate must be seen more often
//     than every entry it would evict (TestResultCacheAdmitsOnRepeat,
//     TestResultCacheSkipsFillAcrossWrite,
//     TestResultCacheHotEntrySurvivesColdChurn); a first sighting
//     allocates nothing for the cache (TestResultCacheMissAllocs). A
//     hit shares the entry's rows (TestResultCacheHitAllocs), which is
//     why Rows from Query are read-only; a fill copies only rows an
//     arena backs and keeps stored rows as they are. Statements with volatile
//     functions (NOW, CURRENT_TIMESTAMP) bypass the cache,
//     explicit-transaction reads never consult it (they run in
//     latest-state mode), and a statement that fails or is canceled
//     mid-fill publishes nothing. The cache holds at most 512 KiB — an
//     eighth of Options.MemoryBudget when that is less — charged at
//     what entries keep on the heap (TestResultCacheResidentBytesHonest)
//     and against the budget while resident (refunded on eviction).
//     It is observable via the sqldb_result_cache_* metrics (declined
//     fills by reason), the /status page, the " cached" AccessPath
//     suffix and the trace cache:"hit|miss|bypass" tag
//     (BenchmarkAblation_OpCache tracks the repeated-query win).
//
//   - Linked-file size memo. A results page shows each DATALINK file's
//     size (core.Archive.LinkedFileSize), and the archive asks the
//     file's host for it once, not per render: it remembers the size of
//     a file the host reports linked under FILE LINK CONTROL with WRITE
//     PERMISSION BLOCKED, which cannot change until the database unlinks
//     it. The memo is tagged with the med.Coordinator's link generation,
//     which is odd while a transaction that unlinks is committing on its
//     hosts — and, if a host's Commit failed, until a Reconcile succeeds,
//     since that host may still apply the unlink — and moves on when such
//     a change starts, when the last one finishes and when a host is
//     replaced. A size is served only under an even generation equal to
//     the tag, and stored only if the generation did not move while the
//     host was asked (TestCoordinatorLinkGeneration,
//     TestLinkedSizeFreshUnderWrites, TestRepeatRenderCostsNoStat,
//     TestLinkedFileSizeMissesWhileUnlinkInFlight,
//     TestLinkedFileSizeAfterFailedUnlinkCommit). A WRITE PERMISSION FS
//     file's size is asked every time, and so is every size on an
//     in-process replica set (a host with RepairLinks), which
//     acknowledges a commit a replica missed and applies it there later
//     (TestLinkedFileSizeAsksReplicatedHost). The rule holds only while
//     this archive is the one database controlling its hosts' links —
//     the paper's one DLFM per database: an unlink made by anything else
//     does not move the generation. It also takes each host's answer as
//     its links' state: a dlfsd gateway over replicas, reached as a
//     remote daemon, acknowledges a partial commit the same way, and a
//     lagging replica's answer through it can be remembered until the
//     next unlink commits. The memo keeps at most 4,096 sizes and starts
//     over empty when full. The file daemon resolves only a path's clean
//     spelling, so no other spelling of a linked file reaches its bytes
//     past its link (TestServerRefusesOtherSpellings).
//
// # Durability and recovery contract
//
// All storage-tier I/O goes through internal/iofault: an FS abstraction
// whose production implementation is the real disk and whose test
// implementation scripts faults in the netsim style — per-path fsync
// failures, short writes, and crash points after which every operation
// fails and only a configurable torn prefix of the in-flight write
// persists. The contract it enforces, verified by a randomized
// crash-recovery soak (TestCrashRecoverySoak: seeded crash schedules
// against a committed-transaction oracle) plus a corruption corpus:
//
//   - An acknowledged commit survives any crash. Acknowledgement means
//     the WAL frames passed fsync; replay applies exactly the committed
//     transactions, in commit order.
//   - A failed fsync poisons the database (ErrPoisoned). After
//     fsyncgate, a retry that "succeeds" proves nothing — the kernel
//     may have dropped the dirty pages. Every in-flight and subsequent
//     commit fails, the failed batch is unwound from memory in reverse
//     commit order, and the log is truncated back to its last-synced
//     length so a transaction reported as rolled back cannot resurrect
//     on replay. Close skips the checkpoint; reopening recovers from
//     the last durable state.
//   - Recovery classifies the log tail instead of trusting it. An
//     incomplete or garbage final region (crash mid-append) is truncated
//     and reported (RecoveryInfo); a bad frame with intact frames after
//     it — one whose length field points past the end of the file
//     included — is mid-log corruption of once-durable data, and Open
//     refuses with ErrWALCorrupt rather than silently dropping
//     committed transactions (Options.Salvage opens with the intact
//     prefix, explicitly). Snapshots carry a whole-file checksum verified
//     before any field is trusted (ErrSnapshotCorrupt on mismatch) and
//     rotate by tmp + fsync + rename + parent-dir fsync.
//   - Checkpoints are crash-safe at every step. Each snapshot carries a
//     generation and each log an epoch frame; a crash between snapshot
//     rename and log rotation leaves a stale log that replay discards
//     by the epoch check, and any failure after the rename poisons the
//     database so no commit lands in a log that a restart would skip.
//
// The dlfs link registry (internal/dlfs/store.go) is a log under the
// same contract, built from the same code: iofault.AppendFrame and
// iofault.ScanFrames are the WAL's framing and tail classification,
// moved where both tiers can reach them.
//
//   - An acknowledged link state change survives any crash.
//     Acknowledgement means its records — one per path: a link, or the
//     tombstone of an unlink; all of one Commit in one write — were
//     appended and passed fsync. What it costs does not depend on how
//     many links the registry holds.
//   - A torn tail is truncated at open, before the first append could
//     land behind it; a bad frame with intact frames after it refuses
//     the open with ErrRegistryCorrupt, and there is no salvage switch:
//     the database is the system of record, and Reconcile rebuilds the
//     links of a registry an operator has moved aside.
//   - A failed append does not poison the store (today's contract: the
//     error reaches the 2PC coordinator, the state change stays applied
//     in memory) but the file is never appended to again behind a tail
//     of unknown content: the next state change rewrites it whole.
//   - Compaction is atomic (WriteFileAtomic: tmp + fsync + rename + dir
//     fsync) and runs when the file is first created, when a JSON
//     registry of an earlier version is opened, after a failed write,
//     and whenever the file holds more than 2×(links + retained
//     tombstones) + 64 records. Expired tombstones leave with it.
//   - ON UNLINK DELETE removes the file only after the unlink is
//     durable; the other order can strand a link to a file that is gone.
//
// TestStoreCrashSoak holds the store to this against a model, the way
// TestCrashRecoverySoak holds sqldb, and FuzzScanFrames feeds the shared
// scanner arbitrary bytes. The cluster's repair-state checkpoint still
// uses WriteFileAtomic for its (small) dirty set; its failures are
// counted in Stats rather than dropped.
//
// One archive step — Put a result file, INSERT its RESULT_FILE row with
// the DATALINK, UPDATE the run's timestep count — makes four fsyncs,
// and each backs a guarantee of its own:
//
//   - the file Put: a DATALINK must never name bytes that a file-server
//     crash can take back. Prepare checks that the file exists; only the
//     fsync makes "exists" mean "is on disk";
//   - the INSERT's WAL flush: the row is acknowledged, and the
//     coordinator sends Commit to the file server only once the
//     database side is durable (a crash in between is what Reconcile
//     resolves, from the database outwards);
//   - the registry append: it is what keeps a committed link protected
//     against rename, delete and overwrite between a file-server crash
//     and the archive's next Reconcile. Without it a restarted dlfsd
//     would serve, unprotected, a file the database still references;
//   - the UPDATE's WAL flush: a second statement, acknowledged on its
//     own. A caller that wants one flush for both puts them in one
//     transaction; the engine does not guess.
//
// # The replicated DATALINK file-server tier
//
// The paper's files live on distributed file servers; one crashed
// daemon must not make its files unreadable or wedge link-control 2PC.
// internal/dlfs/cluster groups several Data Links File Managers behind
// one logical DATALINK host as a ReplicaSet: rendezvous-hash placement
// puts every file on ReplicationFactor members (default 2), Prepare/
// Commit/EnsureLinked/Put fan out to the placed replicas, Open/Stat
// fail over in placement order with token checks intact, and a health
// checker (periodic Ping probe + consecutive-failure circuit breaker,
// manual MarkDown/MarkUp) keeps routing away from dead members. A down
// replica never blocks a link or a read; the divergence it accrues is
// recorded and an anti-entropy pass (Repair — run by the background
// loop, by core's Reconcile, and on demand) re-replicates files, link
// state and staged commits once the member rejoins, last writer
// winning by event time: unlinks leave TTL-bounded tombstones in the
// registry itself, so a member that slept through an unlink cannot
// resurrect the stale link via the registry union. A write that
// reaches every placed replica supersedes any stale repair verdict for
// its path, and with Config.StatePath (dlfsd -state) the repair queue
// — removal tombstones included — survives a gateway restart. Abort failures are no longer dropped anywhere in the stack:
// they surface through Coordinator.Abort/Tx.Rollback and are queued
// for retry so a rolled-back prepare cannot leak reserved files on a
// server that missed the abort. See internal/dlfs/README.md for the
// placement/consistency details and cmd/dlfsd for the gateway
// deployment mode; BenchmarkAblation_Failover and
// BenchmarkReplicatedPut track the tier's read/write costs.
//
// The hot internal callers hold prepared statements: QBE searches and
// FK substitution (internal/core/qbe.go), row-by-key lookups, the
// link-control column probe behind DownloadURL and startup
// reconciliation (internal/core/archive.go), and — through those — the
// webui query/browse/result handlers, which read their query
// parameters without building a url.Values map (queryParam, held to
// url.ParseQuery by FuzzQueryParamMatchesParseQuery). A results page is
// compiled once per request into a column plan drawn from a pool, whose
// buffers it reuses (internal/webui/render.go): per column its header, its
// FK/PK browse links escaped once into the plan's byte arena and the
// schema column a DATALINK cell's token is minted for
// (Archive.DownloadURLFor, so no cell probes the catalogue), with each
// FK substitution looked up once per distinct key. The rows stream
// through the plan into a buffered writer; INTEGER and DOUBLE cells are
// formatted straight into its buffer. Every data byte goes through one
// table-driven escaper family — text and attributes, a url.Values-
// encoded query value, and html/template's raw query value — held byte
// for byte to html/template by FuzzEscapersMatchTemplate and
// TestGoldenResultPages. The page chrome goes through the same writer:
// one layout function heads every page, and the QBE form is written
// straight from the installed XUIS on each request, so an in-place
// customisation shows on the next render (TestQueryFormFollowsSpec).
// FuzzChromeMatchesTemplate and TestGoldenChromePages hold the layout,
// the form and the results chrome to the templates they replaced; only
// the cold pages (home and errors, operation forms and results, status,
// upload) still execute a template, for their content alone. The
// turbulence schema (internal/core/schema.go) declares the keys those
// pages follow — SIMULATION_KEY, AUTHOR_KEY, (FILE_NAME,
// SIMULATION_KEY) — and each
// is served by its own constraint index; named indexes add the
// foreign-key side of browsing, the TIMESTEP/CREATED range columns and
// the DATALINK columns, so the DLVALUE(?) equality probe and
// Reconcile's IS NOT NULL scan are both index-served; the composite
// (SIMULATION_KEY, TIMESTEP) index serves the compound "this run, this
// timestep window" shape with one prefix+range scan, answers its
// COUNT/MIN/MAX forms index-only, and gives SIMULATION_KEY equi-joins
// an index nested-loop probe. The webui /status page surfaces the
// replicated tier's health (replica-set members, open breakers, paths
// awaiting re-replication) via core.Archive.HostStatuses.
//
// # Cancellation, deadlines, and overload
//
// Every statement entry point has a context-aware form —
// DB.QueryContext / DB.ExecContext and the Stmt equivalents — and
// every streaming loop in the executor (heap and index scans, fold
// aggregation, hash-join build and probe, top-k, sort, DML row loops)
// polls a per-statement interrupt on an amortised stride, so
// cancelling the context or exceeding the statement deadline (the
// per-call context deadline, or the DB.SetStatementTimeout default
// applied when a statement arrives without one) surfaces
// sqldb.ErrCanceled / sqldb.ErrDeadlineExceeded within milliseconds
// without poisoning the engine: reads hold no state beyond their
// latch, and a cancelled DML unwinds its MVCC intents exactly like a
// constraint failure. The cancellation boundary is the WAL stage —
// the interrupt is checked one last time immediately before the
// commit is staged; once staged, the statement commits and reports
// success (the same at-most-once boundary a crash recovery exposes).
//
// Overload is governed by two budgets. Options.MaxConcurrentStatements
// caps simultaneously executing statements with a fair admission
// semaphore and a bounded wait queue (Options.AdmissionQueue, default
// 4x); a statement arriving with the queue full is shed immediately
// with ErrAdmissionRejected rather than piling latency onto everyone
// else. Options.MemoryBudget bounds the bytes statements may retain
// concurrently — hash-aggregation groups, join hash tables, the rows
// a join delivers, held sort candidates and result rows are charged
// against it, and a statement that would exceed the budget fails with
// ErrMemoryBudget instead of taking the process down. DB.Close drains admitted
// statements for a grace period (DB.CloseGrace) before tearing down
// the WAL, so
// shutdown is a drain, not an amputation; the easiad and dlfsd
// daemons translate SIGTERM into exactly that drain. The remote file
// tier applies the same discipline: dlfs.Client RPCs honour a context
// (WithContext) and per-attempt deadline (SetRPCTimeout), idempotent
// RPCs can retry with jittered exponential backoff (SetRetry), and
// cluster fan-out reads stop failing over once the caller's context
// ends (ReplicaSet.OpenContext/StatContext, cluster.Config.RPCTimeout).
//
// # Observability
//
// internal/telemetry is the dependency-free metrics core the whole
// stack reports through: sharded atomic counters, gauges (including
// scrape-time callbacks), and log-bucketed latency histograms with
// p50/p95/p99 summaries, collected in named registries with optional
// labels and rendered in Prometheus text exposition format
// (Registry.WritePrometheus / Handler; telemetry.ContentType). A nil
// metric handle no-ops, so instrumented code never checks whether
// telemetry is wired.
//
// The engine registers its registry at Open — DB.Metrics /
// DB.MetricsSnapshot — with families covering the commit pipeline
// (sqldb_wal_fsync_ns, sqldb_wal_group_commit_batch,
// sqldb_wal_poison_total, sqldb_commits_total), the plan cache
// (sqldb_plan_cache_{hits,misses}_total, sqldb_plan_cache_entries),
// contention (sqldb_latch_wait_ns for the sharded per-table latch,
// sqldb_barrier_wait_ns for the exclusive barrier), and MVCC hygiene
// (sqldb_vacuum_pass_ns, sqldb_vacuum_passes_total,
// sqldb_vacuum_rows_reclaimed_total, sqldb_autovacuum_triggers_total,
// sqldb_dead_rows, sqldb_snapshot_age_ns), and statement governance
// (sqldb_statements_{canceled,timed_out,shed}_total,
// sqldb_admission_wait_ns, sqldb_admission_queue_depth,
// sqldb_mem_budget_rejected_total, sqldb_mem_budget_bytes_in_use).
// The replicated file tier
// registers dlfs_cluster_* counters and histograms on the registry
// passed via cluster.Config.Metrics (failovers, breaker trips, 2PC
// partial commits/writes, put latency, anti-entropy repair totals and
// the pending-repair gauge); cluster.Stats remains as a thin view.
//
// Per-statement execution tracing upgrades Stmt.AccessPath into
// EXPLAIN ANALYZE: Stmt.Trace forces a Trace for one execution —
// per-plan-node wall time, output rows and heap row-version reads
// (zero for index-only stages, asserted against DB.HeapRowReads),
// plus the DML commit-pipeline breakdown (latch or barrier wait, WAL
// staging, fsync wait, and the group-commit batch the fsync rode in).
// DB.SetTraceThreshold(d) traces every statement and writes any whose
// wall time reaches d to the slow-query log (DB.SetSlowQueryLog) as
// one JSON object per line, counting them in
// sqldb_slow_queries_total. The threshold-zero default collects
// nothing on the statement path; BenchmarkAblation_Telemetry pins the
// untraced configuration to within noise of the pre-telemetry engine
// and prices always-on tracing.
//
// Exposure: the webui serves the archive-wide exposition at /metrics
// (login-gated, like every page) via core.Archive.WriteMetrics, which
// concatenates the engine registry with each attached file host's;
// /status renders the headline numbers (WAL batch size, fsync
// percentiles, plan-cache hit rate, dead-row debt, repair counts)
// next to replica-set health. cmd/dlfsd mounts its process registry
// at /metrics unauthenticated, in both single-server and gateway
// modes. scripts/bench.sh folds easiabench -latency percentile series
// into the BENCH_<date>.json record, and scripts/parallel_gate.sh +
// the CI core-count guard turn BenchmarkParallelQuery into the
// multi-core scaling regression gate.
package repro
