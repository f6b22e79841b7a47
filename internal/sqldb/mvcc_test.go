package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sqltypes"
)

// ---------- snapshot isolation under concurrency ----------

// TestMVCCSnapshotIsolation drives single-table writers on two tables
// against concurrent readers and checks per-statement snapshot invariants:
//
//   - Group atomicity: a writer rewrites a whole group's V in one
//     UPDATE, so any reader's MIN(V)/MAX(V) over that group must agree —
//     a torn snapshot would surface as MIN != MAX.
//   - Committed-prefix: a writer appends dense ids in batches of ten
//     (one multi-row INSERT each), so any reader must see COUNT(*) a
//     multiple of ten, MAX(ID) == COUNT(*), and SUM(ID) equal to the
//     prefix sum — later stamps may be invisible, earlier ones may not.
//
// COUNT(*) with no WHERE, MAX and SUM answer from heap scans and the
// group probes from the ordered index, so the invariants also
// cross-check the two read paths against each other.
// Run under -race in CI.
func TestMVCCSnapshotIsolation(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE SIM (ID INTEGER PRIMARY KEY, GRP VARCHAR(8), V INTEGER)`)
	mustExec(t, db, `CREATE INDEX SIM_GRP ON SIM (GRP) USING ORDERED`)
	mustExec(t, db, `CREATE TABLE EVT (ID INTEGER PRIMARY KEY, V INTEGER)`)

	groups := []string{"G0", "G1", "G2", "G3"}
	for i := 0; i < 200; i++ {
		mustExec(t, db, `INSERT INTO SIM VALUES (?, ?, 0)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewString(groups[i%len(groups)]))
	}

	upd, err := db.Prepare(`UPDATE SIM SET V = ? WHERE GRP = ?`)
	if err != nil {
		t.Fatal(err)
	}
	grpAgg, err := db.Prepare(`SELECT MIN(V), MAX(V) FROM SIM WHERE GRP = ?`)
	if err != nil {
		t.Fatal(err)
	}
	evtAgg, err := db.Prepare(`SELECT COUNT(*), MAX(ID), SUM(ID) FROM EVT`)
	if err != nil {
		t.Fatal(err)
	}

	const (
		updates = 150
		batches = 60
	)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
	)
	report := func(format string, args ...any) {
		mu.Lock()
		if len(failures) < 5 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}
	done := make(chan struct{})

	// Writer: whole-group rewrites, one UPDATE per group.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= updates; i++ {
			g := groups[i%len(groups)]
			if _, err := upd.Exec(sqltypes.NewInt(int64(i)), sqltypes.NewString(g)); err != nil {
				report("group update: %v", err)
				return
			}
		}
	}()

	// Writer: dense-id batch appends on a second table. The two writers
	// take the barrier in turn, but their WAL flushes overlap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			var sb strings.Builder
			sb.WriteString(`INSERT INTO EVT VALUES `)
			for j := 1; j <= 10; j++ {
				if j > 1 {
					sb.WriteString(", ")
				}
				id := b*10 + j
				fmt.Fprintf(&sb, "(%d, %d)", id, id)
			}
			if _, err := db.Exec(sb.String()); err != nil {
				report("batch insert: %v", err)
				return
			}
		}
	}()

	go func() { wg.Wait(); close(done) }()

	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					if i > 0 {
						return
					}
				default:
				}
				rows, err := grpAgg.Query(sqltypes.NewString(groups[(r+i)%len(groups)]))
				if err != nil {
					report("group read: %v", err)
					return
				}
				lo, hi := rows.Data[0][0], rows.Data[0][1]
				if lo.Int() != hi.Int() {
					report("torn group snapshot: MIN(V)=%d MAX(V)=%d", lo.Int(), hi.Int())
					return
				}
				rows, err = evtAgg.Query()
				if err != nil {
					report("prefix read: %v", err)
					return
				}
				n := rows.Data[0][0].Int()
				if n == 0 {
					continue
				}
				maxID, sum := rows.Data[0][1].Int(), rows.Data[0][2].Int()
				if n%10 != 0 || maxID != n || sum != n*(n+1)/2 {
					report("not a committed prefix: COUNT=%d MAX=%d SUM=%d", n, maxID, sum)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	<-done
	for _, f := range failures {
		t.Error(f)
	}

	// Quiesced final state: last writes are visible.
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM EVT`)
	if got := rows.Data[0][0].Int(); got != batches*10 {
		t.Fatalf("final EVT count = %d, want %d", got, batches*10)
	}
}

// TestEveryWriteTakesTheBarrier: there is one write path. Every
// autocommit INSERT, UPDATE and DELETE — on an FK-free table and on an
// FK-bearing one alike — takes the barrier exactly once, observed as one
// sqldb_barrier_wait_ns sample per statement.
func TestEveryWriteTakesTheBarrier(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE FREE (ID INTEGER PRIMARY KEY, V INTEGER)`)
	mustExec(t, db, `CREATE TABLE PARENT (ID INTEGER PRIMARY KEY)`)
	mustExec(t, db, `CREATE TABLE CHILD (ID INTEGER PRIMARY KEY, PID INTEGER REFERENCES PARENT (ID))`)
	mustExec(t, db, `INSERT INTO PARENT VALUES (7)`)
	barriers := func() uint64 {
		m, ok := db.Metrics().Find("sqldb_barrier_wait_ns")
		if !ok || m.Hist == nil {
			t.Fatalf("sqldb_barrier_wait_ns missing: %+v", m)
		}
		return m.Hist.Count
	}
	for _, sql := range []string{
		`INSERT INTO FREE VALUES (1, 1)`,
		`UPDATE FREE SET V = 2 WHERE ID = 1`,
		`DELETE FROM FREE WHERE ID = 1`,
		`INSERT INTO CHILD VALUES (1, 7)`,
		`UPDATE CHILD SET PID = 7 WHERE ID = 1`,
		`DELETE FROM CHILD WHERE ID = 1`,
	} {
		before := barriers()
		mustExec(t, db, sql)
		if got := barriers() - before; got != 1 {
			t.Errorf("%s: %d barrier acquisitions, want 1", sql, got)
		}
	}
}

// ---------- vacuum ----------

func countVersions(db *DB, td *tableData) (slots, versions int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, s := range td.slots {
		slots++
		for v := s.head.Load(); v != nil; v = v.prev {
			versions++
		}
	}
	return slots, versions
}

func countIndexEntries(idx *orderedIndex) int {
	n := 0
	idx.scanRange(nil, nil, false, func(_ string, ss []*rowSlot) bool {
		n += len(ss)
		return true
	})
	return n
}

// TestVacuumReclaim: after delete/update-heavy churn, Vacuum returns the
// heap (slots and version chains) and every index — the PRIMARY KEY's
// included — to the pre-churn baseline, and the data still answers correctly.
func TestVacuumReclaim(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE T (ID INTEGER PRIMARY KEY, A VARCHAR(16), B INTEGER)`)
	mustExec(t, db, `CREATE INDEX T_A ON T (A) USING HASH`)
	mustExec(t, db, `CREATE INDEX T_B ON T (B) USING ORDERED`)
	for i := 0; i < 100; i++ {
		mustExec(t, db, `INSERT INTO T VALUES (?, ?, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("A%02d", i%10)), sqltypes.NewInt(int64(i)))
	}
	if err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	td := db.data["T"]
	baseSlots, baseVersions := countVersions(db, td)
	if baseSlots != 100 || baseVersions != 100 {
		t.Fatalf("baseline: %d slots / %d versions, want 100/100", baseSlots, baseVersions)
	}
	baseIdx := map[string]int{}
	ordered := td.index("T_B")
	for _, idx := range td.indexes {
		baseIdx[idx.name] = countIndexEntries(idx)
	}
	baseNodes := ordered.nodeCount()

	// Churn: three rounds of insert + rewrite + delete on ids >= 1000.
	for r := 0; r < 3; r++ {
		for i := 0; i < 500; i++ {
			id := 1000 + r*1000 + i
			mustExec(t, db, `INSERT INTO T VALUES (?, ?, ?)`,
				sqltypes.NewInt(int64(id)), sqltypes.NewString(fmt.Sprintf("A%02d", id%10)), sqltypes.NewInt(int64(id)))
		}
		mustExec(t, db, `UPDATE T SET B = B + 1 WHERE ID >= 1000`)
		mustExec(t, db, `DELETE FROM T WHERE ID >= 1000`)
	}
	if _, dirtyVersions := countVersions(db, td); dirtyVersions <= baseVersions {
		t.Fatalf("churn left no dead versions to reclaim (%d)", dirtyVersions)
	}
	dirtyNodes := ordered.nodeCount()

	if err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	slots, versions := countVersions(db, td)
	if slots != baseSlots || versions != baseVersions {
		t.Fatalf("after vacuum: %d slots / %d versions, want %d/%d", slots, versions, baseSlots, baseVersions)
	}
	for _, idx := range td.indexes {
		if got := countIndexEntries(idx); got != baseIdx[idx.name] {
			t.Fatalf("index %s: %d entries after vacuum, want %d", idx.name, got, baseIdx[idx.name])
		}
	}
	// The tree merges hollow leaves but does not repack survivors, so
	// allow a little slack over the pristine baseline while insisting
	// the churn-time growth is gone.
	if got := ordered.nodeCount(); got > 2*baseNodes || got >= dirtyNodes {
		t.Fatalf("ordered index: %d nodes after vacuum (baseline %d, churn peak %d)", got, baseNodes, dirtyNodes)
	}
	if d := td.dead.Load(); d != 0 {
		t.Fatalf("dead counter = %d after vacuum", d)
	}

	rows := mustQuery(t, db, `SELECT COUNT(*), SUM(B) FROM T`)
	if rows.Data[0][0].Int() != 100 || rows.Data[0][1].Int() != 99*100/2 {
		t.Fatalf("data wrong after vacuum: %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM T WHERE A = 'A03'`)
	if rows.Data[0][0].Int() != 10 {
		t.Fatalf("hash-index read after vacuum: %v", rows.Data)
	}
}

// TestAutoVacuum: once the dead-version debt crosses the configured
// threshold, a background vacuum runs without any explicit call and the
// debt returns to zero.
func TestAutoVacuum(t *testing.T) {
	db := memDB(t)
	db.AutoVacuumDeadRows = 50
	mustExec(t, db, `CREATE TABLE T (ID INTEGER PRIMARY KEY, V INTEGER)`)
	for i := 0; i < 200; i++ {
		mustExec(t, db, `INSERT INTO T VALUES (?, ?)`, sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i)))
	}
	mustExec(t, db, `DELETE FROM T WHERE ID >= 0`)

	td := db.data["T"]
	deadline := time.Now().Add(5 * time.Second)
	for {
		if td.dead.Load() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-vacuum never ran: dead=%d", td.dead.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	slots, versions := countVersions(db, td)
	if slots != 0 || versions != 0 {
		t.Fatalf("auto-vacuum left %d slots / %d versions", slots, versions)
	}
}

// ---------- ORDER BY ... LIMIT top-K ----------

func rowSig(rows *Rows) []string {
	out := make([]string, len(rows.Data))
	for i, r := range rows.Data {
		out[i] = encodeKey(r...)
	}
	return out
}

// TestTopKOrderByLimit: the bounded-heap selection must return exactly
// the prefix the full sort would (including tie order, which follows
// first-appearance like the stable sort), and the plan advertises
// itself via the " top-k" AccessPath suffix.
func TestTopKOrderByLimit(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE R (ID INTEGER PRIMARY KEY, K INTEGER, S VARCHAR(8))`)
	for i := 0; i < 500; i++ {
		mustExec(t, db, `INSERT INTO R VALUES (?, ?, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64((i*37)%101)), sqltypes.NewString(fmt.Sprintf("S%02d", i%25)))
	}

	st, err := db.Prepare(`SELECT ID, K FROM R ORDER BY K, ID LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if path, err := st.AccessPath(); err != nil || !strings.Contains(path, " top-k") {
		t.Fatalf("AccessPath = %q (%v), want top-k suffix", path, err)
	}
	full := rowSig(mustQuery(t, db, `SELECT ID, K FROM R ORDER BY K, ID`))
	got, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if want := full[:10]; !equalStrings(rowSig(got), want) {
		t.Fatalf("top-k prefix mismatch:\n got %v\nwant %v", rowSig(got), want)
	}

	// OFFSET shifts the window, still off the heap.
	windowed := rowSig(mustQuery(t, db, `SELECT ID, K FROM R ORDER BY K, ID LIMIT 7 OFFSET 5`))
	if !equalStrings(windowed, full[5:12]) {
		t.Fatalf("top-k window mismatch:\n got %v\nwant %v", windowed, full[5:12])
	}

	// Heavy ties: S repeats 20x per value; heap selection must keep the
	// stable (first-appearance) order the full sort produces.
	fullTies := rowSig(mustQuery(t, db, `SELECT ID, S FROM R ORDER BY S`))
	ties := rowSig(mustQuery(t, db, `SELECT ID, S FROM R ORDER BY S LIMIT 30`))
	if !equalStrings(ties, fullTies[:30]) {
		t.Fatalf("top-k tie order mismatch:\n got %v\nwant %v", ties, fullTies[:30])
	}

	// No LIMIT → full sort, no top-k advert.
	stFull, err := db.Prepare(`SELECT ID, K FROM R ORDER BY K, ID`)
	if err != nil {
		t.Fatal(err)
	}
	if path, _ := stFull.AccessPath(); strings.Contains(path, " top-k") {
		t.Fatalf("unlimited sort advertised top-k: %q", path)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
