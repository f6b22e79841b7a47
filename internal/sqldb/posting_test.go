package sqldb

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sqltypes"
)

// A posting carries no stamps: (k, s) is visible at a snapshot iff the
// version of s visible there has key k (index.go). runPostingVisibility
// pins that rule against a map model. It reads ops as a sequence of
// writes on P (ID PRIMARY KEY, U UNIQUE, K plain-indexed) over small key
// domains, so keys collide and rows move back to keys they held:
//
//	0 INSERT                    4 key-changing UPDATE, rolled back
//	1 INSERT, rolled back       5 DELETE
//	2 key-changing UPDATE       6 re-INSERT of a deleted row's U
//	3 A→B→A UPDATE of K         7 VACUUM
//
// After every step it holds the snapshot it ended at (up to four;
// VACUUM releases them, as it runs only when no statement is open), and
// at each held snapshot and the latest one it checks point lookups on U
// and K, ascending and descending range scans on K, and index-only
// COUNT(*) over a point and a range against the model as of that
// snapshot, with no row delivered twice.
func runPostingVisibility(t testing.TB, ops []byte) {
	t.Helper()
	const kDomain, uDomain = 5, 8
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// The held snapshots are not pinned in the engine: a vacuum may run
	// only as a step, which releases them.
	db.AutoVacuumDeadRows = 0
	exec := func(sql string, args ...int64) error {
		vals := make([]sqltypes.Value, len(args))
		for i, a := range args {
			vals[i] = sqltypes.NewInt(a)
		}
		_, err := db.Exec(sql, vals...)
		return err
	}
	for _, ddl := range []string{
		`CREATE TABLE P (ID INTEGER PRIMARY KEY, U INTEGER, K INTEGER, UNIQUE (U))`,
		`CREATE INDEX P_K ON P (K)`,
	} {
		if err := exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	type query struct {
		sql  string
		plan *selectPlan
	}
	prepare := func(sql string) *query {
		st, err := db.Prepare(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		db.mu.RLock()
		defer db.mu.RUnlock()
		plan, err := st.selectPlanLocked(st.ast.(*SelectStmt))
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if plan.path == nil || !plan.path.residualFree {
			t.Fatalf("%s: planned path %v, want a residual-free index path", sql, plan.path)
		}
		return &query{sql: sql, plan: plan}
	}
	byU := prepare(`SELECT ID FROM P WHERE U = ?`)
	byK := prepare(`SELECT ID FROM P WHERE K = ?`)
	countK := prepare(`SELECT COUNT(*) FROM P WHERE K = ?`)
	asc := prepare(`SELECT ID, K FROM P WHERE K BETWEEN ? AND ? ORDER BY K`)
	desc := prepare(`SELECT ID, K FROM P WHERE K BETWEEN ? AND ? ORDER BY K DESC`)
	countRange := prepare(`SELECT COUNT(*) FROM P WHERE K BETWEEN ? AND ?`)
	if !countK.plan.indexOnly || !countRange.plan.indexOnly || !desc.plan.path.desc || asc.plan.path.desc {
		t.Fatal("COUNT(*) not planned index-only, or a range scan not planned in its ORDER BY's direction")
	}
	run := func(q *query, snap uint64, args ...int64) [][]sqltypes.Value {
		vals := make([]sqltypes.Value, len(args))
		for i, a := range args {
			vals[i] = sqltypes.NewInt(a)
		}
		db.mu.RLock()
		defer db.mu.RUnlock()
		rows, err := db.runSelectAt(q.plan, vals, snap, nil, nil)
		if err != nil {
			t.Fatalf("%s %v at %d: %v", q.sql, args, snap, err)
		}
		return rows.Data
	}

	type row struct{ u, k int64 }
	type held struct {
		snap uint64
		rows map[int64]row
	}
	cur := map[int64]row{}
	var snaps []held
	var deletedU []int64
	nextID := int64(1)
	uTaken := func(u, except int64) bool {
		for id, r := range cur {
			if r.u == u && id != except {
				return true
			}
		}
		return false
	}
	// liveID picks a current row by b, or reports there is none.
	liveID := func(b int64) (int64, bool) {
		if len(cur) == 0 {
			return 0, false
		}
		ids := make([]int64, 0, len(cur))
		for id := range cur {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids[int(b)%len(ids)], true
	}
	// want lists, ascending, the ids of the rows in m that pass keep.
	want := func(m map[int64]row, keep func(row) bool) []int64 {
		var ids []int64
		for id, r := range m {
			if keep(r) {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		return ids
	}
	// ids returns the first column of rows, ascending, failing on a row
	// delivered twice.
	ids := func(what string, rows [][]sqltypes.Value) []int64 {
		got := make([]int64, len(rows))
		for i, r := range rows {
			got[i] = r[0].Int()
		}
		slices.Sort(got)
		if len(slices.Compact(slices.Clone(got))) != len(got) {
			t.Fatalf("%s: a row delivered twice: %v", what, got)
		}
		return got
	}
	check := func(step int, snap uint64, m map[int64]row) {
		t.Helper()
		for v := int64(0); v < uDomain; v++ {
			what := fmt.Sprintf("step %d, snapshot %d: U = %d", step, snap, v)
			if got, w := ids(what, run(byU, snap, v)), want(m, func(r row) bool { return r.u == v }); !slices.Equal(got, w) {
				t.Fatalf("%s: rows %v, want %v", what, got, w)
			}
		}
		for v := int64(0); v < kDomain; v++ {
			what := fmt.Sprintf("step %d, snapshot %d: K = %d", step, snap, v)
			w := want(m, func(r row) bool { return r.k == v })
			if got := ids(what, run(byK, snap, v)); !slices.Equal(got, w) {
				t.Fatalf("%s: rows %v, want %v", what, got, w)
			}
			if n := run(countK, snap, v)[0][0].Int(); n != int64(len(w)) {
				t.Fatalf("%s: index-only COUNT(*) %d, want %d", what, n, len(w))
			}
		}
		lo, hi := int64(step%kDomain)/2, int64(kDomain-1)
		w := want(m, func(r row) bool { return r.k >= lo && r.k <= hi })
		for _, q := range []*query{asc, desc} {
			what := fmt.Sprintf("step %d, snapshot %d: %s [%d, %d]", step, snap, q.sql, lo, hi)
			rows := run(q, snap, lo, hi)
			for i := 1; i < len(rows); i++ {
				if c := rows[i][1].Int() - rows[i-1][1].Int(); c < 0 && q == asc || c > 0 && q == desc {
					t.Fatalf("%s: K out of order at row %d", what, i)
				}
			}
			if got := ids(what, rows); !slices.Equal(got, w) {
				t.Fatalf("%s: rows %v, want %v", what, got, w)
			}
		}
		if n := run(countRange, snap, lo, hi)[0][0].Int(); n != int64(len(w)) {
			t.Fatalf("step %d, snapshot %d: index-only COUNT(*) over K in [%d, %d] = %d, want %d", step, snap, lo, hi, n, len(w))
		}
	}
	hold := func() {
		if len(snaps) == 4 {
			snaps = snaps[1:]
		}
		snaps = append(snaps, held{snap: db.readSnapshot(), rows: maps.Clone(cur)})
	}
	rolledBack := func(sql string, args ...int64) {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]sqltypes.Value, len(args))
		for i, a := range args {
			vals[i] = sqltypes.NewInt(a)
		}
		tx.Exec(sql, vals...) //nolint:errcheck // a UNIQUE violation rolls back the same
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(u, k int64) {
		err := exec(`INSERT INTO P VALUES (?, ?, ?)`, nextID, u, k)
		if taken := uTaken(u, 0); (err != nil) != taken {
			t.Fatalf("INSERT U = %d: error %v, U taken %v", u, err, taken)
		}
		if err == nil {
			cur[nextID] = row{u: u, k: k}
			nextID++
		}
	}

	for step := 0; len(ops) > 0; step++ {
		next := func() int64 {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int64(b)
		}
		op, a, b := next(), next(), next()
		switch op % 8 {
		case 0:
			insert(a%uDomain, b%kDomain)
		case 1:
			rolledBack(`INSERT INTO P VALUES (?, ?, ?)`, nextID+1000, a%uDomain, b%kDomain)
		case 2:
			id, ok := liveID(b)
			if !ok {
				break
			}
			u, k := a%uDomain, (cur[id].k+1+b%(kDomain-1))%kDomain
			err := exec(`UPDATE P SET U = ?, K = ? WHERE ID = ?`, u, k, id)
			if taken := uTaken(u, id); (err != nil) != taken {
				t.Fatalf("UPDATE U = %d: error %v, U taken %v", u, err, taken)
			}
			if err == nil {
				cur[id] = row{u: u, k: k}
			}
		case 3:
			id, ok := liveID(b)
			if !ok {
				break
			}
			r := cur[id]
			for _, k := range []int64{(r.k + 1 + a%(kDomain-1)) % kDomain, r.k} {
				if err := exec(`UPDATE P SET K = ? WHERE ID = ?`, k, id); err != nil {
					t.Fatal(err)
				}
				cur[id] = row{u: r.u, k: k}
				if k != r.k {
					hold() // the B of A→B→A
				}
			}
		case 4:
			if id, ok := liveID(b); ok {
				rolledBack(`UPDATE P SET U = ?, K = ? WHERE ID = ?`, a%uDomain, (cur[id].k+1)%kDomain, id)
			}
		case 5:
			if id, ok := liveID(b); ok {
				if err := exec(`DELETE FROM P WHERE ID = ?`, id); err != nil {
					t.Fatal(err)
				}
				deletedU = append(deletedU, cur[id].u)
				delete(cur, id)
			}
		case 6:
			if len(deletedU) > 0 {
				insert(deletedU[int(a)%len(deletedU)], b%kDomain)
			}
		case 7:
			if err := db.Vacuum(); err != nil {
				t.Fatal(err)
			}
			snaps = nil
			// Every row now has one version: index-only COUNT(*) reads
			// no heap row.
			before := db.HeapRowReads("P")
			run(countRange, db.readSnapshot(), 0, kDomain-1)
			if n := db.HeapRowReads("P") - before; n != 0 {
				t.Fatalf("step %d: index-only COUNT(*) after VACUUM read %d heap rows", step, n)
			}
		}
		hold()
		for _, h := range snaps {
			check(step, h.snap, h.rows)
		}
	}
}

// TestPostingVisibilityModel runs seeded random step sequences through
// runPostingVisibility.
func TestPostingVisibilityModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 600)
		rng.Read(ops)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runPostingVisibility(t, ops) })
	}
}

// FuzzPostingVisibility: any step sequence keeps every held snapshot's
// point lookups, range scans and index-only COUNTs equal to the model.
// Inputs past 40 steps are skipped, not cut: bytes that change nothing
// would make the fuzzer minimise long inputs one byte at a time.
func FuzzPostingVisibility(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 1, 2, 3, 0, 0, 3, 0, 0},          // insert, A→B→A
		{0, 1, 2, 2, 0, 0, 7, 0, 0, 2, 3, 0}, // insert, update, vacuum, update
		{0, 1, 1, 5, 0, 0, 6, 0, 3, 7, 0, 0}, // insert, delete, re-insert its U, vacuum
		{0, 1, 1, 1, 1, 1, 4, 2, 0, 7, 0, 0}, // aborted insert and update, vacuum
		{0, 2, 2, 0, 3, 3, 2, 3, 0, 3, 1, 1, 5, 0, 0, 7, 0, 0, 2, 0, 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 120 {
			t.Skip()
		}
		runPostingVisibility(t, ops)
	})
}
