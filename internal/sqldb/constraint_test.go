package sqldb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/iofault"
	"repro/internal/sqltypes"
)

// TestUniqueFarIntegerKeys: integers beyond ±2^53 share an index key
// (key.go encodes the float64 image), so a constraint decided on key
// equality alone rejects 2^53+1 once 2^53 is stored. The holder of a
// colliding key is compared on its exact values before it counts.
func TestUniqueFarIntegerKeys(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE T (ID BIGINT PRIMARY KEY, V INTEGER, UNIQUE (V))`)
	const far = int64(1) << 53
	mustExec(t, db, `INSERT INTO T VALUES (?, ?)`, sqltypes.NewInt(far), sqltypes.NewInt(-far))
	mustExec(t, db, `INSERT INTO T VALUES (?, ?)`, sqltypes.NewInt(far+1), sqltypes.NewInt(-far-1))
	if _, err := db.Exec(`INSERT INTO T VALUES (?, 0)`, sqltypes.NewInt(far+1)); err == nil {
		t.Fatal("a true PRIMARY KEY duplicate at 2^53+1 was accepted")
	}
	if _, err := db.Exec(`INSERT INTO T VALUES (0, ?)`, sqltypes.NewInt(-far-1)); err == nil {
		t.Fatal("a true UNIQUE duplicate at -(2^53+1) was accepted")
	}
	// A rewrite that keeps the key image: still told apart from its neighbour.
	if _, err := db.Exec(`UPDATE T SET ID = ? WHERE ID = ?`, sqltypes.NewInt(far+1), sqltypes.NewInt(far)); err == nil {
		t.Fatal("UPDATE onto the neighbour's exact key was accepted")
	}
	mustExec(t, db, `UPDATE T SET ID = ? WHERE ID = ?`, sqltypes.NewInt(far+2), sqltypes.NewInt(far))
	rows := mustQuery(t, db, `SELECT ID FROM T WHERE ID = ?`, sqltypes.NewInt(far+2))
	if len(rows.Data) != 1 || rows.Data[0][0].Int() != far+2 {
		t.Fatalf("lookup of 2^53+2 returned %v", rows.Data)
	}
}

// TestConstraintIndexNamesAreReserved: the constraint indexes' fixed
// names are not identifiers any statement can reach — not to drop the
// index that enforces a key, not to shadow it with a named one.
func TestConstraintIndexNamesAreReserved(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE T (ID INTEGER PRIMARY KEY, A INTEGER, B INTEGER, UNIQUE (A, B))`)
	for _, sql := range []string{
		`DROP INDEX "PRIMARY KEY"`,
		`DROP INDEX "UNIQUE(A,B)"`,
		`CREATE INDEX "PRIMARY KEY" ON T (A)`,
		`CREATE INDEX "UNIQUE(A,B)" ON T (B)`,
	} {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%s succeeded", sql)
		}
	}
	mustExec(t, db, `INSERT INTO T VALUES (1, 1, 1)`)
	if _, err := db.Exec(`INSERT INTO T VALUES (1, 2, 2)`); err == nil {
		t.Error("PRIMARY KEY no longer enforced")
	}
	if _, err := db.Exec(`INSERT INTO T VALUES (2, 1, 1)`); err == nil {
		t.Error("UNIQUE no longer enforced")
	}
	// A named index over the same columns is a second tree, not an error:
	// archives written before keys were planner-visible hold such DDL.
	mustExec(t, db, `CREATE INDEX IX ON T (ID) USING HASH`)
	if _, err := db.Exec(`CREATE INDEX IX2 ON T (ID)`); err == nil {
		t.Error("two named indexes over the same columns accepted")
	}
}

// ---------- constraint enforcement against a map model ----------

// conRow is the model's copy of one row of
// C (ID BIGINT PRIMARY KEY, A INTEGER, B VARCHAR(4), V INTEGER, UNIQUE (A, B)).
type conRow struct {
	a, b sqltypes.Value // NULLable
	v    int64
}

type conModel map[int64]conRow

func (m conModel) clone() conModel {
	c := make(conModel, len(m))
	for id, r := range m {
		c[id] = r
	}
	return c
}

// uniqueTaken reports whether a row other than self holds (a, b); rows
// with a NULL in either column are exempt.
func (m conModel) uniqueTaken(a, b sqltypes.Value, self int64) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	for id, r := range m {
		if id != self && !r.a.IsNull() && !r.b.IsNull() && r.a.Int() == a.Int() && r.b.Str() == b.Str() {
			return true
		}
	}
	return false
}

// conExec is what a step runs statements through: the database itself
// or an open transaction.
type conExec interface {
	Exec(sql string, args ...sqltypes.Value) (Result, error)
}

// conStep applies one random single-row statement to both sides and
// fails the test when the engine's accept/reject decision differs from
// the model's. The model is only mutated on accept.
func conStep(t *testing.T, rng *rand.Rand, x conExec, m conModel) {
	t.Helper()
	ids := []int64{0, 1, 2, 3, 4, 5, 6, 7, 1 << 53, 1<<53 + 1, 1<<53 + 2}
	id := ids[rng.Intn(len(ids))]
	nullable := func(v sqltypes.Value) sqltypes.Value {
		if rng.Intn(4) == 0 {
			return sqltypes.Null
		}
		return v
	}
	a := nullable(sqltypes.NewInt(int64(rng.Intn(3))))
	b := nullable(sqltypes.NewString([]string{"x", "y", "z"}[rng.Intn(3)]))
	old, exists := m[id]
	var (
		sql    string
		args   []sqltypes.Value
		accept bool
		apply  func()
	)
	switch rng.Intn(5) {
	case 0, 1: // INSERT
		sql, args = `INSERT INTO C VALUES (?, ?, ?, 0)`, []sqltypes.Value{sqltypes.NewInt(id), a, b}
		accept = !exists && !m.uniqueTaken(a, b, id)
		apply = func() { m[id] = conRow{a: a, b: b} }
	case 2: // key-changing UPDATE of the primary key
		to := ids[rng.Intn(len(ids))]
		sql, args = `UPDATE C SET ID = ? WHERE ID = ?`, []sqltypes.Value{sqltypes.NewInt(to), sqltypes.NewInt(id)}
		_, taken := m[to]
		accept = !exists || to == id || !taken
		apply = func() {
			if exists {
				delete(m, id)
				m[to] = old
			}
		}
	case 3: // UPDATE of the UNIQUE tuple (key-preserving for the PK)
		sql, args = `UPDATE C SET A = ?, B = ?, V = V + 1 WHERE ID = ?`, []sqltypes.Value{a, b, sqltypes.NewInt(id)}
		accept = !exists || !m.uniqueTaken(a, b, id)
		apply = func() {
			if exists {
				m[id] = conRow{a: a, b: b, v: old.v + 1}
			}
		}
	case 4: // DELETE
		sql, args = `DELETE FROM C WHERE ID = ?`, []sqltypes.Value{sqltypes.NewInt(id)}
		accept = true
		apply = func() { delete(m, id) }
	}
	_, err := x.Exec(sql, args...)
	if (err == nil) != accept {
		t.Fatalf("%s %v: engine err=%v, model accept=%v", sql, args, err, accept)
	}
	if accept {
		apply()
	}
}

// conCheck compares the whole table with the model, through the heap
// and — row by row — through the PRIMARY KEY index.
func conCheck(t *testing.T, db *DB, m conModel) {
	t.Helper()
	render := func(id int64, a, b sqltypes.Value, v int64) string {
		return fmt.Sprintf("%d|%s|%s|%d", id, a.AsString(), b.AsString(), v)
	}
	var want, got []string
	for id, r := range m {
		want = append(want, render(id, r.a, r.b, r.v))
		rows := mustQuery(t, db, `SELECT V FROM C WHERE ID = ?`, sqltypes.NewInt(id))
		if len(rows.Data) != 1 || rows.Data[0][0].Int() != r.v {
			t.Fatalf("ID %d through the key index: %v, want V=%d", id, rows.Data, r.v)
		}
	}
	rows := mustQuery(t, db, `SELECT ID, A, B, V FROM C`) // no WHERE: a heap scan
	for _, r := range rows.Data {
		got = append(got, render(r[0].Int(), r[1], r[2], r[3].Int()))
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("table differs from model:\n got %v\nwant %v", got, want)
	}
}

// TestConstraintDifferential drives PRIMARY KEY / UNIQUE enforcement —
// which rides the indexes' MVCC postings — against a plain map: random
// INSERT, key-changing and key-preserving UPDATE, DELETE,
// delete-then-reinsert inside one transaction, ROLLBACK, NULLs in the
// UNIQUE columns, far-integer keys, Vacuum between steps and an
// fsync-failure unwind followed by recovery. Every accept/reject
// decision and the final table must equal the model's.
func TestConstraintDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dir := t.TempDir()
	faults := iofault.New(nil)
	db, err := OpenWith(dir, Options{FS: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	mustExec(t, db, `CREATE TABLE C (ID BIGINT PRIMARY KEY, A INTEGER, B VARCHAR(4), V INTEGER, UNIQUE (A, B))`)
	m := conModel{}

	inTx := func(commit bool, body func(tx *Tx, tm conModel)) {
		t.Helper()
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		tm := m.clone()
		body(tx, tm)
		if !commit {
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		m = tm
	}
	for step := 0; step < 3000; step++ {
		switch r := rng.Intn(40); {
		case step == 1000 || step == 2000:
			// An acknowledged-looking commit whose fsync fails is unwound:
			// the postings it ended are current again, the ones it created
			// are gone, and recovery rebuilds the same state from the log.
			faults.FailSync("wal.log")
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			tm := m.clone()
			for i := 0; i < 6; i++ {
				conStep(t, rng, tx, tm)
			}
			if _, err := tx.Exec(`INSERT INTO C VALUES (99, NULL, NULL, 0)`); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err == nil {
				t.Fatal("commit acknowledged through a failing fsync")
			}
			conCheck(t, db, m)
			faults.HealSync("wal.log")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = OpenWith(dir, Options{FS: faults}); err != nil {
				t.Fatal(err)
			}
		case r == 0:
			if err := db.Vacuum(); err != nil {
				t.Fatal(err)
			}
		case r == 1: // a few statements, committed or rolled back
			inTx(rng.Intn(2) == 0, func(tx *Tx, tm conModel) {
				for i := rng.Intn(4) + 1; i > 0; i-- {
					conStep(t, rng, tx, tm)
				}
			})
		case r == 2 && len(m) > 0: // delete-then-reinsert of one key in one transaction
			held := make([]int64, 0, len(m))
			for id := range m {
				held = append(held, id)
			}
			sort.Slice(held, func(i, j int) bool { return held[i] < held[j] })
			id := held[rng.Intn(len(held))]
			inTx(rng.Intn(3) > 0, func(tx *Tx, tm conModel) {
				old := tm[id]
				if _, err := tx.Exec(`DELETE FROM C WHERE ID = ?`, sqltypes.NewInt(id)); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Exec(`INSERT INTO C VALUES (?, ?, ?, ?)`,
					sqltypes.NewInt(id), old.a, old.b, sqltypes.NewInt(old.v+100)); err != nil {
					t.Fatalf("reinsert of a key deleted in the same transaction: %v", err)
				}
				tm[id] = conRow{a: old.a, b: old.b, v: old.v + 100}
			})
		default:
			conStep(t, rng, db, m)
		}
		if step%250 == 0 {
			conCheck(t, db, m)
		}
	}
	conCheck(t, db, m)
	if len(m) == 0 {
		t.Fatal("model ended empty: the generator is not exercising anything")
	}
}
