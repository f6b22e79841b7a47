package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/iofault"
	"repro/internal/sqltypes"
)

// Randomized crash-recovery soak: N seeded crash schedules, each a
// sequence of rounds that open the database under a scripted crash
// point, commit work until the "process" dies mid-I/O, then reopen on a
// clean disk and check the committed-transaction oracle:
//
//   - zero committed loss: every acknowledged insert is present, every
//     acknowledged delete is absent;
//   - no phantoms: every present row was at least attempted;
//   - atomicity: a multi-row transaction is all-in or all-out;
//   - honest recovery: a directory that saw only crashes (never
//     corruption of synced data) always reopens without refusal.
//
// Env knobs (CI runs the bounded version, scripts/soak.sh the long one):
//
//	SOAK_SCHEDULES — number of seeded schedules (default 100)
//	SOAK_SEED      — base seed (default 1); schedule i uses seed+i

var soakDebug = os.Getenv("SOAK_DEBUG") != ""

func soakLogf(format string, args ...any) {
	if soakDebug {
		fmt.Printf(format+"\n", args...)
	}
}

func soakEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// soakOracle tracks ground truth across crash rounds of one schedule.
type soakOracle struct {
	mu       sync.Mutex
	acked    map[int64]bool // insert acknowledged, must be present
	deleted  map[int64]bool // delete acknowledged, must be absent
	delLimbo map[int64]bool // delete attempted, outcome unknown: the
	// commit record may have hit the platter before the crash killed the
	// acknowledgement, so the row is legitimately either present or absent
	attempted map[int64]bool // insert issued (outcome possibly unknown)
	groups    [][]int64      // multi-row transactions, for atomicity
	groupAck  map[int]bool   // index into groups → commit acknowledged
}

func newSoakOracle() *soakOracle {
	return &soakOracle{
		acked:     make(map[int64]bool),
		deleted:   make(map[int64]bool),
		delLimbo:  make(map[int64]bool),
		attempted: make(map[int64]bool),
		groupAck:  make(map[int]bool),
	}
}

// soakTable routes a row id to its table: even ids live in K, odd in
// K2. Concurrent workers on two tables take the barrier in turn but
// overlap their WAL flushes, so crash schedules capture commit stamps
// from interleaved group commits that recovery must replay in order.
func soakTable(k int64) string {
	if k%2 == 0 {
		return "K"
	}
	return "K2"
}

// verify checks the oracle against a freshly recovered database.
func (o *soakOracle) verify(t *testing.T, db *DB, round int) {
	t.Helper()
	present := make(map[int64]bool)
	for _, table := range []string{"K", "K2"} {
		rows, err := db.Query(`SELECT ID FROM ` + table)
		if err != nil {
			t.Fatalf("round %d: oracle query (%s): %v", round, table, err)
		}
		for _, r := range rows.Data {
			k := r[0].Int()
			if soakTable(k) != table {
				t.Fatalf("round %d: row %d recovered into %s, belongs in %s", round, k, table, soakTable(k))
			}
			present[k] = true
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for k := range o.acked {
		if o.deleted[k] || o.delLimbo[k] {
			continue // absent, or in-flight delete with unknown outcome
		}
		if !present[k] {
			t.Fatalf("round %d: COMMITTED ROW LOST: id %d was acknowledged but is gone after recovery", round, k)
		}
	}
	for k := range o.deleted {
		if present[k] {
			t.Fatalf("round %d: acknowledged delete of id %d resurrected after recovery", round, k)
		}
	}
	for k := range present {
		if !o.attempted[k] {
			t.Fatalf("round %d: phantom row %d present but never attempted", round, k)
		}
	}
	for gi, g := range o.groups {
		n := 0
		for _, k := range g {
			if present[k] && !o.deleted[k] {
				n++
			}
		}
		if o.groupAck[gi] {
			if n != len(g) {
				t.Fatalf("round %d: committed tx group %v only %d/%d present", round, g, n, len(g))
			}
		} else if n != 0 && n != len(g) {
			t.Fatalf("round %d: tx group %v torn: %d/%d present (atomicity violated)", round, g, n, len(g))
		}
	}
}

// runWorkload issues operations against db until the crash point fires
// (or the op budget runs out), updating the oracle. nextID hands out
// fresh row ids; withConcurrency splits the work across goroutines to
// push crashes into the group-commit path.
func runWorkload(db *DB, faults *iofault.Faults, rng *rand.Rand, o *soakOracle, nextID *int64, withConcurrency bool) {
	workers := 1
	if withConcurrency {
		workers = 4
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60 && !faults.Crashed(); i++ {
				switch r := wrng.Intn(100); {
				case r < 70: // single insert
					o.mu.Lock()
					k := *nextID
					*nextID++
					o.attempted[k] = true
					o.mu.Unlock()
					_, err := db.Exec(`INSERT INTO `+soakTable(k)+` VALUES (?)`, sqltypes.NewInt(k))
					soakLogf("  insert %d -> %v", k, err)
					if err == nil {
						o.mu.Lock()
						o.acked[k] = true
						o.mu.Unlock()
					}
				case r < 85: // multi-row transaction (atomicity probe)
					o.mu.Lock()
					g := make([]int64, 3)
					for j := range g {
						g[j] = *nextID
						*nextID++
						o.attempted[g[j]] = true
					}
					o.groups = append(o.groups, g)
					gi := len(o.groups) - 1
					o.mu.Unlock()
					tx, err := db.Begin()
					if err != nil {
						continue
					}
					ok := true
					for _, k := range g {
						// Consecutive ids straddle both tables, so one
						// transaction's stamps land in two heaps and its
						// atomicity survives a cross-table replay.
						if _, err := tx.Exec(`INSERT INTO `+soakTable(k)+` VALUES (?)`, sqltypes.NewInt(k)); err != nil {
							ok = false
							break
						}
					}
					if !ok {
						tx.Rollback() //nolint:errcheck
						continue
					}
					err = tx.Commit()
					soakLogf("  tx %v -> %v", g, err)
					if err == nil {
						o.mu.Lock()
						o.groupAck[gi] = true
						o.mu.Unlock()
					}
				case r < 93: // delete an acknowledged row
					o.mu.Lock()
					var victim int64 = -1
					for k := range o.acked {
						if !o.deleted[k] {
							victim = k
							break
						}
					}
					o.mu.Unlock()
					if victim < 0 {
						continue
					}
					o.mu.Lock()
					o.delLimbo[victim] = true
					o.mu.Unlock()
					_, err := db.Exec(`DELETE FROM `+soakTable(victim)+` WHERE ID = ?`, sqltypes.NewInt(victim))
					soakLogf("  delete %d -> %v", victim, err)
					if err == nil {
						o.mu.Lock()
						o.deleted[victim] = true
						delete(o.delLimbo, victim)
						o.mu.Unlock()
					}
				default: // checkpoint under fire
					err := db.Checkpoint()
					soakLogf("  checkpoint -> %v", err)
					_ = err
				}
			}
		}(rng.Int63())
	}
	wg.Wait()
}

// TestCrashRecoverySoak is the randomized soak. Each schedule's rounds
// share one database directory: crash state accumulates exactly as it
// would on a real host that keeps crashing and restarting.
func TestCrashRecoverySoak(t *testing.T) {
	schedules := soakEnvInt("SOAK_SCHEDULES", 100)
	baseSeed := int64(soakEnvInt("SOAK_SEED", 1))
	if testing.Short() {
		schedules = 10
	}

	for s := 0; s < schedules; s++ {
		s := s
		t.Run(fmt.Sprintf("schedule-%03d", s), func(t *testing.T) {
			rng := rand.New(rand.NewSource(baseSeed + int64(s)))
			dir := t.TempDir()

			// Setup on a clean disk: schema only.
			db, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(`CREATE TABLE K (ID INTEGER PRIMARY KEY)`); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(`CREATE TABLE K2 (ID INTEGER PRIMARY KEY)`); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			o := newSoakOracle()
			var nextID int64
			rounds := 3 + rng.Intn(3)
			for round := 0; round < rounds; round++ {
				faults := iofault.New(nil)
				// Arm the crash before the open about a third of the time,
				// so recovery itself (tail truncation, epoch rotation,
				// checkpoint-on-close) also runs into crash points.
				armEarly := rng.Intn(3) == 0
				crashAfter := 1 + rng.Intn(40)
				torn := rng.Intn(64)
				if armEarly {
					faults.CrashAfterOps("", crashAfter, torn)
				}
				soakLogf("round %d: armEarly=%v crashAfter=%d torn=%d", round, armEarly, crashAfter, torn)
				db, err := OpenWith(dir, Options{FS: faults})
				if err != nil {
					soakLogf("  open -> %v", err)
					if !errors.Is(err, iofault.ErrCrashed) {
						t.Fatalf("round %d: open under injector failed for a non-crash reason: %v", round, err)
					}
				} else {
					if !armEarly {
						faults.CrashAfterOps("", crashAfter, torn)
					}
					db.CheckpointEvery = 4 + rng.Intn(9)
					// Two rounds in three run four workers: their
					// commits interleave stamps across K and K2, which the
					// post-crash replay must reproduce in order.
					runWorkload(db, faults, rng, o, &nextID, round%3 != 0)
					db.Close() //nolint:errcheck // post-crash close only releases fds
				}

				// The moment of truth: reopen on a clean disk. A history of
				// crashes alone must never look like corruption — recovery
				// either finds a clean tail or truncates a torn one, and
				// every acknowledged transaction is intact.
				clean, err := Open(dir)
				if err != nil {
					t.Fatalf("round %d: refused to reopen after crash (seed %d): %v", round, baseSeed+int64(s), err)
				}
				soakLogf("  recovery: %+v", clean.Recovery())
				o.verify(t, clean, round)
				if err := clean.Close(); err != nil {
					t.Fatalf("round %d: clean close: %v", round, err)
				}
			}
		})
	}
}

// TestSoakHonestRefusal closes the loop on the "honest refusal"
// acceptance criterion inside the soak harness: take a crashed-and-
// recovered directory, corrupt synced WAL data mid-log, and require the
// typed refusal rather than silent truncation.
func TestSoakHonestRefusal(t *testing.T) {
	dir := seedDB(t, 12)
	wal := dir + "/wal.log"
	offs, _ := frameOffsets(t, wal)
	if err := iofault.FlipBit(wal, offs[len(offs)/2]+9); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("mid-log corruption after crash history: %v, want ErrWALCorrupt", err)
	}
}
