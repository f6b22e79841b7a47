package sqldb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/sqltypes"
)

// Chaos soak: the crash-recovery soak's disk-fault schedules combined
// with cancel-heavy load. Every insert runs under a context canceled at
// a random point, four workers contend for the engine, and the
// scripted crash still fires mid-I/O.
// The oracle is the crash soak's committed-prefix contract plus one
// new clause with real teeth:
//
//   - a statement that returned ErrCanceled without a concurrent
//     injected crash contributed NOTHING — its row must be absent
//     after recovery, every round, under -race.
//
// Env knobs (CI runs the bounded version; scripts/soak.sh SOAK_CHAOS=1
// runs the long one):
//
//	CHAOS_SCHEDULES — number of seeded schedules (default 25)
//	CHAOS_SEED      — base seed (default 1); schedule i uses seed+i

// chaosOutcome classifies one governed insert for the oracle.
func chaosRecord(o *soakOracle, canceled map[int64]bool, mu *sync.Mutex, k int64, err error) {
	switch {
	case err == nil:
		o.mu.Lock()
		o.acked[k] = true
		o.mu.Unlock()
	case (errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded)) && !errors.Is(err, iofault.ErrCrashed):
		// Cleanly governed failure: the statement unwound pre-WAL-stage.
		// It must have no visible effect, ever.
		mu.Lock()
		canceled[k] = true
		mu.Unlock()
	default:
		// Crash-tainted or poisoned: outcome unknown, stays in the
		// attempted set only (the crash soak's limbo semantics).
	}
}

// runChaosWorkload is runWorkload's cancel-heavy sibling: all inserts
// run under randomly canceled contexts, transactions and deletes stay
// ungoverned (crash-only limbo), and checkpoints still fire under load.
func runChaosWorkload(db *DB, faults *iofault.Faults, rng *rand.Rand, o *soakOracle, canceled map[int64]bool, mu *sync.Mutex, nextID *int64) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50 && !faults.Crashed(); i++ {
				switch r := wrng.Intn(100); {
				case r < 70: // insert under a randomly canceled context
					o.mu.Lock()
					k := *nextID
					*nextID++
					o.attempted[k] = true
					o.mu.Unlock()
					ctx, cancel := context.WithCancel(context.Background())
					timer := time.AfterFunc(time.Duration(wrng.Intn(1200))*time.Microsecond, cancel)
					_, err := db.ExecContext(ctx, `INSERT INTO `+soakTable(k)+` VALUES (?)`, sqltypes.NewInt(k))
					timer.Stop()
					cancel()
					soakLogf("  chaos insert %d -> %v", k, err)
					chaosRecord(o, canceled, mu, k, err)
				case r < 85: // multi-row transaction, ungoverned (atomicity probe)
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
						if _, err := tx.Exec(`INSERT INTO `+soakTable(k)+` VALUES (?)`, sqltypes.NewInt(k)); err != nil {
							ok = false
							break
						}
					}
					if !ok {
						tx.Rollback() //nolint:errcheck
						continue
					}
					if tx.Commit() == nil {
						o.mu.Lock()
						o.groupAck[gi] = true
						o.mu.Unlock()
					}
				case r < 93: // ungoverned delete of an acknowledged row
					o.mu.Lock()
					var victim int64 = -1
					for k := range o.acked {
						if !o.deleted[k] {
							victim = k
							break
						}
					}
					if victim >= 0 {
						o.delLimbo[victim] = true
					}
					o.mu.Unlock()
					if victim < 0 {
						continue
					}
					_, err := db.Exec(`DELETE FROM `+soakTable(victim)+` WHERE ID = ?`, sqltypes.NewInt(victim))
					if err == nil {
						o.mu.Lock()
						o.deleted[victim] = true
						delete(o.delLimbo, victim)
						o.mu.Unlock()
					}
				default: // checkpoint under fire
					_ = db.Checkpoint()
				}
			}
		}(rng.Int63())
	}
	wg.Wait()
}

// chaosPresent collects every visible row id from a recovered database.
func chaosPresent(t *testing.T, db *DB) map[int64]bool {
	t.Helper()
	present := make(map[int64]bool)
	for _, table := range []string{"K", "K2"} {
		rows, err := db.Query(`SELECT ID FROM ` + table)
		if err != nil {
			t.Fatalf("chaos oracle query (%s): %v", table, err)
		}
		for _, r := range rows.Data {
			present[r[0].Int()] = true
		}
	}
	return present
}

// TestChaosCancelSoak drives seeded schedules of crash + cancel chaos
// and holds every recovery to the extended oracle.
func TestChaosCancelSoak(t *testing.T) {
	schedules := soakEnvInt("CHAOS_SCHEDULES", 25)
	baseSeed := int64(soakEnvInt("CHAOS_SEED", 1))
	if testing.Short() {
		schedules = 5
	}

	for s := 0; s < schedules; s++ {
		s := s
		t.Run(fmt.Sprintf("schedule-%03d", s), func(t *testing.T) {
			rng := rand.New(rand.NewSource(baseSeed + int64(s)))
			dir := t.TempDir()
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
			canceled := make(map[int64]bool)
			var mu sync.Mutex
			var nextID int64
			rounds := 2 + rng.Intn(2)
			for round := 0; round < rounds; round++ {
				faults := iofault.New(nil)
				armEarly := rng.Intn(3) == 0
				crashAfter := 5 + rng.Intn(50)
				torn := rng.Intn(64)
				if armEarly {
					faults.CrashAfterOps("", crashAfter, torn)
				}
				db, err := OpenWith(dir, Options{FS: faults})
				if err != nil {
					if !errors.Is(err, iofault.ErrCrashed) {
						t.Fatalf("round %d: open under injector failed for a non-crash reason: %v", round, err)
					}
				} else {
					if !armEarly {
						faults.CrashAfterOps("", crashAfter, torn)
					}
					db.CheckpointEvery = 4 + rng.Intn(9)
					runChaosWorkload(db, faults, rng, o, canceled, &mu, &nextID)
					db.Close() //nolint:errcheck // post-crash close only releases fds
				}

				clean, err := Open(dir)
				if err != nil {
					t.Fatalf("round %d: refused to reopen after chaos (seed %d): %v", round, baseSeed+int64(s), err)
				}
				o.verify(t, clean, round)
				present := chaosPresent(t, clean)
				mu.Lock()
				for k := range canceled {
					if present[k] {
						mu.Unlock()
						t.Fatalf("round %d: CANCELED STATEMENT LEAKED: insert %d returned ErrCanceled but its row survived recovery (seed %d)",
							round, k, baseSeed+int64(s))
					}
				}
				mu.Unlock()
				if err := clean.Close(); err != nil {
					t.Fatalf("round %d: clean close: %v", round, err)
				}
			}
		})
	}
}
