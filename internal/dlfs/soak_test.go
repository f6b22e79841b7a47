package dlfs

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/med"
	"repro/internal/sqltypes"
)

// Randomized crash soak for the link registry, the store's counterpart
// of sqldb's TestCrashRecoverySoak: seeded schedules of rounds that open
// the store under a scripted crash point, change link state until the
// "process" dies mid-I/O, then reopen on what reached the disk and hold
// it to a model of the acknowledged state:
//
//   - every acknowledged state change is present;
//   - the change in flight at the crash is, path by path, wholly there
//     or wholly not, and a multi-path Commit kept a prefix of its paths;
//   - no path appears that was never touched;
//   - a history of crashes alone never reads as corruption, and the
//     first append after a torn-tail open lands on a frame boundary;
//   - a bit flipped in a frame with intact frames after it refuses the
//     open with ErrRegistryCorrupt, the same flip in the last frame is a
//     torn tail.
//
// SOAK_SCHEDULES and SOAK_SEED scale and seed it as they do sqldb's.

func soakEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// soakState is what the registry says about one path.
type soakState int

const (
	soakAbsent soakState = iota
	soakLinked
	soakTombstoned
)

func soakObserve(s *Store) map[string]soakState {
	seen := make(map[string]soakState)
	for _, ls := range s.LinkStates() {
		if ls.Tombstone() {
			seen[ls.Path] = soakTombstoned
		} else {
			seen[ls.Path] = soakLinked
		}
	}
	return seen
}

// soakChange is one state change: the paths it touches, in record
// order, and the state each ends in.
type soakChange struct {
	paths []string
	to    soakState
}

// soakStep issues one random state change against s and reports it with
// the error it returned. The few paths are reused constantly, so the
// log outgrows its live set and compacts every few dozen changes.
func soakStep(t *testing.T, s *Store, rng *rand.Rand, model map[string]soakState, tx *uint64) (soakChange, error) {
	t.Helper()
	const nPaths = 10
	link := rng.Intn(2) == 0
	ch := soakChange{to: soakTombstoned}
	if link {
		ch.to = soakLinked
	}
	// Up to three paths the change applies to: linked ones to unlink,
	// any others to link (an ON UNLINK DELETE may have removed the file).
	want := 1 + rng.Intn(3)
	for _, i := range rng.Perm(nPaths) {
		p := fmt.Sprintf("/soak/%d.dat", i)
		if (model[p] == soakLinked) != link && len(ch.paths) < want {
			ch.paths = append(ch.paths, p)
			if link {
				writePayload(t, s.Root(), p)
			}
		}
	}
	if len(ch.paths) == 0 {
		return ch, nil
	}
	opts := sqltypes.DefaultEASIA()
	if rng.Intn(4) == 0 {
		opts.OnUnlink = sqltypes.UnlinkDelete
	}
	if rng.Intn(2) == 0 { // 2PC: every path in one Commit
		kind := med.OpUnlink
		if link {
			kind = med.OpLink
		}
		*tx++
		for _, p := range ch.paths {
			if err := s.Prepare(*tx, med.LinkOp{Kind: kind, Path: p, Opts: opts}); err != nil {
				t.Fatalf("Prepare %s: %v", p, err)
			}
		}
		return ch, s.Commit(*tx)
	}
	ch.paths = ch.paths[:1]
	if link {
		return ch, s.EnsureLinked(ch.paths[0], opts)
	}
	return ch, s.EnsureUnlinked(ch.paths[0], time.Now())
}

func TestStoreCrashSoak(t *testing.T) {
	schedules := soakEnvInt("SOAK_SCHEDULES", 60)
	baseSeed := int64(soakEnvInt("SOAK_SEED", 1))
	if testing.Short() {
		schedules = 10
	}
	for sched := 0; sched < schedules; sched++ {
		seed := baseSeed + int64(sched)
		t.Run(fmt.Sprintf("schedule-%03d", sched), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, "soak"), 0o755); err != nil {
				t.Fatal(err)
			}
			model := make(map[string]soakState) // acknowledged state
			var tx uint64
			rounds := 3 + rng.Intn(4)
			for round := 0; round < rounds; round++ {
				faults := iofault.New(nil)
				// A third of the rounds arm the crash before the open, so
				// that its tail truncation meets it too; a third arm it
				// once the store is open; the rest wait until the next
				// change is due to compact, so that every op of the
				// rewrite (tmp write, fsync, rename, dir fsync) gets hit.
				mode := rng.Intn(3)
				crashAfter, torn := 1+rng.Intn(90), rng.Intn(300)
				if mode == 0 {
					faults.CrashAfterOps("", crashAfter, torn)
				}
				var limbo soakChange
				s, err := NewStoreFS(dir, faults)
				if err != nil {
					if !errors.Is(err, iofault.ErrCrashed) {
						t.Fatalf("round %d: open under the injector failed for a non-crash reason: %v", round, err)
					}
				} else {
					if mode == 1 {
						faults.CrashAfterOps("", crashAfter, torn)
					}
					for i := 0; i < 120 && !faults.Crashed(); i++ {
						if mode == 2 && s.compactionDueLocked(1) {
							mode = 1
							faults.CrashAfterOps("", 1+rng.Intn(6), torn)
						}
						ch, err := soakStep(t, s, rng, model, &tx)
						if err == nil {
							for _, p := range ch.paths {
								model[p] = ch.to
							}
						} else if !faults.Crashed() {
							t.Fatalf("round %d: state change failed without a crash: %v", round, err)
						} else {
							limbo = ch
						}
					}
				}

				// Reopen on the surviving bytes.
				clean, err := NewStore(dir)
				if err != nil {
					t.Fatalf("round %d: refused to reopen after a crash (seed %d): %v", round, seed, err)
				}
				requireCleanRegistryIfAny(t, dir)
				seen := soakObserve(clean)
				kept := 0 // limbo paths that reached the disk
				for i, p := range limbo.paths {
					if seen[p] == limbo.to && model[p] != limbo.to {
						if kept != i {
							t.Fatalf("round %d: crashed Commit of %v kept %s but lost an earlier path", round, limbo.paths, p)
						}
						kept++
						model[p] = limbo.to
					}
				}
				for p, st := range model {
					if seen[p] != st {
						t.Fatalf("round %d (seed %d): %s is %d after recovery, acknowledged as %d", round, seed, p, seen[p], st)
					}
				}
				for p := range seen {
					if _, touched := model[p]; !touched {
						t.Fatalf("round %d (seed %d): phantom path %s after recovery", round, seed, p)
					}
				}

				// The first append behind whatever tail that open cut
				// off must land on a frame boundary.
				ch, err := soakStep(t, clean, rng, model, &tx)
				if err != nil {
					t.Fatalf("round %d: state change on the recovered store: %v", round, err)
				}
				for _, p := range ch.paths {
					model[p] = ch.to
				}
				requireCleanRegistryIfAny(t, dir)
			}
			soakHonestRefusal(t, rng, dir)
		})
	}
}

// requireCleanRegistryIfAny is requireCleanRegistry for a store that
// may not have made its first state change yet.
func requireCleanRegistryIfAny(t *testing.T, root string) {
	t.Helper()
	if _, err := os.Stat(registryFilePath(root)); err == nil {
		requireCleanRegistry(t, root)
	}
}

// soakHonestRefusal damages one bit of a crashed-and-recovered registry
// and requires the typed refusal when intact records follow the damage,
// and a truncated tail when none do.
func soakHonestRefusal(t *testing.T, rng *rand.Rand, dir string) {
	t.Helper()
	path := registryFilePath(dir)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := registryFrameOffsets(t, dir)
	if len(offs) < 2 {
		return
	}
	last := offs[len(offs)-1]
	flip := func(off int64) error {
		t.Helper()
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := iofault.FlipBit(path, off); err != nil {
			t.Fatal(err)
		}
		_, err := NewStore(dir)
		return err
	}
	mid := int64(len(registryMagic)) + rng.Int63n(last-int64(len(registryMagic)))
	if err := flip(mid); !errors.Is(err, ErrRegistryCorrupt) {
		t.Fatalf("bit flipped at byte %d, before the last frame at %d: open returned %v, want ErrRegistryCorrupt", mid, last, err)
	}
	tail := last + rng.Int63n(int64(len(pristine))-last)
	if err := flip(tail); err != nil {
		t.Fatalf("bit flipped at byte %d of the last frame: open returned %v, want a truncated tail", tail, err)
	}
	if n := requireCleanRegistry(t, dir); n != len(offs)-1 {
		t.Fatalf("last-frame damage left %d records, want %d", n, len(offs)-1)
	}
}
