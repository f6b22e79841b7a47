package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/iofault"
	"repro/internal/sqltypes"
)

// liveHeap returns the bytes still reachable after a full collection
// (two cycles, so finalisers and pool victims of the first are gone).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentBytesPerRow attributes what one archived row costs
// resident, by structure, and gates each share with a ceiling (ROADMAP
// item 11: bytes per row decides how large an archive one database
// holds). The rows are core.TurbulenceSchema's RESULT_FILE as
// bench/gen.go fills it — 11-char file name, 15-char run key, 5-char
// measurement, "TSF", two integers, NULL link: ≈ 60 payload bytes, every
// string its own allocation, as after recovery — with the DDL inlined
// because sqldb cannot import core (and without the foreign key, which
// costs nothing per row). Three builds of the table separate the heap
// from the primary key from one secondary index.
func TestResidentBytesPerRow(t *testing.T) {
	const (
		runs, steps = 400, 50
		rows        = runs * steps
		ddl         = `CREATE TABLE RESULT_FILE (
  FILE_NAME       VARCHAR(100),
  SIMULATION_KEY  VARCHAR(30) NOT NULL,
  TIMESTEP        INTEGER,
  MEASUREMENT     VARCHAR(60),
  FILE_FORMAT     VARCHAR(20),
  FILE_SIZE       BIGINT,
  DOWNLOAD_RESULT DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL
                  READ PERMISSION DB WRITE PERMISSION BLOCKED
                  RECOVERY YES ON UNLINK RESTORE%s
)`
	)
	measurements := [8]string{"vel-u", "vel-v", "vel-w", "press", "vortx", "vorty", "vortz", "tempr"}
	resident := func(pk string, indexes ...string) float64 {
		db := memDB(t)
		mustExec(t, db, fmt.Sprintf(ddl, pk))
		for _, ix := range indexes {
			mustExec(t, db, ix)
		}
		ins, err := db.Prepare(`INSERT INTO RESULT_FILE VALUES (?, ?, ?, ?, ?, ?, ?)`)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		before := liveHeap()
		for run := 0; run < runs; run++ {
			for ts := 0; ts < steps; ts++ {
				i := run*steps + ts
				if _, err := ins.Exec(
					sqltypes.NewString(fmt.Sprintf("ts%05d.tsf", ts)), sqltypes.NewString(fmt.Sprintf("S2000%010d", run)),
					sqltypes.NewInt(int64(ts)), sqltypes.NewString(strings.Clone(measurements[i*7919%len(measurements)])),
					sqltypes.NewString(strings.Clone("TSF")), sqltypes.NewInt(1_000_000_000+int64(i)*400_000), sqltypes.Null,
				); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
		}
		after := liveHeap()
		runtime.KeepAlive(db)
		return float64(after-before) / rows
	}
	heap := resident("")
	withPK := resident(",\n  PRIMARY KEY (FILE_NAME, SIMULATION_KEY)")
	withIdx := resident(",\n  PRIMARY KEY (FILE_NAME, SIMULATION_KEY)",
		`CREATE INDEX IDX_RESULT_SIM_TS ON RESULT_FILE (SIMULATION_KEY, TIMESTEP)`)
	// Ceilings are the measured figures + 5%: 364.3 / 137.4 / 112.8 /
	// 614.5 (heap 380.3 under -race, which does not pack tiny strings).
	// The same test read 478.1 / 137.9 / 111.9 / 727.9 while a
	// sync.Map beside slots mapped every row id to its slot.
	for _, share := range []struct {
		name    string
		got     float64
		ceiling float64
	}{
		{"heap", heap, 383},
		{"primary key", withPK - heap, 144},
		{"(SIMULATION_KEY, TIMESTEP) index", withIdx - withPK, 118},
		{"row with both", withIdx, 645},
	} {
		t.Logf("%-34s %6.1f B/row", share.name, share.got)
		if share.got > share.ceiling {
			t.Errorf("%s: %.1f B/row resident, want ≤ %.0f", share.name, share.got, share.ceiling)
		}
	}
}

// checkSlotInvariant asserts what deleting the rowID → slot map rests
// on, for every table, under the barrier: slots is strictly ascending by
// id, slotFor finds each slot from its id, and every posting of every
// index — current or not: dead ones stay until vacuum, as their slots
// do — points at the slot slotFor returns for its id.
func checkSlotInvariant(t *testing.T, db *DB, phase string) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	for name, td := range db.data {
		for i, s := range td.slots {
			if i > 0 && td.slots[i-1].id >= s.id {
				t.Fatalf("%s: %s.slots[%d].id = %d after %d: not ascending", phase, name, i, s.id, td.slots[i-1].id)
			}
			if got, ok := td.slotFor(s.id); !ok || got != s {
				t.Fatalf("%s: %s.slotFor(%d) = %p, %v; want slots[%d] = %p", phase, name, s.id, got, ok, i, s)
			}
		}
		for _, idx := range td.indexes {
			idx.scanRange(nil, nil, false, func(k string, es []*idxEntry) bool {
				for _, e := range es {
					if got, ok := td.slotFor(e.slot.id); !ok || got != e.slot {
						t.Fatalf("%s: %s %s: posting of row %d (current=%v) points at %p, slotFor gives %p, %v",
							phase, name, idx.name, e.slot.id, entryCurrent(e), e.slot, got, ok)
					}
				}
				return true
			})
		}
	}
}

// TestSlotOrderInvariant drives every path that adds or removes a slot
// — sharded writers on two tables sharing the id allocator, explicit
// transactions that commit or roll back, key-changing UPDATEs, DELETEs,
// Vacuum, a checkpoint, and a crash whose recovery loads the snapshot
// and replays insert, update and delete records by id — and checks the
// invariant after each phase. Recovery must also give every surviving
// row the id it had (a replayed record that resolved to the wrong slot
// would change contents or ids), and an id whose row was vacuumed, whose
// insert was rolled back, that belongs to the other table or that was
// never allocated must resolve to nothing. Seeded; the interleaving is
// the scheduler's. Run under -race in CI.
func TestSlotOrderInvariant(t *testing.T) {
	dir := t.TempDir()
	faults := iofault.New(nil)
	db, err := OpenWith(dir, Options{FS: faults})
	if err != nil {
		t.Fatal(err)
	}
	db.CheckpointEvery = 0 // the WAL written after the explicit checkpoint must reach recovery
	tables := []string{"A", "B"}
	for _, name := range tables {
		mustExec(t, db, `CREATE TABLE `+name+` (ID INTEGER PRIMARY KEY, G INTEGER, V INTEGER)`)
		mustExec(t, db, `CREATE INDEX `+name+`_G ON `+name+` (G)`)
	}

	var nextKey [2]atomic.Int64 // per-table primary-key allocator
	// writePhase runs two writers per table and one transaction loop
	// against db; writers of one table contend for its wmu, writers of
	// different tables interleave ids, transactions take the barrier.
	writePhase := func(db *DB, seed int64) {
		var wg sync.WaitGroup
		for ti, name := range tables {
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(ti int, name string, rng *rand.Rand) {
					defer wg.Done()
					for op := 0; op < 120; op++ {
						var err error
						switch r := rng.Intn(20); {
						case r < 11:
							_, err = db.Exec(`INSERT INTO `+name+` VALUES (?, ?, 0)`,
								sqltypes.NewInt(nextKey[ti].Add(1)), sqltypes.NewInt(rng.Int63n(8)))
						case r < 16:
							_, err = db.Exec(`UPDATE `+name+` SET G = ?, V = V + 1 WHERE ID = ?`,
								sqltypes.NewInt(rng.Int63n(8)), sqltypes.NewInt(1+rng.Int63n(nextKey[ti].Load()+1)))
						default:
							_, err = db.Exec(`DELETE FROM `+name+` WHERE ID = ?`,
								sqltypes.NewInt(1+rng.Int63n(nextKey[ti].Load()+1)))
						}
						if err != nil {
							t.Errorf("%s writer: %v", name, err)
							return
						}
					}
				}(ti, name, rand.New(rand.NewSource(seed+int64(10*ti+w))))
			}
		}
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tx, err := db.Begin()
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				for j := 0; j < 4; j++ {
					ti := rng.Intn(2)
					if _, err := tx.Exec(`INSERT INTO `+tables[ti]+` VALUES (?, ?, 0)`,
						sqltypes.NewInt(nextKey[ti].Add(1)), sqltypes.NewInt(rng.Int63n(8))); err != nil {
						t.Errorf("tx insert: %v", err)
					}
				}
				if rng.Intn(2) == 0 {
					err = tx.Rollback()
				} else {
					err = tx.Commit()
				}
				if err != nil {
					t.Errorf("tx end: %v", err)
					return
				}
			}
		}(rand.New(rand.NewSource(seed + 99)))
		wg.Wait()
	}
	// rowIDs maps table → primary key → (row id, G, V) of every current
	// row, read off the heap.
	type row struct {
		id   rowID
		g, v int64
	}
	rowIDs := func(db *DB) map[string]map[int64]row {
		db.mu.Lock()
		defer db.mu.Unlock()
		out := map[string]map[int64]row{}
		for name, td := range db.data {
			out[name] = map[int64]row{}
			td.scan(snapLatest, func(s *rowSlot, vals []sqltypes.Value) bool {
				out[name][vals[0].Int()] = row{id: s.id, g: vals[1].Int(), v: vals[2].Int()}
				return true
			})
		}
		return out
	}
	resolves := func(db *DB, table string, id rowID) bool {
		db.mu.Lock()
		defer db.mu.Unlock()
		_, ok := db.data[table].slotFor(id)
		return ok
	}

	writePhase(db, 1)
	checkSlotInvariant(t, db, "concurrent writers")

	// One row deleted and one insert rolled back, ids noted, then vacuum.
	mustExec(t, db, `INSERT INTO A VALUES (?, 0, 0)`, sqltypes.NewInt(nextKey[0].Add(1)))
	deleted := rowIDs(db)["A"][nextKey[0].Load()].id
	mustExec(t, db, `DELETE FROM A WHERE ID = ?`, sqltypes.NewInt(nextKey[0].Load()))
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO A VALUES (?, 0, 0)`, sqltypes.NewInt(nextKey[0].Add(1))); err != nil {
		t.Fatal(err)
	}
	aborted := rowID(db.nextRow.Load() - 1) // the barrier is this transaction's
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if !resolves(db, "A", deleted) || !resolves(db, "A", aborted) {
		t.Fatalf("rows %d (deleted) and %d (rolled back) must keep their slots until vacuum", deleted, aborted)
	}
	checkSlotInvariant(t, db, "delete + rollback")
	if err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	checkSlotInvariant(t, db, "vacuum")
	var ofB rowID
	for _, r := range rowIDs(db)["B"] {
		ofB = r.id
		break
	}
	gone := func(db *DB, phase string) {
		t.Helper()
		for what, id := range map[string]rowID{
			"vacuumed": deleted, "rolled back and vacuumed": aborted,
			"other table's": ofB, "never allocated": rowID(db.nextRow.Load() + 100),
		} {
			if resolves(db, "A", id) {
				t.Errorf("%s: A.slotFor(%d) found a slot for a %s id", phase, id, what)
			}
		}
	}
	gone(db, "vacuum")

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkSlotInvariant(t, db, "checkpoint")
	writePhase(db, 2) // updates and deletes now reach snapshot-era rows too
	checkSlotInvariant(t, db, "writers after checkpoint")

	want := rowIDs(db)
	faults.CrashNow()
	db.Close() //nolint:errcheck // post-crash close only releases fds

	db, err = Open(dir)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db.Close()
	if rec := db.Recovery(); rec.ReplayedTx == 0 {
		t.Fatalf("recovery replayed no transactions: %+v", rec)
	}
	checkSlotInvariant(t, db, "crash recovery")
	if got := rowIDs(db); !reflect.DeepEqual(got, want) {
		for _, name := range tables {
			for k, w := range want[name] {
				if g, ok := got[name][k]; !ok || g != w {
					t.Errorf("%s key %d: recovered %+v (present=%v), want %+v", name, k, g, ok, w)
				}
			}
			t.Errorf("%s: %d rows recovered, want %d", name, len(got[name]), len(want[name]))
		}
	}
	gone(db, "crash recovery")

	writePhase(db, 3)
	checkSlotInvariant(t, db, "writers after recovery")
	if err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	checkSlotInvariant(t, db, "vacuum after recovery")
	gone(db, "vacuum after recovery")
}

// TestAppendSlotOutOfOrder: no writer produces a descending id, but the
// one place a slot is added must keep slots sorted if one ever does —
// slotFor's binary search depends on it — and must not shift the array a
// latch-free scan may still be walking.
func TestAppendSlotOutOfOrder(t *testing.T) {
	schema := &TableSchema{Name: "X", Cols: []Column{{Name: "K", Type: sqltypes.TypeInfo{Kind: sqltypes.KindInt}}}}
	schema.rebuildIndex()
	td := newTableData(schema)
	var refs mvccRefs
	var walked []*rowSlot
	for _, id := range []rowID{5, 9, 7, 1, 8} {
		if id == 7 {
			walked = td.slots // a scan's copy of the header: {5, 9}
		}
		if err := td.insert(id, []sqltypes.Value{sqltypes.NewInt(int64(id))}, &refs); err != nil {
			t.Fatal(err)
		}
	}
	var ids []rowID
	for _, s := range td.slots {
		ids = append(ids, s.id)
		if got, ok := td.slotFor(s.id); !ok || got != s {
			t.Errorf("slotFor(%d) = %v, %v", s.id, got, ok)
		}
	}
	if want := []rowID{1, 5, 7, 8, 9}; !reflect.DeepEqual(ids, want) {
		t.Errorf("slots = %v, want %v", ids, want)
	}
	if len(walked) != 2 || walked[0].id != 5 || walked[1].id != 9 {
		t.Errorf("sorted insert moved slots under an open scan: %d, %d", walked[0].id, walked[1].id)
	}
	if _, ok := td.slotFor(6); ok {
		t.Error("slotFor(6) found a slot")
	}
}
