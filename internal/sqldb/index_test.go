package sqldb

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sqltypes"
)

// TestIndexPostingsModel runs random inserts, structural removals,
// aborted inserts, key-changing updates (the old posting ended, a new
// one added under the new key) and vacuum sweeps over a small key space,
// so keys move between zero, one, two and many postings, and checks
// lookupKey, ascending and descending scans, bounded ones too, against
// a map of each key's postings in the order added. It also checks the
// leaf layout: a lone posting held inline, a list only for two or more.
func TestIndexPostingsModel(t *testing.T) {
	schema := &TableSchema{Name: "X", Cols: []Column{{Name: "K", Type: sqltypes.TypeInfo{Kind: sqltypes.KindInt}}}}
	schema.rebuildIndex()
	ix := newOrderedIndex("IX", schema, []string{"K"})
	const keySpace = 300 // enough keys for leaves to split and merge
	key := func(k int) string { return encodeKey(sqltypes.NewInt(int64(k))) }
	model := map[string][]*idxEntry{}
	rng := rand.New(rand.NewSource(52))
	nextID, stamp := rowID(1), uint64(10)
	var seen [4]int // keys holding 0, 1, 2 and 3+ postings, per check
	pick := func() (string, *idxEntry) {
		for try := 0; try < 20; try++ {
			k := key(rng.Intn(keySpace))
			if es := model[k]; len(es) > 0 {
				return k, es[rng.Intn(len(es))]
			}
		}
		return "", nil
	}
	drop := func(k string, victim *idxEntry) {
		model[k] = slices.DeleteFunc(model[k], func(e *idxEntry) bool { return e == victim })
		if len(model[k]) == 0 {
			delete(model, k)
		}
	}
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(20); {
		case r < 8: // insert
			k := key(rng.Intn(keySpace))
			e := liveEntry(&rowSlot{id: nextID})
			nextID++
			ix.insertKey(k, e)
			model[k] = append(model[k], e)
		case r < 9: // an insert whose transaction aborted
			k := key(rng.Intn(keySpace))
			e := &idxEntry{slot: &rowSlot{id: nextID}}
			e.begin.Store(abortedStamp)
			nextID++
			ix.insertKey(k, e)
			model[k] = append(model[k], e)
		case r < 14: // structural removal
			if k, victim := pick(); victim != nil {
				ix.removeEntry(k, func(e *idxEntry) bool { return e == victim })
				drop(k, victim)
			}
		case r < 19: // key-changing UPDATE of a current posting
			_, old := pick()
			if old == nil || !entryCurrent(old) {
				continue
			}
			stamp++
			old.end.Store(stamp)
			nk := key(rng.Intn(keySpace))
			e := &idxEntry{slot: old.slot}
			e.begin.Store(stamp)
			ix.insertKey(nk, e)
			model[nk] = append(model[nk], e)
		default: // VACUUM
			ix.sweepDead()
			for k, es := range model {
				if model[k] = slices.DeleteFunc(es, func(e *idxEntry) bool { return !entryCurrent(e) }); len(model[k]) == 0 {
					delete(model, k)
				}
			}
		}
		if op%25 == 0 {
			checkIndexModel(t, op, ix, model, keySpace, key, rng)
			for k := 0; k < keySpace; k++ {
				seen[min(len(model[key(k)]), 3)]++
			}
		}
	}
	checkIndexModel(t, -1, ix, model, keySpace, key, rng)
	t.Logf("keys with 0, 1, 2 and more postings, summed over checks: %v", seen)
	for n, c := range seen {
		if c < 1000 {
			t.Errorf("a key held %d postings at only %d checks: the mix does not exercise that case", n, c)
		}
	}
}

func checkIndexModel(t *testing.T, op int, ix *orderedIndex, model map[string][]*idxEntry, keySpace int, key func(int) string, rng *rand.Rand) {
	t.Helper()
	for k := 0; k < keySpace; k++ {
		if got, want := ix.lookupKey(key(k)), model[key(k)]; !slices.Equal(got, want) {
			t.Fatalf("op %d: lookupKey(%d) = %d postings %p, want %d %p", op, k, len(got), got, len(want), want)
		}
	}
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var lo, hi *keyBound
	if rng.Intn(2) == 0 {
		lo = &keyBound{key: key(rng.Intn(keySpace)), incl: rng.Intn(2) == 0}
	}
	if rng.Intn(2) == 0 {
		hi = &keyBound{key: key(rng.Intn(keySpace)), incl: rng.Intn(2) == 0}
	}
	for _, b := range []struct{ lo, hi *keyBound }{{nil, nil}, {lo, hi}} {
		var want []string
		for _, k := range keys {
			if within(k, b.lo, b.hi) {
				want = append(want, k)
			}
		}
		for _, desc := range []bool{false, true} {
			var got []string
			ix.scanRange(b.lo, b.hi, desc, func(k string, es []*idxEntry) bool {
				if !slices.Equal(es, model[k]) {
					t.Fatalf("op %d: scan (desc %v) visits %d postings under %q, want %d", op, desc, len(es), k, len(model[k]))
				}
				got = append(got, k)
				return true
			})
			if desc {
				slices.Reverse(got)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: scan (desc %v) over %v..%v visits %d keys, want %d", op, desc, b.lo, b.hi, len(got), len(want))
			}
		}
	}
	var walk func(n *btreeNode)
	walk = func(n *btreeNode) {
		for _, c := range n.children {
			walk(c)
		}
		for i, p := range n.ents {
			if (p.one == nil) == (p.many == nil) || p.many != nil && len(*p.many) < 2 {
				t.Fatalf("op %d: key %q holds one=%p many=%v: want a lone posting inline or a list of two or more", op, n.keys[i], p.one, p.many)
			}
		}
	}
	walk(ix.root)
}
