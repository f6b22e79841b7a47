package sqldb

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sqltypes"
)

// TestIndexPostingsModel runs random inserts, structural removals,
// aborted inserts, key-changing updates (a new version at the chain
// head, the slot filed under the new key unless it already is) and
// vacuum folds over a small key space, so keys move between zero, one,
// two and many postings, and checks lookupKey, ascending and descending
// scans, bounded ones too, against a map of each key's slots in the
// order filed. It also checks which postings are visible at snapLatest,
// and the leaf layout: a lone posting held inline, a list only for two
// or more.
func TestIndexPostingsModel(t *testing.T) {
	schema := &TableSchema{Name: "X", Cols: []Column{{Name: "K", Type: sqltypes.TypeInfo{Kind: sqltypes.KindInt}}}}
	schema.rebuildIndex()
	ix := newOrderedIndex("IX", schema, []string{"K"})
	const keySpace = 300 // enough keys for leaves to split and merge
	key := func(k int) string { return encodeKey(sqltypes.NewInt(int64(k))) }
	model := map[string][]*rowSlot{}
	var slots []*rowSlot // every slot not yet vacuumed away
	rng := rand.New(rand.NewSource(52))
	nextID, stamp := rowID(1), uint64(10)
	var seen [4]int // keys holding 0, 1, 2 and 3+ postings, per check
	newSlot := func(k int, begin uint64) *rowSlot {
		v := &rowVersion{vals: []sqltypes.Value{sqltypes.NewInt(int64(k))}}
		v.begin.Store(begin)
		s := &rowSlot{id: nextID}
		s.head.Store(v)
		nextID++
		slots = append(slots, s)
		return s
	}
	pick := func() (string, *rowSlot) {
		for try := 0; try < 20; try++ {
			k := key(rng.Intn(keySpace))
			if ss := model[k]; len(ss) > 0 {
				return k, ss[rng.Intn(len(ss))]
			}
		}
		return "", nil
	}
	drop := func(k string, victim *rowSlot) {
		model[k] = slices.DeleteFunc(model[k], func(s *rowSlot) bool { return s == victim })
		if len(model[k]) == 0 {
			delete(model, k)
		}
	}
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(20); {
		case r < 8: // insert
			k := rng.Intn(keySpace)
			s := newSlot(k, stamp)
			ix.insertKey(key(k), s)
			model[key(k)] = append(model[key(k)], s)
		case r < 9: // an insert whose transaction aborted
			k := rng.Intn(keySpace)
			s := newSlot(k, abortedStamp)
			ix.insertKey(key(k), s)
			model[key(k)] = append(model[key(k)], s)
		case r < 14: // structural removal
			if k, victim := pick(); victim != nil {
				ix.removeEntry(k, victim)
				drop(k, victim)
			}
		case r < 19: // key-changing UPDATE of a current row
			_, s := pick()
			if s == nil || s.versionAt(snapLatest) == nil {
				continue
			}
			stamp++
			old := s.head.Load()
			nk := rng.Intn(keySpace)
			nv := &rowVersion{vals: []sqltypes.Value{sqltypes.NewInt(int64(nk))}, prev: old}
			nv.begin.Store(stamp)
			old.end.Store(stamp)
			s.head.Store(nv)
			if !slices.Contains(ix.lookupKey(key(nk)), s) {
				ix.insertKey(key(nk), s)
				model[key(nk)] = append(model[key(nk)], s)
			}
		default: // VACUUM
			slots = slices.DeleteFunc(slots, func(s *rowSlot) bool {
				head, v := s.head.Load(), s.versionAt(snapLatest)
				if head.prev != nil || v == nil {
					ix.dropStale(s, head, v)
				}
				if v == nil {
					return true
				}
				v.prev = nil
				s.head.Store(v)
				return false
			})
			for k, ss := range model {
				if model[k] = slices.DeleteFunc(ss, func(s *rowSlot) bool {
					v := s.versionAt(snapLatest)
					return v == nil || ix.rowKeyOf(v.vals) != k
				}); len(model[k]) == 0 {
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

func checkIndexModel(t *testing.T, op int, ix *orderedIndex, model map[string][]*rowSlot, keySpace int, key func(int) string, rng *rand.Rand) {
	t.Helper()
	for k := 0; k < keySpace; k++ {
		if got, want := ix.lookupKey(key(k)), model[key(k)]; !slices.Equal(got, want) {
			t.Fatalf("op %d: lookupKey(%d) = %d postings %p, want %d %p", op, k, len(got), got, len(want), want)
		}
		// Visible at snapLatest: the filed slots whose current version
		// has this key.
		var want []*rowSlot
		for _, s := range model[key(k)] {
			if v := s.versionAt(snapLatest); v != nil && ix.rowKeyOf(v.vals) == key(k) {
				want = append(want, s)
			}
		}
		got, _ := lookupVisible(nil, ix, key(k), snapLatest)
		if len(got) != len(want) {
			t.Fatalf("op %d: %d postings under %d visible, want %d", op, len(got), k, len(want))
		}
		for i, r := range got {
			if r.slot != want[i] || r.ver != want[i].head.Load() {
				t.Fatalf("op %d: visible posting %d under %d is row %d, want row %d at its head", op, i, k, r.slot.id, want[i].id)
			}
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
			ix.scanRange(b.lo, b.hi, desc, func(k string, ss []*rowSlot) bool {
				if !slices.Equal(ss, model[k]) {
					t.Fatalf("op %d: scan (desc %v) visits %d postings under %q, want %d", op, desc, len(ss), k, len(model[k]))
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
