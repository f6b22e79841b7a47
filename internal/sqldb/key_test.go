package sqldb

import (
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/sqltypes"
)

// TestEncodeKeyCrossKindCollisions is the regression suite for the old
// AsString-based index key, which rendered different kinds to identical
// keys (BOOLEAN TRUE vs VARCHAR 'TRUE', TIMESTAMP vs its text form) and
// missed equal values with different renderings.
func TestEncodeKeyCrossKindCollisions(t *testing.T) {
	ts := time.Date(1999, 1, 10, 15, 9, 32, 0, time.UTC)
	distinct := [][2]sqltypes.Value{
		{sqltypes.NewBool(true), sqltypes.NewString("TRUE")},
		{sqltypes.NewBool(false), sqltypes.NewString("FALSE")},
		{sqltypes.NewTime(ts), sqltypes.NewString("1999-01-10 15:09:32")},
		{sqltypes.NewBytes([]byte("abc")), sqltypes.NewString("abc")},
		{sqltypes.NewDatalink("http://fs1/x"), sqltypes.NewString("http://fs1/x")},
		{sqltypes.NewString("2"), sqltypes.NewBool(true)},
		{sqltypes.Null, sqltypes.NewString("")},
	}
	for _, pair := range distinct {
		if encodeKey(pair[0]) == encodeKey(pair[1]) {
			t.Errorf("encodeKey collision: %v vs %v", pair[0], pair[1])
		}
	}
	// Intentional equivalences: numeric kinds share a class, and values
	// Compare reports equal must share one key (-0.0 vs +0.0, any NaN
	// payload vs any other).
	same := [][2]sqltypes.Value{
		{sqltypes.NewInt(2), sqltypes.NewDouble(2.0)},
		{sqltypes.NewInt(0), sqltypes.NewDouble(0)},
		{sqltypes.NewInt(-7), sqltypes.NewDouble(-7)},
		{sqltypes.NewString("x"), sqltypes.NewClob("x")},
		{sqltypes.NewDouble(math.Copysign(0, -1)), sqltypes.NewInt(0)},
		{sqltypes.NewDouble(math.NaN()), sqltypes.NewDouble(math.Float64frombits(0x7ff8000000000001))},
	}
	for _, pair := range same {
		if encodeKey(pair[0]) != encodeKey(pair[1]) {
			t.Errorf("encodeKey should normalise %v and %v to one key", pair[0], pair[1])
		}
	}
}

// TestEncodeKeyTupleUnambiguous: composite keys must not collide across
// different splits of the same concatenated text.
func TestEncodeKeyTupleUnambiguous(t *testing.T) {
	a := encodeKey(sqltypes.NewString("ab"), sqltypes.NewString("c"))
	b := encodeKey(sqltypes.NewString("a"), sqltypes.NewString("bc"))
	if a == b {
		t.Fatal("tuple keys collide across splits")
	}
	c := encodeKey(sqltypes.NewString("a\x00b"))
	d := encodeKey(sqltypes.NewString("a"), sqltypes.NewString("b"))
	if c == d {
		t.Fatal("embedded NUL collides with tuple boundary")
	}
}

// TestEncodeKeyOrder: within each comparable class, lexicographic byte
// order of the encodings must match SortCompare.
func TestEncodeKeyOrder(t *testing.T) {
	day := func(d int) sqltypes.Value {
		return sqltypes.NewTime(time.Date(2000, 1, d, 0, 0, 0, d*1000, time.UTC))
	}
	classes := map[string][]sqltypes.Value{
		"numeric": {
			sqltypes.Null, sqltypes.NewDouble(math.NaN()), sqltypes.NewDouble(math.Inf(-1)),
			sqltypes.NewDouble(-1e300), sqltypes.NewInt(-5000),
			sqltypes.NewDouble(-2.5), sqltypes.NewInt(-1), sqltypes.NewDouble(-0.001),
			sqltypes.NewInt(0), sqltypes.NewDouble(0.25), sqltypes.NewInt(1),
			sqltypes.NewDouble(1.5), sqltypes.NewInt(42), sqltypes.NewDouble(1e18),
			sqltypes.NewDouble(math.Inf(1)),
		},
		"text": {
			sqltypes.Null, sqltypes.NewString(""), sqltypes.NewString("A"),
			sqltypes.NewString("a"), sqltypes.NewString("a\x00b"), sqltypes.NewString("ab"),
			sqltypes.NewString("b"), sqltypes.NewClob("bb"),
		},
		"time": {
			sqltypes.Null, day(1), day(2), day(3), day(28),
		},
		"bool": {
			sqltypes.Null, sqltypes.NewBool(false), sqltypes.NewBool(true),
		},
	}
	for name, vals := range classes {
		for i := range vals {
			for j := range vals {
				want := sqltypes.SortCompare(vals[i], vals[j])
				ki, kj := encodeKey(vals[i]), encodeKey(vals[j])
				got := 0
				if ki < kj {
					got = -1
				} else if ki > kj {
					got = 1
				}
				if got != want {
					t.Errorf("%s: key order of %v vs %v = %d, SortCompare = %d",
						name, vals[i], vals[j], got, want)
				}
			}
		}
	}
}

// TestEncodeKeyOrderRandomNumeric cross-checks the sortable-double
// encoding on a deterministic pseudo-random mix of ints and doubles.
func TestEncodeKeyOrderRandomNumeric(t *testing.T) {
	var vals []sqltypes.Value
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	for i := 0; i < 200; i++ {
		n := int64(next()%2_000_001) - 1_000_000
		if i%2 == 0 {
			vals = append(vals, sqltypes.NewInt(n))
		} else {
			vals = append(vals, sqltypes.NewDouble(float64(n)/3))
		}
	}
	byKey := append([]sqltypes.Value(nil), vals...)
	sort.SliceStable(byKey, func(a, b int) bool { return encodeKey(byKey[a]) < encodeKey(byKey[b]) })
	for i := 1; i < len(byKey); i++ {
		if sqltypes.SortCompare(byKey[i-1], byKey[i]) > 0 {
			t.Fatalf("key order violates SortCompare at %d: %v then %v", i, byKey[i-1], byKey[i])
		}
	}
}

// TestProbeValueAlignment exercises the probe coercion rules that keep
// index lookups semantically identical to heap scans.
func TestProbeValueAlignment(t *testing.T) {
	ts := time.Date(1999, 1, 10, 15, 9, 32, 0, time.UTC)
	cases := []struct {
		col    sqltypes.Kind
		probe  sqltypes.Value
		ok     bool
		expect sqltypes.Value // matched stored value when ok
	}{
		{sqltypes.KindInt, sqltypes.NewString("5"), true, sqltypes.NewInt(5)},
		{sqltypes.KindInt, sqltypes.NewString(" 5 "), true, sqltypes.NewInt(5)},
		{sqltypes.KindInt, sqltypes.NewString("abc"), false, sqltypes.Null},
		{sqltypes.KindDouble, sqltypes.NewInt(2), true, sqltypes.NewDouble(2)},
		// On a DOUBLE column an INTEGER probe is its float64 promotion.
		{sqltypes.KindDouble, sqltypes.NewInt(1<<53 + 1), true, sqltypes.NewDouble(1 << 53)},
		// Beyond ±2^53 a DOUBLE equals every INTEGER sharing its image,
		// which no one key names: the probe goes to the heap scan.
		{sqltypes.KindInt, sqltypes.NewDouble(1 << 53), false, sqltypes.Null},
		{sqltypes.KindInt, sqltypes.NewString("9007199254740993"), false, sqltypes.Null},
		{sqltypes.KindString, sqltypes.NewInt(5), false, sqltypes.Null},
		{sqltypes.KindString, sqltypes.NewBool(true), false, sqltypes.Null},
		{sqltypes.KindTime, sqltypes.NewString("1999-01-10T15:09:32Z"), true, sqltypes.NewTime(ts)},
		{sqltypes.KindTime, sqltypes.NewString("not a time"), false, sqltypes.Null},
		{sqltypes.KindBool, sqltypes.NewString("TRUE"), false, sqltypes.Null},
		{sqltypes.KindInt, sqltypes.Null, false, sqltypes.Null},
	}
	for _, c := range cases {
		pv, ok := probeValue(c.col, c.probe)
		if ok != c.ok {
			t.Errorf("probeValue(%v, %v) ok=%v want %v", c.col, c.probe, ok, c.ok)
			continue
		}
		if ok && encodeKey(pv) != encodeKey(c.expect) {
			t.Errorf("probeValue(%v, %v) = %v, does not key-match %v", c.col, c.probe, pv, c.expect)
		}
	}
}

// TestFarKeysMatchReference: beyond ±2^53 the index key is still exact,
// so an index-served ORDER BY returns far integers in value order, and
// DOUBLE, text and INTEGER probes across column kinds answer like the
// reference evaluator.
func TestFarKeysMatchReference(t *testing.T) {
	db := memDB(t)
	mustExec(t, db, `CREATE TABLE T (ID INTEGER PRIMARY KEY, B BIGINT, D DOUBLE)`)
	const far = int64(1) << 53
	for i, b := range []int64{far + 1, far, -far - 1, -far, 5} {
		mustExec(t, db, `INSERT INTO T VALUES (?, ?, ?)`,
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(b), sqltypes.NewDouble(float64(b)))
	}
	mustExec(t, db, `CREATE INDEX T_B ON T (B)`)
	mustExec(t, db, `CREATE INDEX T_D ON T (D)`)
	ref := newRefEval(db)
	for _, q := range []string{
		`SELECT B FROM T ORDER BY B`,
		`SELECT B FROM T ORDER BY B DESC`,
		`SELECT B FROM T ORDER BY B LIMIT 3`,
	} {
		st, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := st.AccessPath(); !strings.HasPrefix(p, "ordered-scan(T.B) order") {
			t.Fatalf("%s: path %q, want an index-served ORDER BY", q, p)
		}
		ref.check(t, q)
	}
	for _, op := range []string{"=", ">", "<="} {
		ref.check(t, `SELECT ID FROM T WHERE B `+op+` ?`, sqltypes.NewDouble(float64(far+1)))
		ref.check(t, `SELECT ID FROM T WHERE B `+op+` ?`, sqltypes.NewString("9007199254740993"))
		ref.check(t, `SELECT ID FROM T WHERE D `+op+` ?`, sqltypes.NewInt(far+1))
	}

	// A far text probe on the BIGINT index equals every integer sharing
	// its image, 2^53 and 2^53+1 here. It stays on the index: the lookup
	// reads only those two rows, COUNT reads none, and MIN and MAX read
	// one boundary row each.
	probe := sqltypes.NewString("9007199254740993")
	heapReads := func(q string, args ...sqltypes.Value) int64 {
		t.Helper()
		before := db.HeapRowReads("T")
		if _, err := db.Query(q, args...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return db.HeapRowReads("T") - before
	}
	for _, c := range []struct {
		q     string
		arg   sqltypes.Value
		path  string
		reads int64
	}{
		{`SELECT ID FROM T WHERE B = ?`, probe, "eq(T.B)", 2},
		{`SELECT COUNT(*) FROM T WHERE B = ?`, probe, "eq(T.B) index-only", 0},
		{`SELECT MIN(B), MAX(B) FROM T WHERE B = ?`, probe, "eq(T.B) index-only", 2},
		{`SELECT COUNT(*) FROM T WHERE B < ?`, probe, "range(T.B) index-only", 0},
		{`SELECT COUNT(*) FROM T WHERE B >= ?`, probe, "range(T.B) index-only", 0},
		{`SELECT COUNT(*) FROM T WHERE B > ?`, sqltypes.NewString("-9007199254740993"), "range(T.B) index-only", 0},
		{`SELECT COUNT(*) FROM T WHERE B <= ?`, sqltypes.NewDouble(-float64(far)), "range(T.B) index-only", 0},
	} {
		st, err := db.Prepare(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := st.AccessPath(); p != c.path {
			t.Fatalf("%s: path %q, want %q", c.q, p, c.path)
		}
		if got := heapReads(c.q, c.arg); got != c.reads {
			t.Errorf("%s [%v]: %d heap reads, want %d", c.q, c.arg, got, c.reads)
		}
		ref.check(t, c.q, c.arg)
	}
	// Values equal to a spanning probe differ from each other, so an
	// ORDER BY or GROUP BY over them still orders and splits by value.
	for _, q := range []string{
		`SELECT B FROM T WHERE B = ? ORDER BY B`,
		`SELECT B FROM T WHERE B = ? ORDER BY B DESC`,
		`SELECT B, COUNT(*) FROM T WHERE B = ? GROUP BY B`,
	} {
		ref.check(t, q, probe)
	}
}

// fuzzKeyValue draws a value of one indexable kind from fuzz input: sel
// picks the kind, x the scalar, s the bytes.
func fuzzKeyValue(sel uint8, x uint64, s []byte) (sqltypes.Value, sqltypes.Kind) {
	switch sel % 6 {
	case 0:
		return sqltypes.NewInt(int64(x)), sqltypes.KindInt
	case 1:
		return sqltypes.NewDouble(math.Float64frombits(x)), sqltypes.KindDouble
	case 2:
		return sqltypes.NewString(string(s)), sqltypes.KindString
	case 3:
		// Seconds within ±2^35 (years 881 to 3058) reach both sides of
		// the inline nanosecond window.
		sec := (int64(x) >> 28) % (1 << 35)
		return sqltypes.NewTime(time.Unix(sec, int64(x%1_000_000_000)).UTC()), sqltypes.KindTime
	case 4:
		return sqltypes.NewBytes(s), sqltypes.KindBytes
	}
	return sqltypes.NewDatalink(string(s)), sqltypes.KindDatalink
}

// FuzzKeyEncoding holds the index-key encoding to its contract over two
// values of one kind: equal keys exactly when sqltypes.Compare says
// equal, key byte order in SortCompare's order, a two-value tuple key
// that is the concatenation of its values' keys, and a DOUBLE probe's
// key window placed where Compare places an INTEGER against it.
func FuzzKeyEncoding(f *testing.F) {
	i, d := func(v int64) uint64 { return uint64(v) }, math.Float64bits
	for _, c := range []struct {
		sel  uint8
		x, y uint64
		s, u string
	}{
		{0, i(1 << 53), i(1<<53 + 1), "", ""},
		{0, i(-(1 << 53) - 1), i(-(1 << 53)), "", ""},
		{0, i(math.MaxInt64), i(math.MaxInt64 - 1), "", ""},
		{0, i(math.MinInt64), i(math.MinInt64 + 1), "", ""},
		{0, i(-7), i(1<<53 - 1), "", ""},
		// As a DOUBLE probe, y = 2^53 spans 2^53+1 and stops below 2^53+3.
		{0, i(1<<53 + 1), d(1 << 53), "", ""},
		{0, i(1<<53 + 3), d(1 << 53), "", ""},
		{1, d(0), d(math.Copysign(0, -1)), "", ""},
		{1, d(math.NaN()), 0x7ff8000000000001, "", ""},
		{1, d(math.Inf(1)), d(math.Inf(-1)), "", ""},
		{1, d(1 << 53), d(1<<53 + 2), "", ""},
		{1, d(1 << 63), d(-(1 << 63)), "", ""},
		{1, d(-1e300), d(2.5), "", ""},
		{2, 0, 0, "a\x00b", "a"},
		{2, 0, 0, "", "\x00"},
		{3, i(time.Date(1999, 1, 10, 15, 9, 32, 0, time.UTC).Unix() << 28), i(-(1 << 62)), "", ""},
		{4, 0, 0, "\x00\xff", "\x00"},
		{5, 0, 0, "http://fs1/x", "http://fs1/x\x00"},
	} {
		f.Add(c.sel, c.x, c.y, []byte(c.s), []byte(c.u))
	}
	f.Fuzz(func(t *testing.T, sel uint8, x, y uint64, s, u []byte) {
		a, kind := fuzzKeyValue(sel, x, s)
		b, _ := fuzzKeyValue(sel, y, u)
		ka, kb := encodeKey(a), encodeKey(b)
		if c, ok := sqltypes.Compare(a, b); (ka == kb) != (ok && c == 0) {
			t.Fatalf("%v vs %v: equal keys %v, Compare %d (ok %v)", a, b, ka == kb, c, ok)
		}
		if got, want := strings.Compare(ka, kb), sqltypes.SortCompare(a, b); got != want {
			t.Fatalf("%v vs %v: key order %d, SortCompare %d", a, b, got, want)
		}
		if k := encodeKey(a, b); k != ka+kb {
			t.Fatalf("(%v, %v): tuple key %q, want %q", a, b, k, ka+kb)
		}
		// A DOUBLE probe on an INTEGER column: a's key sits below, inside
		// or above the probe's keys as Compare orders a against it.
		if p := sqltypes.NewDouble(math.Float64frombits(y)); kind == sqltypes.KindInt {
			if k, span, ok := appendProbe(nil, kind, p); ok {
				first, last := string(k), string(k)
				if span {
					last = spanLast(first)
				}
				pos := 0
				if ka < first {
					pos = -1
				} else if ka > last {
					pos = 1
				}
				if c, _ := sqltypes.Compare(a, p); c != pos {
					t.Fatalf("%v vs probe %v: key position %d, Compare %d", a, p, pos, c)
				}
			}
		}
	})
}

// TestIndexZeroAndNaN: -0.0 and +0.0 are one SQL value and every NaN
// is one value ordered below all numbers; indexed equality/range/order
// must agree with the forced full scan on both.
func TestIndexZeroAndNaN(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// (1e308*10)-(1e308*10) evaluates to Inf-Inf = NaN inside the engine.
	if err := db.ExecScript(`CREATE TABLE T (ID INTEGER PRIMARY KEY, D DOUBLE);
		INSERT INTO T VALUES (1, 0.0); INSERT INTO T VALUES (2, -0.0);
		INSERT INTO T VALUES (3, 1.5); INSERT INTO T VALUES (4, -2.5);
		INSERT INTO T VALUES (5, (1e308*10)-(1e308*10));
		CREATE INDEX IXD ON T (D) USING ORDERED`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT ID FROM T WHERE D = 0.0`,
		`SELECT ID FROM T WHERE D = -0.0`,
		`SELECT ID FROM T WHERE D >= 0.0`,
		`SELECT ID FROM T WHERE D < 0.0`,
		`SELECT ID FROM T WHERE D BETWEEN -1 AND 1`,
		`SELECT ID FROM T ORDER BY D`,
	} {
		indexed, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		db.SetFullScanOnly(true)
		scanned, err := db.Query(q)
		db.SetFullScanOnly(false)
		if err != nil {
			t.Fatalf("%s (scan): %v", q, err)
		}
		ik, sk := make([]string, 0), make([]string, 0)
		for _, r := range indexed.Data {
			ik = append(ik, encodeKey(r...))
		}
		for _, r := range scanned.Data {
			sk = append(sk, encodeKey(r...))
		}
		sort.Strings(ik)
		sort.Strings(sk)
		if strings.Join(ik, "|") != strings.Join(sk, "|") {
			t.Errorf("%s: index path %d rows, scan %d rows", q, len(indexed.Data), len(scanned.Data))
		}
	}
	// Both zeros satisfy D = 0.0.
	rows, err := db.Query(`SELECT COUNT(*) FROM T WHERE D = 0.0`)
	if err != nil || rows.Data[0][0].Int() != 2 {
		t.Fatalf("D = 0.0 matched %v (err=%v), want 2", rows.Data[0][0], err)
	}
}

// TestHashIndexProbeSemantics: with the canonical encoder, an indexed
// equality behaves exactly like the unindexed scan — the QBE layer's
// all-strings probes keep matching typed columns, and probes the index
// cannot align with fall back to the scan path.
func TestHashIndexProbeSemantics(t *testing.T) {
	for _, using := range []string{"HASH", "ORDERED"} {
		db, err := Open("")
		if err != nil {
			t.Fatal(err)
		}
		if err := db.ExecScript(`
			CREATE TABLE T (ID INTEGER PRIMARY KEY, N INTEGER, S VARCHAR(20), TS TIMESTAMP);
			INSERT INTO T VALUES (1, 5, 'TRUE', '1999-01-10 15:09:32');
			INSERT INTO T VALUES (2, -3, '5', '2001-06-30 08:00:00');
		`); err != nil {
			t.Fatal(err)
		}
		for _, col := range []string{"N", "S", "TS"} {
			if _, err := db.Exec("CREATE INDEX IX_" + col + using + " ON T (" + col + ") USING " + using); err != nil {
				t.Fatal(err)
			}
		}
		queries := []struct {
			sql  string
			arg  sqltypes.Value
			want int // -1: both paths must fail the same way
		}{
			{"SELECT ID FROM T WHERE N = ?", sqltypes.NewString("5"), 1},
			{"SELECT ID FROM T WHERE N = ?", sqltypes.NewInt(5), 1},
			{"SELECT ID FROM T WHERE N = ?", sqltypes.NewDouble(5.0), 1},
			{"SELECT ID FROM T WHERE N = ?", sqltypes.NewString("nope"), -1},
			{"SELECT ID FROM T WHERE S = ?", sqltypes.NewString("TRUE"), 1},
			{"SELECT ID FROM T WHERE S = ?", sqltypes.NewString("missing"), 0},
			{"SELECT ID FROM T WHERE TS = ?", sqltypes.NewString("1999-01-10T15:09:32Z"), 1},
			{"SELECT ID FROM T WHERE TS = ?", sqltypes.NewString("1999-01-10 15:09:32"), 1},
		}
		for _, q := range queries {
			indexed, ierr := db.Query(q.sql, q.arg)
			db.SetFullScanOnly(true)
			scanned, serr := db.Query(q.sql, q.arg)
			db.SetFullScanOnly(false)
			if q.want < 0 {
				// Unalignable probe: the index path must fall back to the
				// scan and surface the same comparison error.
				if ierr == nil || serr == nil || ierr.Error() != serr.Error() {
					t.Errorf("USING %s %s: want matching errors, got %v vs %v", using, q.sql, ierr, serr)
				}
				continue
			}
			if ierr != nil || serr != nil {
				t.Fatalf("USING %s %s: indexed err=%v scanned err=%v", using, q.sql, ierr, serr)
			}
			if len(indexed.Data) != q.want || len(scanned.Data) != q.want {
				t.Errorf("USING %s %s: indexed=%d scanned=%d want %d",
					using, q.sql, len(indexed.Data), len(scanned.Data), q.want)
			}
		}
		db.Close()
	}
}
