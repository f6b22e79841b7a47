package sqltypes

import (
	"bytes"
	"cmp"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// TestValueLayoutSize pins the compact layout: every archived row holds
// one Value per column resident, and rows are copied by value throughout
// the SELECT path, so Value must stay within 24 bytes (a string header
// and one 64-bit word).
func TestValueLayoutSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 24 {
		t.Fatalf("unsafe.Sizeof(Value) = %d, want <= 24", got)
	}
}

// TestTimeRoundTrip covers the inline nanosecond window, the zero-time
// sentinel and the far-time (marshalled) fallback.
func TestTimeRoundTrip(t *testing.T) {
	cases := []time.Time{
		{}, // zero time must survive exactly
		time.Date(1999, 1, 10, 15, 9, 32, 0, time.UTC),
		time.Date(2026, 7, 28, 0, 0, 0, 123456789, time.UTC),
		time.Unix(0, 1),
		time.Unix(0, -1),
		time.Date(1677, 9, 1, 0, 0, 0, 0, time.UTC), // before the int64-ns window
		time.Date(2263, 1, 1, 0, 0, 0, 0, time.UTC), // after the window
		time.Date(1000, 6, 15, 12, 30, 45, 7, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	}
	for _, want := range cases {
		v := NewTime(want)
		if v.Kind() != KindTime {
			t.Fatalf("NewTime(%v).Kind() = %v", want, v.Kind())
		}
		got := v.Time()
		if !got.Equal(want) {
			t.Fatalf("Time round trip: got %v, want %v", got, want)
		}
	}
}

// TestTimeCompareAcrossLayouts orders inline and far timestamps
// consistently.
func TestTimeCompareAcrossLayouts(t *testing.T) {
	times := []time.Time{
		time.Date(1000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1677, 9, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1999, 1, 10, 15, 9, 32, 0, time.UTC),
		time.Date(1999, 1, 10, 15, 9, 32, 1, time.UTC),
		time.Date(2263, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	for i := range times {
		for j := range times {
			c, ok := Compare(NewTime(times[i]), NewTime(times[j]))
			if !ok {
				t.Fatalf("Compare(%v, %v) not ok", times[i], times[j])
			}
			want := 0
			if times[i].Before(times[j]) {
				want = -1
			} else if times[i].After(times[j]) {
				want = 1
			}
			if c != want {
				t.Fatalf("Compare(%v, %v) = %d, want %d", times[i], times[j], c, want)
			}
		}
	}
}

// TestBytesRoundTrip: the BLOB payload aliases the constructor slice.
func TestBytesRoundTrip(t *testing.T) {
	if got := NewBytes(nil).Bytes(); got != nil {
		t.Fatalf("NewBytes(nil).Bytes() = %v, want nil", got)
	}
	b := []byte{0, 1, 2, 0xff}
	v := NewBytes(b)
	got := v.Bytes()
	if string(got) != string(b) {
		t.Fatalf("Bytes round trip: %v != %v", got, b)
	}
	if v.Size() != 4 {
		t.Fatalf("Size = %d", v.Size())
	}
	if c, ok := Compare(v, NewBytes([]byte{0, 1, 2, 0xff})); !ok || c != 0 {
		t.Fatalf("equal blobs compare %d ok=%v", c, ok)
	}
	if c, ok := Compare(v, NewBytes([]byte{0, 2})); !ok || c >= 0 {
		t.Fatalf("blob ordering compare %d ok=%v", c, ok)
	}
}

// FuzzValueRoundTrip builds a Value of every kind through its
// constructor, from arbitrary integers, float bits, bytes and instants,
// and checks that Kind, IsNull and every accessor give back what went
// in; that a scalar's tag never escapes through Str or Bytes, and no
// TIMESTAMP's payload through Str; that two
// equal values built apart are reflect.DeepEqual, as the WAL and
// generator tests compare rows; and that Compare orders two values of
// one kind as Go orders their payloads.
func FuzzValueRoundTrip(f *testing.F) {
	f.Add(int64(0), int64(1), uint64(0), uint64(1<<63), []byte(nil), []byte("a"), int64(0), int64(1), int64(0))
	f.Add(int64(-1), int64(math.MaxInt64), math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)),
		[]byte("S19990110150932"), []byte("S1999\x00"), int64(-9_000_000_000_000), int64(9_000_000_000_000), int64(999_999_999))
	f.Add(int64(math.MinInt64), int64(3<<56), math.Float64bits(1.5), math.Float64bits(-0.0),
		[]byte{0xff}, []byte{}, int64(915_980_972), int64(-62_135_596_800), int64(-1))
	f.Fuzz(func(t *testing.T, i, j int64, fb, gb uint64, b, c []byte, sec1, sec2, nsec int64) {
		// ±34,000 years: both inside and far outside the inline window.
		t1 := time.Unix(sec1%(1<<40), nsec%1e9).UTC()
		t2 := time.Unix(sec2%(1<<40), 0).UTC()
		if sec1 == 0 {
			t1 = time.Time{}
		}
		fl, gl := math.Float64frombits(fb), math.Float64frombits(gb)
		type built struct {
			kind Kind
			a, b func() Value // two independent builds of the first value
			c    func() Value // a second value of the same kind
			cmp  int          // Go's order of the first value against the second
			ok   func(Value) bool
		}
		cases := []built{
			{KindInt, func() Value { return NewInt(i) }, func() Value { return NewInt(i) }, func() Value { return NewInt(j) },
				cmp.Compare(i, j), func(v Value) bool { n, ok := v.AsInt(); return v.Int() == i && ok && n == i }},
			{KindDouble, func() Value { return NewDouble(fl) }, func() Value { return NewDouble(fl) }, func() Value { return NewDouble(gl) },
				cmp.Compare(fl, gl), func(v Value) bool { return math.Float64bits(v.Double()) == fb }},
			{KindBool, func() Value { return NewBool(i&1 == 1) }, func() Value { return NewBool(i&1 == 1) }, func() Value { return NewBool(j&1 == 1) },
				cmp.Compare(i&1, j&1), func(v Value) bool { return v.Bool() == (i&1 == 1) && v.Int() == i&1 }},
			{KindTime, func() Value { return NewTime(t1) }, func() Value { return NewTime(t1) }, func() Value { return NewTime(t2) },
				t1.Compare(t2), func(v Value) bool { return v.Time().Equal(t1) && v.Time().IsZero() == t1.IsZero() }},
			{KindString, func() Value { return NewString(string(b)) }, func() Value { return NewString(string(b)) }, func() Value { return NewString(string(c)) },
				bytes.Compare(b, c), func(v Value) bool { return v.Str() == string(b) && v.AsString() == string(b) }},
			{KindClob, func() Value { return NewClob(string(b)) }, func() Value { return NewClob(string(b)) }, func() Value { return NewClob(string(c)) },
				bytes.Compare(b, c), func(v Value) bool { return v.Str() == string(b) && v.Size() == len(b) }},
			{KindDatalink, func() Value { return NewDatalink(string(b)) }, func() Value { return NewDatalink(string(b)) }, func() Value { return NewDatalink(string(c)) },
				bytes.Compare(b, c), func(v Value) bool { return v.Str() == string(b) }},
			{KindBytes, func() Value { return NewBytes(bytes.Clone(b)) }, func() Value { return NewBytes(bytes.Clone(b)) }, func() Value { return NewBytes(bytes.Clone(c)) },
				bytes.Compare(b, c), func(v Value) bool { return bytes.Equal(v.Bytes(), b) && (len(b) > 0) == (v.Bytes() != nil) }},
		}
		for _, tc := range cases {
			v, w, o := tc.a(), tc.b(), tc.c()
			if v.Kind() != tc.kind || o.Kind() != tc.kind || v.IsNull() {
				t.Fatalf("%v: built kind %v (second %v), null %v", tc.kind, v.Kind(), o.Kind(), v.IsNull())
			}
			if !tc.ok(v) {
				t.Fatalf("%v: %v does not give back what built it", tc.kind, v)
			}
			switch tc.kind {
			case KindInt, KindDouble, KindBool:
				if v.Str() != "" || v.Bytes() != nil {
					t.Fatalf("%v: a scalar's Str %q or Bytes %v is not empty", tc.kind, v.Str(), v.Bytes())
				}
			case KindTime:
				if v.Str() != "" {
					t.Fatalf("%v: Str of %v is %q, want empty", tc.kind, v, v.Str())
				}
			}
			if sk, bk := NewString(v.Str()).Kind(), NewBytes(v.Bytes()).Kind(); sk != KindString || bk != KindBytes {
				t.Fatalf("%v: values built from its Str and Bytes are %v and %v", tc.kind, sk, bk)
			}
			if !reflect.DeepEqual(v, w) || v != w {
				t.Fatalf("%v: two builds of %v are not DeepEqual", tc.kind, v)
			}
			got, ok := Compare(v, o)
			if !ok || got != tc.cmp {
				t.Fatalf("%v: Compare(%v, %v) = %d, %v; want %d", tc.kind, v, o, got, ok, tc.cmp)
			}
			if back, ok := Compare(o, v); !ok || back != -tc.cmp {
				t.Fatalf("%v: Compare(%v, %v) = %d, %v; want %d", tc.kind, o, v, back, ok, -tc.cmp)
			}
			if SortCompare(v, o) != tc.cmp || SortCompare(Null, v) != -1 || SortCompare(v, Null) != 1 {
				t.Fatalf("%v: SortCompare disagrees with Compare on %v, %v", tc.kind, v, o)
			}
		}
		if !Null.IsNull() || Null.Kind() != KindNull || (Value{}) != Null {
			t.Fatal("the zero Value is not NULL")
		}
	})
}
