package sqltypes

import (
	"testing"
	"time"
	"unsafe"
)

// TestValueLayoutSize pins the compact layout: rows are copied by value
// throughout the SELECT path, so Value must stay within 32 bytes (kind
// + flags + one scalar word + a string header).
func TestValueLayoutSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 32 {
		t.Fatalf("unsafe.Sizeof(Value) = %d, want <= 32", got)
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
