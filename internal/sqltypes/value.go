// Package sqltypes defines the SQL value system shared by the relational
// engine (internal/sqldb), the SQL/MED layer (internal/med) and every
// component above them.
//
// A Value is a compact tagged union covering the SQL types the EASIA
// archive needs: NULL, INTEGER, DOUBLE, VARCHAR, BOOLEAN, TIMESTAMP, BLOB,
// CLOB and DATALINK (SQL/MED, ISO/IEC 9075-9). Values are immutable by
// convention: once stored in the engine they must not be mutated in place.
//
// # Layout
//
// Value is 24 bytes — a string header and one 64-bit word — because
// every archived row holds one Value per column resident, so its size
// sets how many catalogue rows fit in memory. The kind lives in
// whichever half the payload leaves free:
//
//	payload kinds (VARCHAR, CLOB, DATALINK, BLOB, far TIMESTAMP):
//	  s — the payload: text; BLOB bytes aliased as a string (values
//	      are immutable, so the no-copy view is safe); the marshalled
//	      time.Time of a far timestamp
//	  x — the kind in its top byte, zero below
//	scalar kinds (INTEGER, DOUBLE, BOOLEAN, inline TIMESTAMP):
//	  s — a tag: a string pointing into the private scalarTag array,
//	      whose length is the kind
//	  x — the payload: INTEGER, BOOLEAN (0/1), DOUBLE as IEEE-754
//	      bits, or TIMESTAMP as UTC unix nanoseconds
//
// Kind is one pointer compare: a value whose s points at scalarTag is a
// scalar of kind len(s), any other takes its kind from x. No payload can
// point there, because no accessor hands a tag out. The zero Value
// (empty s, x = 0) is NULL.
//
// The payload stays in a string field rather than a 16-byte
// {unsafe.Pointer, word} pair. reflect.DeepEqual — which the WAL and
// workload-generator tests use to compare rows — compares a string by
// content and a pointer by address, so two equal VARCHARs built apart
// would differ under the pointer layout. Tags of one kind share their
// content, so equal scalars stay DeepEqual too.
//
// Invariants:
//
//   - The zero Value is SQL NULL.
//   - TIMESTAMP values are stored in UTC. Instants representable as
//     int64 nanoseconds (years 1678–2262, plus the zero time.Time) are
//     scalars; anything outside that window is a payload kind with the
//     time.Time marshalled in s, so no instant is silently truncated.
//   - BLOB payloads alias the []byte passed to NewBytes; neither the
//     caller (after construction) nor the receiver of Bytes() may
//     mutate them.
package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported SQL kinds.
const (
	KindNull     Kind = iota
	KindInt           // INTEGER / BIGINT (64-bit)
	KindDouble        // DOUBLE PRECISION / FLOAT
	KindString        // CHAR / VARCHAR
	KindBool          // BOOLEAN
	KindTime          // TIMESTAMP
	KindBytes         // BLOB
	KindClob          // CLOB (character large object)
	KindDatalink      // DATALINK (SQL/MED)
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindDouble:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		return "TIMESTAMP"
	case KindBytes:
		return "BLOB"
	case KindClob:
		return "CLOB"
	case KindDatalink:
		return "DATALINK"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// kindShift places a payload value's kind in the top byte of x.
const kindShift = 56

// scalarTag is what a scalar value's s points into; its length is the
// kind, so the array needs a byte for every scalar kind.
var scalarTag [KindTime + 1]byte

// zeroTimeBits is the x sentinel (the bit pattern of math.MinInt64) for
// the zero time.Time, which predates the nanosecond window but must
// round-trip exactly (it is the "absent" timestamp throughout the
// archive).
const zeroTimeBits uint64 = 1 << 63

// The int64-nanosecond window NewTime can encode inline.
var (
	minNanoTime = time.Unix(0, math.MinInt64).Add(time.Nanosecond).UTC()
	maxNanoTime = time.Unix(0, math.MaxInt64).UTC()
)

// InNanoRange reports whether t lies in the window representable as
// int64 unix nanoseconds — the instants Value stores inline and
// UnixNano is defined for. Callers persisting timestamps (the sqldb
// codec) must use a wider encoding outside it.
func InNanoRange(t time.Time) bool {
	return !t.Before(minNanoTime) && !t.After(maxNanoTime)
}

// Value is a single SQL value. The zero Value is SQL NULL.
// See the package comment for the layout and its invariants.
type Value struct {
	s string
	x uint64
}

// Null is the SQL NULL value.
var Null = Value{}

// scalar returns a scalar-kind value: the tag of kind k and payload x.
func scalar(k Kind, x uint64) Value {
	return Value{s: unsafe.String(&scalarTag[0], int(k)), x: x}
}

// payload returns a payload-kind value: s with kind k in x's top byte.
func payload(k Kind, s string) Value {
	return Value{s: s, x: uint64(k) << kindShift}
}

// isScalar reports whether s is a tag, so x holds the payload.
func (v Value) isScalar() bool { return unsafe.StringData(v.s) == &scalarTag[0] }

// NewInt returns an INTEGER value.
func NewInt(v int64) Value { return scalar(KindInt, uint64(v)) }

// NewDouble returns a DOUBLE value.
func NewDouble(v float64) Value { return scalar(KindDouble, math.Float64bits(v)) }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return payload(KindString, v) }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	var x uint64
	if v {
		x = 1
	}
	return scalar(KindBool, x)
}

// NewTime returns a TIMESTAMP value (stored in UTC).
func NewTime(v time.Time) Value {
	t := v.UTC()
	if t.IsZero() {
		return scalar(KindTime, zeroTimeBits)
	}
	if t.Before(minNanoTime) || t.After(maxNanoTime) {
		// Outside the inline window (before 1678 or after 2262): keep
		// the full instant marshalled rather than truncating it.
		b, err := t.MarshalBinary()
		if err != nil {
			// MarshalBinary only fails on malformed zone offsets, which
			// UTC() has already normalised away; keep NULL-safe anyway.
			return scalar(KindTime, zeroTimeBits)
		}
		return payload(KindTime, string(b))
	}
	return scalar(KindTime, uint64(t.UnixNano()))
}

// NewBytes returns a BLOB value. The slice is used directly; callers must
// not mutate it afterwards.
func NewBytes(v []byte) Value {
	return payload(KindBytes, unsafe.String(unsafe.SliceData(v), len(v)))
}

// NewClob returns a CLOB value.
func NewClob(v string) Value { return payload(KindClob, v) }

// NewDatalink returns a DATALINK value holding the canonical URL form
// "scheme://host/path" exactly as it would appear in an SQL INSERT.
func NewDatalink(url string) Value { return payload(KindDatalink, url) }

// Kind reports the value's runtime kind.
func (v Value) Kind() Kind {
	if v.isScalar() {
		return Kind(len(v.s))
	}
	return Kind(v.x >> kindShift)
}

// IsNull reports whether the value is SQL NULL: a payload kind's x and a
// scalar's tag are never zero.
func (v Value) IsNull() bool { return v.x == 0 && len(v.s) == 0 }

// Int returns the INTEGER payload; valid only when Kind()==KindInt or KindBool.
func (v Value) Int() int64 { return int64(v.x) }

// Double returns the DOUBLE payload.
func (v Value) Double() float64 { return math.Float64frombits(v.x) }

// Str returns the string payload of VARCHAR, CLOB or DATALINK values,
// and "" for a scalar, whose tag must not escape, and for every
// TIMESTAMP: a far one's payload is its marshalled instant, not text.
func (v Value) Str() string {
	if v.isScalar() || Kind(v.x>>kindShift) == KindTime {
		return ""
	}
	return v.s
}

// Bool returns the BOOLEAN payload.
func (v Value) Bool() bool { return v.x != 0 }

// Time returns the TIMESTAMP payload.
func (v Value) Time() time.Time {
	if !v.isScalar() {
		var t time.Time
		if err := t.UnmarshalBinary([]byte(v.s)); err != nil {
			return time.Time{}
		}
		return t
	}
	if v.x == zeroTimeBits {
		return time.Time{}
	}
	return time.Unix(0, int64(v.x)).UTC()
}

// Bytes returns the BLOB payload. Callers must not mutate the result.
func (v Value) Bytes() []byte {
	if len(v.s) == 0 || v.isScalar() {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(v.s), len(v.s))
}

// AsInt coerces the value to int64 where a lossless or conventional SQL
// conversion exists.
func (v Value) AsInt() (int64, bool) {
	switch v.Kind() {
	case KindInt, KindBool:
		return int64(v.x), true
	case KindDouble:
		f := v.Double()
		if f == math.Trunc(f) && !math.IsInf(f, 0) {
			return int64(f), true
		}
		return 0, false
	case KindString:
		n, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			return 0, false
		}
		return n, true
	default:
		return 0, false
	}
}

// AsDouble coerces the value to float64 under SQL numeric promotion rules.
func (v Value) AsDouble() (float64, bool) {
	return v.asDouble(v.Kind())
}

// asDouble is AsDouble for a value whose kind k the caller has read.
func (v Value) asDouble(k Kind) (float64, bool) {
	switch k {
	case KindInt, KindBool:
		return float64(int64(v.x)), true
	case KindDouble:
		return v.Double(), true
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// AsString renders the value as the string a CAST(x AS VARCHAR) would give.
func (v Value) AsString() string {
	switch v.Kind() {
	case KindNull:
		return ""
	case KindInt:
		return strconv.FormatInt(int64(v.x), 10)
	case KindDouble:
		return strconv.FormatFloat(v.Double(), 'g', -1, 64)
	case KindString, KindClob, KindDatalink, KindBytes:
		return v.s
	case KindBool:
		if v.x != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindTime:
		return v.Time().Format("2006-01-02 15:04:05")
	default:
		return ""
	}
}

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool { return v.Kind().numeric() }

// IsTextual reports whether the value is character data (VARCHAR or CLOB).
func (v Value) IsTextual() bool { return v.Kind().textual() }

func (k Kind) numeric() bool { return k == KindInt || k == KindDouble }

func (k Kind) textual() bool { return k == KindString || k == KindClob }

// Size returns the logical size in bytes/characters of the value: the
// length for strings/CLOBs/BLOBs, 8 for numerics and timestamps, and the
// URL length for DATALINKs. The web layer displays this next to LOB and
// DATALINK hyperlinks, as in the paper's result-table figure.
func (v Value) Size() int {
	switch v.Kind() {
	case KindString, KindClob, KindDatalink, KindBytes:
		return len(v.s)
	case KindNull:
		return 0
	default:
		return 8
	}
}

// String implements fmt.Stringer with an SQL-literal style rendering,
// used in logs and error messages.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "NULL"
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindClob:
		return fmt.Sprintf("CLOB(%d)", len(v.s))
	case KindBytes:
		return fmt.Sprintf("BLOB(%d)", len(v.s))
	case KindDatalink:
		return fmt.Sprintf("DLVALUE('%s')", v.s)
	default:
		return v.AsString()
	}
}

// Equal reports strict SQL equality (NULL is not equal to anything,
// including NULL). Use Compare for ordering with NULL handling.
func (v Value) Equal(o Value) bool {
	c, ok := Compare(v, o)
	return ok && c == 0
}
