package sqldb

import (
	"encoding/binary"
	"math"

	"repro/internal/sqltypes"
)

// Canonical index-key encoding.
//
// encodeKey maps a tuple of values onto a byte string such that
//
//  1. two tuples of values of one kind per column encode to the same
//     key exactly when sqltypes.Compare calls them equal column by
//     column (so one key names one posting list, and join and group hash
//     tables can key on it), and
//  2. the lexicographic byte order of single-value keys matches
//     sqltypes.SortCompare (so the same encoding drives the index's
//     range and in-order scans).
//
// Every index in the engine — constraint or named — is the one B+tree
// of index.go over this one encoder, and keys are never serialised, so
// the encoding can change without a format change. Each component is a
// class tag and a payload:
//
//	0x01 NULL      no payload
//	0x02 numeric   INTEGER and DOUBLE share the class (2 and 2.0 index
//	               equally, as SQL comparison promotes them): the
//	               sign-flipped IEEE-754 image (8 bytes, big-endian;
//	               -0.0 folded into +0.0, every NaN into one NaN that
//	               sorts below all numbers), then — only when the image
//	               is not NaN and |image| >= 2^53 — an 8-byte sign-flipped
//	               int64 tiebreak: an INTEGER's own value, int64(f) for a
//	               DOUBLE inside the int64 range, 0 for ±Inf and
//	               |f| >= 2^63. Beyond 2^53 distinct integers share an
//	               image; the tiebreak keeps them apart and in order.
//	0x03 text      VARCHAR and CLOB: escaped bytes (appendEscaped)
//	0x04 BOOLEAN   one byte, 0 or 1
//	0x05 TIMESTAMP sign-flipped unix seconds (8 bytes), nanoseconds (4)
//	0x06 BLOB      escaped bytes
//	0x07 DATALINK  escaped URL
//
// Tag order matches the kind order SortCompare falls back to for
// incomparable pairs. Whether a numeric component carries the tiebreak
// depends on its image alone, so every component is self-delimiting and
// a tuple's key is the concatenation of its values' keys. A probe must be aligned with the indexed column's
// kind before it is encoded (probeValue): keys are exact within one
// kind, and alignment is what keeps mixed-kind comparisons exact.

const (
	keyTagNull    = 0x01
	keyTagNumeric = 0x02
	keyTagText    = 0x03
	keyTagBool    = 0x04
	keyTagTime    = 0x05
	keyTagBytes   = 0x06
	keyTagLink    = 0x07
)

// encodeKey encodes a tuple of values into one canonical key.
func encodeKey(vals ...sqltypes.Value) string {
	var b []byte
	for _, v := range vals {
		b = appendKey(b, v)
	}
	return string(b)
}

// appendKey appends the canonical encoding of one value.
func appendKey(b []byte, v sqltypes.Value) []byte {
	switch v.Kind() {
	case sqltypes.KindNull:
		return append(b, keyTagNull)
	case sqltypes.KindInt, sqltypes.KindDouble:
		f, _ := v.AsDouble()
		// Canonicalise values Compare treats as equal to one key:
		// -0.0 equals +0.0, and all NaN payloads are one value that
		// sorts below every number (matching sqltypes.Compare).
		if f == 0 {
			f = 0
		} else if math.IsNaN(f) {
			f = math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
		}
		bits := math.Float64bits(f)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip everything
		} else {
			bits |= 1 << 63 // non-negative: set the sign bit
		}
		b = binary.BigEndian.AppendUint64(append(b, keyTagNumeric), bits)
		if !farImage(f) {
			return b
		}
		var tie int64
		if v.Kind() == sqltypes.KindInt {
			tie = v.Int()
		} else if f >= -(1<<63) && f < 1<<63 {
			tie = int64(f)
		}
		return binary.BigEndian.AppendUint64(b, uint64(tie)^(1<<63))
	case sqltypes.KindString, sqltypes.KindClob:
		return appendEscaped(append(b, keyTagText), v.Str())
	case sqltypes.KindBool:
		if v.Bool() {
			return append(b, keyTagBool, 1)
		}
		return append(b, keyTagBool, 0)
	case sqltypes.KindTime:
		t := v.Time()
		b = append(b, keyTagTime)
		b = binary.BigEndian.AppendUint64(b, uint64(t.Unix())^(1<<63))
		return binary.BigEndian.AppendUint32(b, uint32(t.Nanosecond()))
	case sqltypes.KindBytes:
		return appendEscaped(append(b, keyTagBytes), string(v.Bytes()))
	case sqltypes.KindDatalink:
		return appendEscaped(append(b, keyTagLink), v.Str())
	}
	return append(b, keyTagNull)
}

// farImage reports whether a numeric image is one distinct integers can
// share (|f| >= 2^53, NaN excluded), so its key carries the tiebreak.
func farImage(f float64) bool { return math.Abs(f) >= 1<<53 }

// appendEscaped writes s with 0x00 escaped as {0x00,0xFF} and a
// {0x00,0x01} terminator, so concatenated tuple keys stay unambiguous
// and "a" orders before "ab" and before "a\x00b".
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			b = append(b, 0x00, 0xFF)
		} else {
			b = append(b, s[i])
		}
	}
	return append(b, 0x00, 0x01)
}

// nullKey is the canonical encoding of a single NULL, the boundary the
// ordered index uses for IS NULL / IS NOT NULL scans.
var nullKey = encodeKey(sqltypes.Null)

// probeValue maps a lookup value into the key domain of a column of
// kind colKind. Stored values are coerced to their column's type on
// INSERT/UPDATE, so every key in a column's index belongs to one class;
// a probe arriving as a different kind (the QBE layer sends every
// restriction as text) must be coerced the same way before encoding.
// ok=false means the probe cannot be aligned with the index — e.g. a
// numeric probe against a VARCHAR column, which SQL compares by parsing
// each stored string — and the caller must fall back to a heap scan,
// which preserves exact comparison semantics.
//
// Numeric probes are where that matters: sqltypes.Compare promotes a
// mixed INTEGER/DOUBLE pair through float64. On a DOUBLE column every
// probe becomes a DOUBLE, which is exactly that promotion. On an
// INTEGER column a DOUBLE (or text) probe aligns only inside ±2^53 (or
// as NaN), where each integer owns its float64 image; beyond it the
// probe equals every integer sharing its image, which no one key names
// (a range reader takes it through appendProbe).
func probeValue(colKind sqltypes.Kind, v sqltypes.Value) (sqltypes.Value, bool) {
	if v.IsNull() {
		return v, false
	}
	switch colKind {
	case sqltypes.KindInt, sqltypes.KindDouble:
		if colKind == sqltypes.KindInt && v.Kind() == sqltypes.KindInt {
			return v, true
		}
		if !v.IsNumeric() && !v.IsTextual() {
			return v, false
		}
		f, ok := v.AsDouble()
		if ok && (colKind == sqltypes.KindDouble || !farImage(f)) {
			return sqltypes.NewDouble(f), true
		}
	case sqltypes.KindString, sqltypes.KindClob:
		if v.IsTextual() {
			return v, true
		}
	case sqltypes.KindBool:
		if v.Kind() == sqltypes.KindBool {
			return v, true
		}
	case sqltypes.KindTime:
		if v.Kind() == sqltypes.KindTime {
			return v, true
		}
		if v.IsTextual() {
			if t, err := sqltypes.ParseTimestamp(v.Str()); err == nil {
				return sqltypes.NewTime(t), true
			}
		}
	case sqltypes.KindBytes:
		if v.Kind() == sqltypes.KindBytes {
			return v, true
		}
	case sqltypes.KindDatalink:
		if v.Kind() == sqltypes.KindDatalink {
			return v, true
		}
	}
	return v, false
}

// appendProbe appends the key of v aligned to a column of kind colKind
// (probeValue) for a reader that walks a key range, which can also take
// the one probe no single key names: a far DOUBLE (or text) probe on an
// INTEGER column equals exactly the integers sharing its image, whose
// keys all begin with the image. For it span=true, and the appended key
// is the image with the least tiebreak; spanLast gives the greatest.
func appendProbe(b []byte, colKind sqltypes.Kind, v sqltypes.Value) (_ []byte, span, ok bool) {
	if pv, ok := probeValue(colKind, v); ok {
		return appendKey(b, pv), false, true
	}
	if colKind != sqltypes.KindInt || !v.IsNumeric() && !v.IsTextual() {
		return b, false, false
	}
	f, ok := v.AsDouble()
	if !ok || !farImage(f) {
		return b, false, false
	}
	b = appendKey(b, sqltypes.NewDouble(f))
	binary.BigEndian.PutUint64(b[len(b)-8:], 0)
	return b, true, true
}

// spanLast turns the key appendProbe ended with a span into the span's
// last key: the same image with the greatest tiebreak.
func spanLast(k string) string {
	return k[:len(k)-8] + "\xff\xff\xff\xff\xff\xff\xff\xff"
}
