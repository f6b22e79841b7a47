package sqldb

import (
	"encoding/binary"
	"math"
	"time"

	"repro/internal/sqltypes"
)

// Canonical index-key encoding.
//
// encodeKey maps a tuple of values onto a byte string such that
//
//  1. two tuples encode to the same key exactly when they are equal
//     under the engine's comparison rules within one column's type
//     domain (so one key names one posting list, and join and group
//     hash tables can key on it), and
//  2. the lexicographic byte order of single-value keys matches
//     sqltypes.SortCompare (so the same encoding drives the index's
//     range and in-order scans).
//
// Every index in the engine — constraint or named — is the one B+tree
// of index.go over this one encoder. The previous encoder rendered
// values through AsString, which collided across kinds (BOOLEAN TRUE vs
// VARCHAR 'TRUE', TIMESTAMP vs its formatted text) and missed equal
// values with distinct renderings (a timestamp probed via its RFC3339
// spelling). Here each value carries a class tag:
//
//	0x01 NULL
//	0x02 numeric (INTEGER and DOUBLE share the class: 2 and 2.0 index
//	     equally, as SQL comparison promotes them)
//	0x03 text (VARCHAR and CLOB)
//	0x04 BOOLEAN
//	0x05 TIMESTAMP
//	0x06 BLOB
//	0x07 DATALINK
//
// Tag order matches the kind order SortCompare falls back to for
// incomparable pairs, and within a class the payload is byte-comparable:
// numerics use the sign-flipped IEEE-754 trick, timestamps sign-flipped
// seconds plus nanoseconds, and byte strings an escape encoding that
// keeps 0x00 transparent and orders prefixes first.
//
// Integers beyond 2^53 share their float64 image with neighbouring
// values (the prior encoder had the same normalisation, and the
// engine's own mixed int/double comparison promotes through float64).
// Equality and range row SETS stay correct because every index consumer
// re-applies the residual predicate, PRIMARY KEY / UNIQUE checks compare
// a colliding key's holder on its exact values (tableData.checkUnique),
// and GROUP BY / DISTINCT key on appendExactKey, with the index-ordered
// grouping strategies declining any execution that meets such a key.
// The one observable difference from a heap scan is ordering WITHIN a
// colliding key when an index serves ORDER BY — those rows come back in
// insertion order rather than exact-integer order.

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
		b = append(b, keyTagNumeric)
		return binary.BigEndian.AppendUint64(b, bits)
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

// appendExactKey is appendKey made exact between integers, for the
// consumers that take key equality as value equality with no residual
// check behind it — GROUP BY and DISTINCT. A numeric whose float64 image
// other integers share (exactProbe is false) appends its exact int64 as a
// tiebreak, so 2^53 and 2^53+1 get different keys, while INTEGER 1 and
// DOUBLE 1 still share one, as sqltypes.Compare says. A far DOUBLE
// appends the integer it equals, zero when no int64 does.
func appendExactKey(b []byte, v sqltypes.Value) []byte {
	b = appendKey(b, v)
	if exactProbe(v) {
		return b
	}
	var exact int64
	if f, _ := v.AsDouble(); v.Kind() == sqltypes.KindInt {
		exact = v.Int()
	} else if f >= -(1<<63) && f < 1<<63 {
		exact = int64(f)
	}
	return binary.BigEndian.AppendUint64(b, uint64(exact))
}

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

// ---------- decoding ----------
//
// The encoding is also (partially) decodable: the index-only MIN/MAX
// executor reads the aggregate's answer straight off the boundary KEY
// instead of fetching the boundary rows, but only for components that
// round-trip exactly to the stored value. The non-round-tripping cases
// — where one key image is shared by more than one storable value —
// make decodeKeyValue report ok=false and the caller falls back to the
// row fetch:
//
//	numeric, INTEGER column — beyond ±2^53 distinct integers share a
//	    float64 image; inside the window the integer is exact.
//	numeric, DOUBLE column  — -0.0 and +0.0 share one key (Compare
//	    treats them as equal), so a zero key cannot name its sign.
//	    All NaN payloads were canonicalised to one key, but every NaN
//	    is observably identical to the engine, so NaN round-trips.
//
// Text, BLOB and DATALINK escape encodings invert exactly; BOOLEAN is
// one byte; TIMESTAMP keys carry the full (seconds, nanoseconds) pair.
// The decoded value is materialised in the COLUMN's declared kind —
// stored values were coerced to it on write, so the class tag alone
// (numeric, text) would not distinguish INTEGER from DOUBLE or VARCHAR
// from CLOB.

// skipKeyComponent returns the remainder of k after one encoded value,
// or ok=false on a truncated or unrecognised component.
func skipKeyComponent(k string) (rest string, ok bool) {
	if len(k) == 0 {
		return "", false
	}
	switch k[0] {
	case keyTagNull:
		return k[1:], true
	case keyTagNumeric:
		if len(k) < 9 {
			return "", false
		}
		return k[9:], true
	case keyTagBool:
		if len(k) < 2 {
			return "", false
		}
		return k[2:], true
	case keyTagTime:
		if len(k) < 13 {
			return "", false
		}
		return k[13:], true
	case keyTagText, keyTagBytes, keyTagLink:
		for i := 1; i < len(k); i++ {
			if k[i] != 0x00 {
				continue
			}
			if i+1 >= len(k) {
				return "", false
			}
			if k[i+1] == 0x01 {
				return k[i+2:], true
			}
			i++ // skip the escaped byte
		}
		return "", false
	}
	return "", false
}

// unescapeKey inverts appendEscaped on the leading component of k.
func unescapeKey(k string) (s string, ok bool) {
	var b []byte
	for i := 0; i < len(k); i++ {
		if k[i] != 0x00 {
			b = append(b, k[i])
			continue
		}
		if i+1 >= len(k) {
			return "", false
		}
		switch k[i+1] {
		case 0x01:
			return string(b), true
		case 0xFF:
			b = append(b, 0x00)
			i++
		default:
			return "", false
		}
	}
	return "", false
}

// decodeKeyValue decodes the leading component of k into the domain of
// a column of kind colKind. ok=false means the component does not
// round-trip (see the decoding notes above) or its class does not match
// the column's kind; the caller must fall back to fetching rows.
func decodeKeyValue(k string, colKind sqltypes.Kind) (sqltypes.Value, bool) {
	if len(k) == 0 {
		return sqltypes.Null, false
	}
	switch k[0] {
	case keyTagNull:
		return sqltypes.Null, true
	case keyTagNumeric:
		if len(k) < 9 {
			return sqltypes.Null, false
		}
		bits := binary.BigEndian.Uint64([]byte(k[1:9]))
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63 // non-negative: clear the set sign bit
		} else {
			bits = ^bits // negative: unflip everything
		}
		f := math.Float64frombits(bits)
		switch colKind {
		case sqltypes.KindInt:
			if math.IsNaN(f) || math.IsInf(f, 0) || f != math.Trunc(f) || math.Abs(f) >= 1<<53 {
				return sqltypes.Null, false
			}
			return sqltypes.NewInt(int64(f)), true
		case sqltypes.KindDouble:
			if f == 0 {
				return sqltypes.Null, false // cannot reconstruct the sign of ±0.0
			}
			return sqltypes.NewDouble(f), true
		}
		return sqltypes.Null, false
	case keyTagText:
		s, ok := unescapeKey(k[1:])
		if !ok {
			return sqltypes.Null, false
		}
		switch colKind {
		case sqltypes.KindString:
			return sqltypes.NewString(s), true
		case sqltypes.KindClob:
			return sqltypes.NewClob(s), true
		}
		return sqltypes.Null, false
	case keyTagBool:
		if len(k) < 2 || colKind != sqltypes.KindBool {
			return sqltypes.Null, false
		}
		return sqltypes.NewBool(k[1] != 0), true
	case keyTagTime:
		if len(k) < 13 || colKind != sqltypes.KindTime {
			return sqltypes.Null, false
		}
		sec := int64(binary.BigEndian.Uint64([]byte(k[1:9])) ^ (1 << 63))
		nsec := int64(binary.BigEndian.Uint32([]byte(k[9:13])))
		return sqltypes.NewTime(time.Unix(sec, nsec).UTC()), true
	case keyTagBytes:
		s, ok := unescapeKey(k[1:])
		if !ok || colKind != sqltypes.KindBytes {
			return sqltypes.Null, false
		}
		return sqltypes.NewBytes([]byte(s)), true
	case keyTagLink:
		s, ok := unescapeKey(k[1:])
		if !ok || colKind != sqltypes.KindDatalink {
			return sqltypes.Null, false
		}
		return sqltypes.NewDatalink(s), true
	}
	return sqltypes.Null, false
}

// decodeKeyColumn decodes the slot-th component of a concatenated index
// key as a value of the column's kind (the boundary-key MIN/MAX read).
func decodeKeyColumn(k string, slot int, colKind sqltypes.Kind) (sqltypes.Value, bool) {
	for i := 0; i < slot; i++ {
		rest, ok := skipKeyComponent(k)
		if !ok {
			return sqltypes.Null, false
		}
		k = rest
	}
	return decodeKeyValue(k, colKind)
}

// probeValue maps a lookup value into the key domain of a column of
// kind colKind. Stored values are coerced to their column's type on
// INSERT/UPDATE, so every key in a column's index belongs to one class;
// a probe arriving as a different kind (the QBE layer sends every
// restriction as text) must be coerced the same way before encoding.
// ok=false means the probe cannot be aligned with the index — e.g. a
// numeric probe against a VARCHAR column, which SQL compares by parsing
// each stored string — and the caller must fall back to a heap scan,
// which preserves exact comparison semantics.
func probeValue(colKind sqltypes.Kind, v sqltypes.Value) (sqltypes.Value, bool) {
	if v.IsNull() {
		return v, false
	}
	switch colKind {
	case sqltypes.KindInt, sqltypes.KindDouble:
		if v.IsNumeric() {
			return v, true
		}
		if v.IsTextual() {
			if f, ok := v.AsDouble(); ok {
				return sqltypes.NewDouble(f), true
			}
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
