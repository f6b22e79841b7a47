package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/sqltypes"
)

// Binary value codec shared by the WAL and the snapshot format.
// Layout: one kind byte, then a kind-specific payload:
//
//	NULL                  — nothing
//	INT/BOOL              — 8-byte little-endian two's complement
//	DOUBLE                — 8-byte IEEE-754 bits
//	TIMESTAMP             — 8-byte unix nanoseconds (UTC)
//	VARCHAR/CLOB/DATALINK — uvarint length + UTF-8 bytes
//	BLOB                  — uvarint length + raw bytes
//
// A row is an 8-byte little-endian value count followed by its values.
//
// Timestamps outside the int64-nanosecond window (before 1678 or after
// 2262, where UnixNano is undefined) and the zero time use the
// farTimeTag kind byte with a 12-byte unix seconds + nanoseconds
// payload, so every instant sqltypes.Value can hold survives the
// WAL/snapshot round trip. The plain 8-byte form is kept for in-window
// values so existing logs stay readable.
//
// Encoding appends to a caller-owned slice (appendValue, appendRow,
// appendWALRecord): the WAL writer reuses one buffer for every record
// it stages and the snapshot writer one per checkpoint, so encoding
// allocates nothing per record. Decoding is a cursor over bytes already
// in memory (decoder) whose first error sticks: every later read
// returns a zero value, so a caller reads a whole record and checks the
// error once. The bytes decoded alias the file image, so every string
// and BLOB is copied out of them exactly once.

// farTimeTag marks the extended TIMESTAMP encoding. It sits far above
// the sqltypes.Kind range, so it can never collide with a kind byte.
const farTimeTag = 0x80 | byte(sqltypes.KindTime)

func appendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendValue(b []byte, v sqltypes.Value) ([]byte, error) {
	switch k := v.Kind(); k {
	case sqltypes.KindNull:
		return append(b, byte(k)), nil
	case sqltypes.KindInt, sqltypes.KindBool:
		return appendUint64(append(b, byte(k)), uint64(v.Int())), nil
	case sqltypes.KindDouble:
		return appendUint64(append(b, byte(k)), math.Float64bits(v.Double())), nil
	case sqltypes.KindTime:
		t := v.Time()
		if t.IsZero() || !sqltypes.InNanoRange(t) {
			b = appendUint64(append(b, farTimeTag), uint64(t.Unix()))
			return binary.LittleEndian.AppendUint32(b, uint32(t.Nanosecond())), nil
		}
		return appendUint64(append(b, byte(k)), uint64(t.UnixNano())), nil
	case sqltypes.KindString, sqltypes.KindClob, sqltypes.KindDatalink, sqltypes.KindBytes:
		// A BLOB's Str is its raw bytes: the payload shares the string slot.
		return appendString(append(b, byte(k)), v.Str()), nil
	default:
		return b, fmt.Errorf("sqldb: cannot encode value kind %d", k)
	}
}

func appendRow(b []byte, vals []sqltypes.Value) ([]byte, error) {
	b = appendUint64(b, uint64(len(vals)))
	var err error
	for _, v := range vals {
		if b, err = appendValue(b, v); err != nil {
			return b, err
		}
	}
	return b, nil
}

// decoder reads encoded fields off the front of b. The first failure
// sticks in err and empties b, so every later read returns a zero value.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// take returns the next n bytes, aliasing the input.
func (d *decoder) take(n int) []byte {
	if len(d.b) < n {
		d.fail(io.ErrUnexpectedEOF)
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) uint8() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) uint32() uint32 {
	if p := d.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *decoder) uint64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// bytes reads a uvarint-length-prefixed field, aliasing the input.
func (d *decoder) bytes() []byte {
	n, k := binary.Uvarint(d.b)
	switch {
	case k == 0:
		d.fail(io.ErrUnexpectedEOF)
		return nil
	case k < 0:
		d.fail(fmt.Errorf("sqldb: corrupt length varint"))
		return nil
	case n > uint64(len(d.b)-k):
		d.fail(fmt.Errorf("sqldb: corrupt length %d", n))
		return nil
	}
	d.b = d.b[k:]
	return d.take(int(n))
}

func (d *decoder) string() string { return string(d.bytes()) }

func (d *decoder) value() sqltypes.Value {
	kb := d.uint8()
	if kb == farTimeTag {
		sec, nsec := int64(d.uint64()), int64(d.uint32())
		return sqltypes.NewTime(time.Unix(sec, nsec).UTC())
	}
	switch kind := sqltypes.Kind(kb); kind {
	case sqltypes.KindNull:
		return sqltypes.Null
	case sqltypes.KindInt:
		return sqltypes.NewInt(int64(d.uint64()))
	case sqltypes.KindBool:
		return sqltypes.NewBool(d.uint64() != 0)
	case sqltypes.KindDouble:
		return sqltypes.NewDouble(math.Float64frombits(d.uint64()))
	case sqltypes.KindTime:
		return sqltypes.NewTime(time.Unix(0, int64(d.uint64())).UTC())
	case sqltypes.KindString:
		return sqltypes.NewString(d.string())
	case sqltypes.KindClob:
		return sqltypes.NewClob(d.string())
	case sqltypes.KindDatalink:
		return sqltypes.NewDatalink(d.string())
	case sqltypes.KindBytes:
		return sqltypes.NewBytes(bytes.Clone(d.bytes()))
	default:
		d.fail(fmt.Errorf("sqldb: corrupt value kind %d", kb))
		return sqltypes.Null
	}
}

func (d *decoder) row() []sqltypes.Value {
	n := d.uint64()
	// Every value takes at least its kind byte: a count beyond the bytes
	// left is corrupt before a slice is sized by it.
	if n > uint64(len(d.b)) {
		d.fail(fmt.Errorf("sqldb: corrupt row width %d", n))
	}
	if d.err != nil {
		return nil
	}
	vals := make([]sqltypes.Value, n)
	for i := range vals {
		vals[i] = d.value()
	}
	return vals
}
