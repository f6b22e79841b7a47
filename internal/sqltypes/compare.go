package sqltypes

import (
	"math"
	"strings"
)

// Compare orders two non-NULL values. It returns (-1|0|1, true) when the
// pair is comparable under SQL rules (numeric with numeric, string with
// string/CLOB, bool with bool, time with time, blob with blob, datalink
// with datalink by URL), and (0, false) otherwise — including when either
// side is NULL, since NULL compares as UNKNOWN.
func Compare(a, b Value) (int, bool) {
	return compare(a, a.Kind(), b, b.Kind())
}

// compare is Compare for values whose kinds ak and bk the caller has
// read, so each is derived once per comparison.
func compare(a Value, ak Kind, b Value, bk Kind) (int, bool) {
	if ak == KindNull || bk == KindNull {
		return 0, false
	}
	if ak == bk {
		switch ak {
		case KindInt, KindBool:
			return cmpInt(int64(a.x), int64(b.x)), true
		case KindDouble:
			return cmpFloat(a.Double(), b.Double()), true
		case KindTime:
			if a.isScalar() && b.isScalar() {
				return cmpInt(int64(a.x), int64(b.x)), true
			}
			at, bt := a.Time(), b.Time()
			switch {
			case at.Before(bt):
				return -1, true
			case at.After(bt):
				return 1, true
			default:
				return 0, true
			}
		case KindString, KindClob, KindBytes, KindDatalink:
			return strings.Compare(a.s, b.s), true
		}
		return 0, false
	}
	switch {
	// Numeric cross-kind promotion.
	case ak.numeric() && bk.numeric():
		af, _ := a.asDouble(ak)
		bf, _ := b.asDouble(bk)
		return cmpFloat(af, bf), true
	case ak.textual() && bk.textual():
		return strings.Compare(a.s, b.s), true
	// Mixed string/number: SQL engines typically attempt numeric coercion
	// of the string operand; we follow that convention because the QBE
	// layer sends every restriction as text.
	case ak.textual() && bk.numeric():
		if af, ok := a.asDouble(ak); ok {
			bf, _ := b.asDouble(bk)
			return cmpFloat(af, bf), true
		}
		return 0, false
	case ak.numeric() && bk.textual():
		if bf, ok := b.asDouble(bk); ok {
			af, _ := a.asDouble(ak)
			return cmpFloat(af, bf), true
		}
		return 0, false
	case ak == KindTime && bk.textual():
		if bt, err := ParseTimestamp(b.s); err == nil {
			return Compare(a, NewTime(bt))
		}
		return 0, false
	case ak.textual() && bk == KindTime:
		c, ok := Compare(b, a)
		return -c, ok
	}
	return 0, false
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	// At least one NaN (every operator above is false). Order NaN below
	// every number and equal to itself, keeping the ordering total —
	// the naive "neither < nor >" fallthrough reported NaN equal to
	// everything, which no index structure can represent.
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	default:
		return 1
	}
}

// SortCompare orders values for ORDER BY: NULLs sort first, then by
// Compare; incomparable pairs order by kind so sorting is total and stable.
func SortCompare(a, b Value) int {
	ak, bk := a.Kind(), b.Kind()
	an, bn := ak == KindNull, bk == KindNull
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if c, ok := compare(a, ak, b, bk); ok {
		return c
	}
	return cmpInt(int64(ak), int64(bk))
}
