package sqltypes

import (
	"fmt"
	"strings"
	"time"
)

// TypeInfo is the declared type of a table column, as written in DDL.
// Size is the declared length for VARCHAR/CHAR (0 means unbounded).
// Datalink carries the SQL/MED column options for DATALINK columns.
type TypeInfo struct {
	Kind     Kind
	Size     int
	Datalink *DatalinkOptions
}

// String renders the type as it would appear in CREATE TABLE.
func (t TypeInfo) String() string {
	switch t.Kind {
	case KindString:
		if t.Size > 0 {
			return fmt.Sprintf("VARCHAR(%d)", t.Size)
		}
		return "VARCHAR"
	case KindDatalink:
		if t.Datalink != nil {
			return "DATALINK " + t.Datalink.String()
		}
		return "DATALINK"
	default:
		return t.Kind.String()
	}
}

// ParseTimestamp parses the timestamp literal formats accepted in SQL text
// and QBE form input.
func ParseTimestamp(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	for _, layout := range []string{
		"2006-01-02 15:04:05.999999999",
		"2006-01-02 15:04:05",
		"2006-01-02T15:04:05Z07:00",
		"2006-01-02",
	} {
		if t, err := time.Parse(layout, s); err == nil {
			return t.UTC(), nil
		}
	}
	return time.Time{}, fmt.Errorf("sqltypes: cannot parse timestamp %q", s)
}

// CoerceFor converts v so it can be stored into a column of type t,
// returning an error when SQL assignment rules forbid the conversion.
// It is the single point deciding INSERT/UPDATE type compatibility.
func CoerceFor(t TypeInfo, v Value) (Value, error) {
	vk := v.Kind()
	if vk == KindNull {
		return Null, nil
	}
	switch t.Kind {
	case KindInt:
		if n, ok := v.AsInt(); ok {
			return NewInt(n), nil
		}
	case KindDouble:
		if f, ok := v.AsDouble(); ok {
			return NewDouble(f), nil
		}
	case KindString:
		if vk.textual() || vk.numeric() || vk == KindBool || vk == KindTime {
			s := v.AsString()
			if t.Size > 0 && len(s) > t.Size {
				return Null, fmt.Errorf("sqltypes: value too long for %s (%d > %d)", t, len(s), t.Size)
			}
			return NewString(s), nil
		}
	case KindBool:
		switch vk {
		case KindBool:
			return v, nil
		case KindInt:
			return NewBool(v.x != 0), nil
		case KindString:
			switch strings.ToUpper(strings.TrimSpace(v.s)) {
			case "TRUE", "T", "1", "YES":
				return NewBool(true), nil
			case "FALSE", "F", "0", "NO":
				return NewBool(false), nil
			}
		}
	case KindTime:
		switch vk {
		case KindTime:
			return v, nil
		case KindString:
			if ts, err := ParseTimestamp(v.s); err == nil {
				return NewTime(ts), nil
			}
		}
	case KindBytes:
		switch vk {
		case KindBytes:
			return v, nil
		case KindString, KindClob:
			return NewBytes([]byte(v.s)), nil
		}
	case KindClob:
		if vk.textual() {
			return NewClob(v.AsString()), nil
		}
		if vk == KindBytes {
			return NewClob(v.s), nil
		}
	case KindDatalink:
		switch vk {
		case KindDatalink:
			return v, nil
		case KindString:
			if _, err := ParseDatalinkURL(v.s); err != nil {
				return Null, err
			}
			return NewDatalink(v.s), nil
		}
	}
	return Null, fmt.Errorf("sqltypes: cannot store %s value into %s column", vk, t)
}
