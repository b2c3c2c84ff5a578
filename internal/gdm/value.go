// Package gdm implements the Genomic Data Model (GDM) of Ceri et al.
// (EDBT 2016): a dataset is a collection of samples, each sample pairs a set
// of genomic regions (with a fixed coordinate part and a variable, typed
// attribute part) with free attribute-value metadata. The sample identifier
// connects regions and metadata of the same sample.
//
// The package provides the model only; operators over datasets live in
// internal/engine and the GMQL language in internal/gmql.
package gdm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the types a region attribute value may take. The model is
// deliberately small: every processed-data format the paper considers (peaks,
// signals, mutations, loops, break points) is expressible with these kinds.
type Kind uint8

// Value kinds. KindNull marks a missing value; it compares less than any
// non-null value so sorted outputs are deterministic.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lower-case name of the kind as used in schema files.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a schema type name into a Kind. It accepts the synonyms
// used by common genomic schema files (e.g. "long", "double", "char").
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "null":
		return KindNull, nil
	case "int", "integer", "long":
		return KindInt, nil
	case "float", "double", "real", "number":
		return KindFloat, nil
	case "string", "char", "text", "str":
		return KindString, nil
	case "bool", "boolean", "flag":
		return KindBool, nil
	default:
		return KindNull, fmt.Errorf("gdm: unknown value kind %q", s)
	}
}

// Value is a typed attribute value. It is a tagged struct rather than an
// interface so that large region slices stay free of per-value heap boxes;
// datasets routinely hold tens of millions of regions. Its 32 bytes are the
// string payload, one 64-bit payload shared by the numeric kinds (the int,
// the bool as 0 or 1, or the float's IEEE-754 bits, so -0.0 and NaN keep
// their bits) and the kind tag; the accessors read the 64-bit payload only
// for the kinds that own it.
type Value struct {
	s    string
	n    uint64
	kind Kind
}

// Null returns the missing value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a floating point value.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// Kind reports the kind tag of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is missing.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It is 0 unless Kind is KindInt or KindBool.
func (v Value) Int() int64 {
	if v.kind == KindInt || v.kind == KindBool {
		return int64(v.n)
	}
	return 0
}

// Float returns the float payload. It is 0 unless Kind is KindFloat.
func (v Value) Float() float64 {
	if v.kind == KindFloat {
		return math.Float64frombits(v.n)
	}
	return 0
}

// Str returns the string payload. It is "" unless Kind is KindString.
func (v Value) Str() string { return v.s }

// Bool returns the boolean payload: whether Int is nonzero.
func (v Value) Bool() bool { return v.Int() != 0 }

// AsFloat converts numeric and boolean values to float64 for use in
// aggregates and arithmetic. Strings and nulls yield (0, false).
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt, KindBool:
		return float64(int64(v.n)), true
	case KindFloat:
		return math.Float64frombits(v.n), true
	default:
		return 0, false
	}
}

// String renders the value the way the native GDM text format writes it.
// Nulls render as the conventional "NULL" marker.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	default:
		return "NULL"
	}
}

// Coerce converts the value to the requested kind, parsing strings and
// widening ints as needed. It fails when the conversion loses meaning
// (e.g. "abc" to int).
func (v Value) Coerce(k Kind) (Value, error) {
	if v.kind == k || v.kind == KindNull {
		if v.kind == KindNull {
			return Null(), nil
		}
		return v, nil
	}
	switch k {
	case KindFloat:
		if f, ok := v.AsFloat(); ok {
			return Float(f), nil
		}
		if v.kind == KindString {
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return Null(), fmt.Errorf("gdm: cannot coerce %q to float: %w", v.s, err)
			}
			return Float(f), nil
		}
	case KindInt:
		switch v.kind {
		case KindFloat:
			if f := v.Float(); f == math.Trunc(f) && !math.IsInf(f, 0) {
				return Int(int64(f)), nil
			}
			return Null(), fmt.Errorf("gdm: cannot coerce non-integral float %g to int", v.Float())
		case KindBool:
			return Int(v.Int()), nil
		case KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return Null(), fmt.Errorf("gdm: cannot coerce %q to int: %w", v.s, err)
			}
			return Int(i), nil
		}
	case KindString:
		return Str(v.String()), nil
	case KindBool:
		switch v.kind {
		case KindInt:
			return Bool(v.n != 0), nil
		case KindString:
			b, err := strconv.ParseBool(strings.TrimSpace(v.s))
			if err != nil {
				return Null(), fmt.Errorf("gdm: cannot coerce %q to bool: %w", v.s, err)
			}
			return Bool(b), nil
		}
	}
	return Null(), fmt.Errorf("gdm: cannot coerce %s to %s", v.kind, k)
}

// ParseValue parses the textual form of a value of the given kind, as found
// in region files. The "NULL" marker (and "." in BED-derived formats) parses
// to the missing value for every kind.
func ParseValue(k Kind, text string) (Value, error) {
	if text == "NULL" || text == "null" || text == "." {
		return Null(), nil
	}
	switch k {
	case KindNull:
		return Null(), nil
	case KindInt:
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			// Peak callers emit integral scores as "12.0"; accept them.
			f, ferr := strconv.ParseFloat(text, 64)
			if ferr == nil && f == math.Trunc(f) {
				return Int(int64(f)), nil
			}
			return Null(), fmt.Errorf("gdm: bad int %q: %w", text, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Null(), fmt.Errorf("gdm: bad float %q: %w", text, err)
		}
		return Float(f), nil
	case KindString:
		return Str(text), nil
	case KindBool:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return Null(), fmt.Errorf("gdm: bad bool %q: %w", text, err)
		}
		return Bool(b), nil
	default:
		return Null(), fmt.Errorf("gdm: bad kind %d", k)
	}
}

// Compare orders two values. Nulls sort first; values of different kinds are
// ordered by kind tag, then by payload. Numeric kinds (int, float) compare by
// numeric value so mixed-kind schemas still sort sensibly.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	an, aok := a.AsFloat()
	bn, bok := b.AsFloat()
	if aok && bok {
		switch {
		case an < bn:
			return -1
		case an > bn:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	// Same non-numeric kind: strings.
	return strings.Compare(a.s, b.s)
}

// Equal reports whether two values are identical in kind and payload, with
// numeric cross-kind equality (Int(3) equals Float(3)).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }
