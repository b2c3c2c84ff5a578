package gdm

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindInt: "int", KindFloat: "float",
		KindString: "string", KindBool: "bool", Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	ok := map[string]Kind{
		"int": KindInt, "INTEGER": KindInt, "long": KindInt,
		"float": KindFloat, "DOUBLE": KindFloat, "real": KindFloat, "number": KindFloat,
		"string": KindString, "char": KindString, " text ": KindString,
		"bool": KindBool, "boolean": KindBool, "flag": KindBool,
		"null": KindNull,
	}
	for in, want := range ok {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseKind("quux"); err == nil {
		t.Error("ParseKind(quux) succeeded, want error")
	}
}

// TestValueConstructorsAndAccessors pins every accessor for every kind: Int and Bool read
// the numeric payload only for int and bool values, Float only for floats,
// Str only for strings, whatever the payload's bits.
func TestValueConstructorsAndAccessors(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	for _, c := range []struct {
		v       Value
		kind    Kind
		i       int64
		f       float64
		str     string
		b       bool
		asFloat float64
		numeric bool
	}{
		{Null(), KindNull, 0, 0, "", false, 0, false},
		{Int(42), KindInt, 42, 0, "", true, 42, true},
		{Int(-1), KindInt, -1, 0, "", true, -1, true},
		{Int(0), KindInt, 0, 0, "", false, 0, true},
		{Int(math.MinInt64), KindInt, math.MinInt64, 0, "", true, math.MinInt64, true},
		{Float(2.5), KindFloat, 0, 2.5, "", false, 2.5, true},
		{Float(-1), KindFloat, 0, -1, "", false, -1, true},
		{Float(negZero), KindFloat, 0, negZero, "", false, negZero, true},
		{Str("x"), KindString, 0, 0, "x", false, 0, false},
		{Str(""), KindString, 0, 0, "", false, 0, false},
		{Bool(true), KindBool, 1, 0, "", true, 1, true},
		{Bool(false), KindBool, 0, 0, "", false, 0, true},
	} {
		f, numeric := c.v.AsFloat()
		if c.v.Kind() != c.kind || c.v.IsNull() != (c.kind == KindNull) || c.v.Int() != c.i ||
			math.Float64bits(c.v.Float()) != math.Float64bits(c.f) || c.v.Str() != c.str || c.v.Bool() != c.b ||
			math.Float64bits(f) != math.Float64bits(c.asFloat) || numeric != c.numeric {
			t.Errorf("%s %v: kind %s Int %d Float %g Str %q Bool %v AsFloat %g,%v",
				c.kind, c.v, c.v.Kind(), c.v.Int(), c.v.Float(), c.v.Str(), c.v.Bool(), f, numeric)
		}
	}
	if v := Float(nan); v.Int() != 0 || v.Bool() || !math.IsNaN(v.Float()) {
		t.Errorf("Float(NaN): Int %d Bool %v Float %g", v.Int(), v.Bool(), v.Float())
	}
	// A float's payload is its IEEE-754 bits, kept exactly.
	for _, bits := range []uint64{math.Float64bits(negZero), math.Float64bits(nan), 0x7ff4000000000abc, 0xfff8000000000001} {
		if got := math.Float64bits(Float(math.Float64frombits(bits)).Float()); got != bits {
			t.Errorf("Float bits %#x came back %#x", bits, got)
		}
	}
}

// TestValueLayout pins the sizes a sample is made of: a Value is a string,
// one 64-bit payload and a kind tag, and a Region is its coordinates alone —
// a chromosome name, two int64s and the strand, with one pointer.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("Value is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(Region{}); got != 40 {
		t.Errorf("Region is %d bytes, want 40", got)
	}
}

func TestValueAsFloat(t *testing.T) {
	cases := []struct {
		v    Value
		want float64
		ok   bool
	}{
		{Int(3), 3, true},
		{Float(1.5), 1.5, true},
		{Bool(true), 1, true},
		{Bool(false), 0, true},
		{Str("7"), 0, false},
		{Null(), 0, false},
	}
	for _, c := range cases {
		got, ok := c.v.AsFloat()
		if got != c.want || ok != c.ok {
			t.Errorf("%v.AsFloat() = %v,%v; want %v,%v", c.v, got, ok, c.want, c.ok)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL": Null(), "42": Int(42), "-1": Int(-1),
		"2.5": Float(2.5), "x y": Str("x y"), "true": Bool(true), "false": Bool(false),
		"-0": Float(math.Copysign(0, -1)), "NaN": Float(math.NaN()), "+Inf": Float(math.Inf(1)),
		"-9223372036854775808": Int(math.MinInt64),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
}

func TestValueCoerce(t *testing.T) {
	cases := []struct {
		in   Value
		to   Kind
		want Value
		err  bool
	}{
		{Int(3), KindFloat, Float(3), false},
		{Int(3), KindString, Str("3"), false},
		{Int(0), KindBool, Bool(false), false},
		{Int(2), KindBool, Bool(true), false},
		{Float(3), KindInt, Int(3), false},
		{Float(3.5), KindInt, Null(), true},
		{Float(math.Inf(1)), KindInt, Null(), true},
		{Str("12"), KindInt, Int(12), false},
		{Str(" 2.5 "), KindFloat, Float(2.5), false},
		{Str("true"), KindBool, Bool(true), false},
		{Str("abc"), KindInt, Null(), true},
		{Str("abc"), KindFloat, Null(), true},
		{Str("maybe"), KindBool, Null(), true},
		{Bool(true), KindInt, Int(1), false},
		{Bool(true), KindFloat, Float(1), false},
		{Bool(true), KindString, Str("true"), false},
		{Null(), KindInt, Null(), false},
		{Int(1), KindInt, Int(1), false},
		{Float(math.Copysign(0, -1)), KindInt, Int(0), false},
		{Float(math.Copysign(0, -1)), KindString, Str("-0"), false},
		{Float(math.NaN()), KindInt, Null(), true},
		{Float(2), KindBool, Null(), true},
		{Bool(false), KindInt, Int(0), false},
		{Int(-5), KindFloat, Float(-5), false},
	}
	for _, c := range cases {
		got, err := c.in.Coerce(c.to)
		if c.err {
			if err == nil {
				t.Errorf("%v.Coerce(%v) succeeded with %v, want error", c.in, c.to, got)
			}
			continue
		}
		if err != nil || !Equal(got, c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("%v.Coerce(%v) = %v,%v; want %v", c.in, c.to, got, err, c.want)
		}
	}
	if _, err := Int(1).Coerce(KindNull); err == nil {
		t.Error("coerce to null succeeded")
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		k    Kind
		text string
		want Value
		err  bool
	}{
		{KindInt, "7", Int(7), false},
		{KindInt, "12.0", Int(12), false}, // peak callers emit integral floats
		{KindInt, "12.5", Null(), true},
		{KindInt, "x", Null(), true},
		{KindFloat, "1e-5", Float(1e-5), false},
		{KindFloat, "z", Null(), true},
		{KindString, "hello", Str("hello"), false},
		{KindBool, "true", Bool(true), false},
		{KindBool, "2", Null(), true},
		{KindInt, "NULL", Null(), false},
		{KindFloat, ".", Null(), false}, // BED missing marker
		{KindString, "null", Null(), false},
		{KindNull, "anything", Null(), false},
		{Kind(77), "x", Null(), true},
	}
	for _, c := range cases {
		got, err := ParseValue(c.k, c.text)
		if c.err {
			if err == nil {
				t.Errorf("ParseValue(%v,%q) succeeded with %v, want error", c.k, c.text, got)
			}
			continue
		}
		if err != nil || !Equal(got, c.want) || got.IsNull() != c.want.IsNull() {
			t.Errorf("ParseValue(%v,%q) = %v,%v; want %v", c.k, c.text, got, err, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Int(1), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Int(3), Float(3), 0}, // numeric cross-kind equality
		{Float(1.5), Float(1.5), 0},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("a"), Str("a"), 0},
		{Int(1), Str("a"), -1}, // kind order: int < string
		{Str("a"), Int(1), 1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Int(1), 0},
		{Float(math.Copysign(0, -1)), Float(0), 0}, // -0 == +0 numerically
		{Float(math.Copysign(0, -1)), Int(0), 0},
		{Float(math.NaN()), Float(1), 0}, // NaN is unordered: neither less nor greater
		{Float(math.Inf(-1)), Int(math.MinInt64), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetryQuick(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return Compare(Float(a), Float(b)) == -Compare(Float(b), Float(a))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestValueStringParseRoundTripQuick(t *testing.T) {
	f := func(v int64) bool {
		got, err := ParseValue(KindInt, Int(v).String())
		return err == nil && got.Int() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		got, err := ParseValue(KindFloat, Float(v).String())
		return err == nil && got.Float() == v
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}
