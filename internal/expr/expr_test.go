package expr

import (
	"strings"
	"testing"

	"genogo/internal/gdm"
)

func TestCmpOpHoldsAndString(t *testing.T) {
	cases := []struct {
		op   CmpOp
		str  string
		want [3]bool // holds for c = -1, 0, 1
	}{
		{CmpEq, "==", [3]bool{false, true, false}},
		{CmpNe, "!=", [3]bool{true, false, true}},
		{CmpLt, "<", [3]bool{true, false, false}},
		{CmpLe, "<=", [3]bool{true, true, false}},
		{CmpGt, ">", [3]bool{false, false, true}},
		{CmpGe, ">=", [3]bool{false, true, true}},
	}
	for _, c := range cases {
		if c.op.String() != c.str {
			t.Errorf("%v.String() = %q", c.op, c.op.String())
		}
		for i, cmp := range []int{-1, 0, 1} {
			if got := c.op.holds(cmp); got != c.want[i] {
				t.Errorf("%v.holds(%d) = %v", c.op, cmp, got)
			}
		}
	}
}

func TestMetaCmp(t *testing.T) {
	md := gdm.MetadataFrom(map[string]string{
		"dataType": "ChipSeq",
		"p":        "0.05",
	})
	md.Add("antibody", "CTCF")
	md.Add("antibody", "POL2")
	cases := []struct {
		p    MetaPredicate
		want bool
	}{
		{MetaCmp{"dataType", CmpEq, "chipseq"}, true}, // case-insensitive
		{MetaCmp{"dataType", CmpEq, "RnaSeq"}, false},
		{MetaCmp{"dataType", CmpNe, "RnaSeq"}, true},
		{MetaCmp{"antibody", CmpEq, "POL2"}, true}, // any value matches
		{MetaCmp{"p", CmpLt, "0.1"}, true},
		{MetaCmp{"p", CmpGt, "0.1"}, false},
		{MetaCmp{"p", CmpLe, "0.05"}, true},
		{MetaCmp{"missing", CmpEq, "x"}, false},
		{MetaCmp{"dataType", CmpLt, "zzz"}, true}, // lexicographic fallback
		{MetaExists{"antibody"}, true},
		{MetaExists{"nope"}, false},
		{MetaText{"chip"}, true},
		{MetaText{"pol2"}, true},
		{MetaText{"zzz"}, false},
		{MetaAnd{MetaExists{"antibody"}, MetaCmp{"p", CmpLt, "1"}}, true},
		{MetaAnd{MetaExists{"antibody"}, MetaExists{"nope"}}, false},
		{MetaOr{MetaExists{"nope"}, MetaExists{"antibody"}}, true},
		{MetaOr{MetaExists{"nope"}, MetaExists{"nope2"}}, false},
		{MetaNot{MetaExists{"nope"}}, true},
		{MetaTrue{}, true},
	}
	for _, c := range cases {
		if got := c.p.EvalMeta(md); got != c.want {
			t.Errorf("%s = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMetaPredicateStrings(t *testing.T) {
	p := MetaAnd{
		Left:  MetaNot{MetaCmp{"a", CmpEq, "x"}},
		Right: MetaOr{MetaExists{"b"}, MetaTrue{}},
	}
	s := p.String()
	for _, frag := range []string{"NOT", "a == 'x'", "exists(b)", "AND", "OR", "true"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func testSchema() *gdm.Schema {
	return gdm.MustSchema(
		gdm.Field{Name: "score", Type: gdm.KindFloat},
		gdm.Field{Name: "name", Type: gdm.KindString},
		gdm.Field{Name: "hits", Type: gdm.KindInt},
	)
}

// testRegion is a one-region sample.
func testRegion() *gdm.Sample {
	s := gdm.NewSample("s")
	s.AddRegion(gdm.NewRegion("chr2", 100, 250, gdm.StrandPlus),
		gdm.Float(0.5), gdm.Str("peak1"), gdm.Int(7))
	return s
}

func evalOn(t *testing.T, n Node, s *gdm.Sample) gdm.Value {
	t.Helper()
	b, err := n.Bind(testSchema())
	if err != nil {
		t.Fatalf("Bind(%s): %v", n, err)
	}
	return b.Eval(&s.Regions[0], s.Row(0))
}

func TestAttrFixedAndVariable(t *testing.T) {
	r := testRegion()
	cases := []struct {
		name string
		want gdm.Value
	}{
		{"chr", gdm.Str("chr2")},
		{"chrom", gdm.Str("chr2")},
		{"left", gdm.Int(100)},
		{"start", gdm.Int(100)},
		{"right", gdm.Int(250)},
		{"stop", gdm.Int(250)},
		{"strand", gdm.Str("+")},
		{"score", gdm.Float(0.5)},
		{"name", gdm.Str("peak1")},
		{"hits", gdm.Int(7)},
	}
	for _, c := range cases {
		if got := evalOn(t, Attr{c.name}, r); !gdm.Equal(got, c.want) {
			t.Errorf("Attr(%s) = %v, want %v", c.name, got, c.want)
		}
	}
	if _, err := (Attr{"missing"}).Bind(testSchema()); err == nil {
		t.Error("unknown attribute bound")
	}
}

func TestAttrShortRegion(t *testing.T) {
	// Region with fewer values than the schema position: null, not panic.
	b, err := Attr{"hits"}.Bind(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	short := gdm.NewRegion("chr1", 0, 1, gdm.StrandNone)
	if got := b.Eval(&short, nil); !got.IsNull() {
		t.Errorf("short region eval = %v", got)
	}
}

func TestArith(t *testing.T) {
	r := testRegion()
	cases := []struct {
		n    Node
		want gdm.Value
	}{
		{Arith{OpAdd, Attr{"left"}, Attr{"hits"}}, gdm.Float(107)},
		{Arith{OpSub, Attr{"right"}, Attr{"left"}}, gdm.Float(150)},
		{Arith{OpMul, Attr{"score"}, Const{gdm.Int(4)}}, gdm.Float(2)},
		{Arith{OpDiv, Attr{"hits"}, Const{gdm.Int(2)}}, gdm.Float(3.5)},
		{Arith{OpDiv, Attr{"hits"}, Const{gdm.Int(0)}}, gdm.Null()},
		{Arith{OpAdd, Attr{"name"}, Const{gdm.Int(1)}}, gdm.Null()}, // string operand
	}
	for _, c := range cases {
		got := evalOn(t, c.n, r)
		if got.IsNull() != c.want.IsNull() || !gdm.Equal(got, c.want) {
			t.Errorf("%s = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestCmpAndLogic(t *testing.T) {
	r := testRegion()
	cases := []struct {
		n    Node
		want bool
	}{
		{Cmp{CmpEq, Attr{"chr"}, Const{gdm.Str("chr2")}}, true},
		{Cmp{CmpGt, Attr{"score"}, Const{gdm.Float(0.1)}}, true},
		{Cmp{CmpLt, Attr{"score"}, Const{gdm.Float(0.1)}}, false},
		{Cmp{CmpGe, Attr{"left"}, Const{gdm.Int(100)}}, true},
		{Cmp{CmpNe, Attr{"strand"}, Const{gdm.Str("-")}}, true},
		{And{Cmp{CmpGt, Attr{"score"}, Const{gdm.Float(0)}}, Cmp{CmpEq, Attr{"name"}, Const{gdm.Str("peak1")}}}, true},
		{And{True{}, Cmp{CmpEq, Attr{"name"}, Const{gdm.Str("x")}}}, false},
		{Or{Cmp{CmpEq, Attr{"name"}, Const{gdm.Str("x")}}, True{}}, true},
		{Or{Cmp{CmpEq, Attr{"name"}, Const{gdm.Str("x")}}, Cmp{CmpEq, Attr{"hits"}, Const{gdm.Int(0)}}}, false},
		{Not{True{}}, false},
		{Not{Cmp{CmpEq, Attr{"name"}, Const{gdm.Str("x")}}}, true},
		{True{}, true},
		// Comparison with null collapses to false; its negation is true.
		{Cmp{CmpEq, Arith{OpDiv, Attr{"hits"}, Const{gdm.Int(0)}}, Const{gdm.Int(1)}}, false},
	}
	for _, c := range cases {
		if got := evalOn(t, c.n, r).Bool(); got != c.want {
			t.Errorf("%s = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestBindErrorsPropagate(t *testing.T) {
	bad := Attr{"missing"}
	nodes := []Node{
		Arith{OpAdd, bad, True{}}, Arith{OpAdd, True{}, bad},
		Cmp{CmpEq, bad, True{}}, Cmp{CmpEq, True{}, bad},
		And{bad, True{}}, And{True{}, bad},
		Or{bad, True{}}, Or{True{}, bad},
		Not{bad},
	}
	for _, n := range nodes {
		if _, err := n.Bind(testSchema()); err == nil {
			t.Errorf("%T bound with bad child", n)
		}
	}
}

func TestInferType(t *testing.T) {
	s := testSchema()
	cases := []struct {
		n    Node
		want gdm.Kind
	}{
		{Const{gdm.Int(1)}, gdm.KindInt},
		{Attr{"left"}, gdm.KindInt},
		{Attr{"chr"}, gdm.KindString},
		{Attr{"strand"}, gdm.KindString},
		{Attr{"score"}, gdm.KindFloat},
		{Attr{"name"}, gdm.KindString},
		{Arith{OpAdd, Attr{"left"}, Attr{"hits"}}, gdm.KindFloat},
		{Cmp{CmpEq, Attr{"left"}, Const{gdm.Int(0)}}, gdm.KindBool},
		{And{True{}, True{}}, gdm.KindBool},
		{True{}, gdm.KindBool},
	}
	for _, c := range cases {
		got, err := InferType(c.n, s)
		if err != nil || got != c.want {
			t.Errorf("InferType(%s) = %v,%v; want %v", c.n, got, err, c.want)
		}
	}
	if _, err := InferType(Attr{"zzz"}, s); err == nil {
		t.Error("InferType unknown attr succeeded")
	}
	if _, err := InferType(Arith{OpAdd, Attr{"zzz"}, True{}}, s); err == nil {
		t.Error("InferType bad arith succeeded")
	}
}

func TestNodeStrings(t *testing.T) {
	n := And{
		Left:  Cmp{CmpGe, Attr{"score"}, Const{gdm.Float(0.5)}},
		Right: Or{Not{True{}}, Cmp{CmpEq, Attr{"name"}, Const{gdm.Str("x")}}},
	}
	s := n.String()
	for _, frag := range []string{"score >= 0.5", "NOT true", "name == 'x'", "AND", "OR"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	a := Arith{OpMul, Attr{"score"}, Const{gdm.Int(2)}}
	if a.String() != "(score * 2)" {
		t.Errorf("arith string = %q", a.String())
	}
}
