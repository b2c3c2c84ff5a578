package expr

import (
	"fmt"

	"genogo/internal/gdm"
)

// Node is an unbound region expression: a tree over constants, attribute
// references (fixed or variable), arithmetic, comparisons and boolean
// connectives. Bind compiles it against a schema into a Bound expression
// whose attribute references are positional.
type Node interface {
	Bind(schema *gdm.Schema) (Bound, error)
	String() string
}

// Bound is a compiled region expression, evaluable against one region and
// its row of attribute values (Sample.Row).
type Bound interface {
	Eval(r *gdm.Region, row []gdm.Value) gdm.Value
}

// Const is a literal value.
type Const struct{ Value gdm.Value }

// Bind implements Node.
func (c Const) Bind(*gdm.Schema) (Bound, error) { return boundConst{c.Value}, nil }

// String implements Node.
func (c Const) String() string {
	if c.Value.Kind() == gdm.KindString {
		return fmt.Sprintf("'%s'", c.Value.Str())
	}
	return c.Value.String()
}

type boundConst struct{ v gdm.Value }

func (b boundConst) Eval(*gdm.Region, []gdm.Value) gdm.Value { return b.v }

// Attr references a region attribute by name: either one of the fixed
// coordinate attributes (chr, left/start, right/stop, strand) or a variable
// schema attribute.
type Attr struct{ Name string }

// Bind implements Node.
func (a Attr) Bind(schema *gdm.Schema) (Bound, error) {
	if fixed, ok := gdm.CanonicalFixed(a.Name); ok {
		return boundFixed{fixed}, nil
	}
	i, ok := schema.Index(a.Name)
	if !ok {
		return nil, fmt.Errorf("expr: unknown attribute %q in schema %s", a.Name, schema)
	}
	return boundAttr{i}, nil
}

// String implements Node.
func (a Attr) String() string { return a.Name }

type boundFixed struct{ name string }

func (b boundFixed) Eval(r *gdm.Region, _ []gdm.Value) gdm.Value {
	switch b.name {
	case gdm.FieldChrom:
		return gdm.Str(r.Chrom)
	case gdm.FieldLeft:
		return gdm.Int(r.Start)
	case gdm.FieldRight:
		return gdm.Int(r.Stop)
	case gdm.FieldStrand:
		return gdm.Str(r.Strand.String())
	default:
		return gdm.Null()
	}
}

type boundAttr struct{ idx int }

func (b boundAttr) Eval(_ *gdm.Region, row []gdm.Value) gdm.Value {
	if b.idx >= len(row) {
		return gdm.Null()
	}
	return row[b.idx]
}

// Arith applies an arithmetic operator to two numeric subexpressions.
// Any null operand yields null; division by zero yields null (GMQL treats
// missing values as propagating nulls).
type Arith struct {
	Op          ArithOp
	Left, Right Node
}

// Bind implements Node.
func (a Arith) Bind(schema *gdm.Schema) (Bound, error) {
	l, err := a.Left.Bind(schema)
	if err != nil {
		return nil, err
	}
	r, err := a.Right.Bind(schema)
	if err != nil {
		return nil, err
	}
	return boundArith{a.Op, l, r}, nil
}

// String implements Node.
func (a Arith) String() string { return fmt.Sprintf("(%s %s %s)", a.Left, a.Op, a.Right) }

type boundArith struct {
	op   ArithOp
	l, r Bound
}

func (b boundArith) Eval(reg *gdm.Region, row []gdm.Value) gdm.Value {
	lv, lok := b.l.Eval(reg, row).AsFloat()
	rv, rok := b.r.Eval(reg, row).AsFloat()
	if !lok || !rok {
		return gdm.Null()
	}
	switch b.op {
	case OpAdd:
		return gdm.Float(lv + rv)
	case OpSub:
		return gdm.Float(lv - rv)
	case OpMul:
		return gdm.Float(lv * rv)
	case OpDiv:
		if rv == 0 {
			return gdm.Null()
		}
		return gdm.Float(lv / rv)
	default:
		return gdm.Null()
	}
}

// Cmp compares two subexpressions; comparisons against null are false
// (three-valued logic collapsed to false, as in GMQL region predicates).
type Cmp struct {
	Op          CmpOp
	Left, Right Node
}

// Bind implements Node.
func (c Cmp) Bind(schema *gdm.Schema) (Bound, error) {
	l, err := c.Left.Bind(schema)
	if err != nil {
		return nil, err
	}
	r, err := c.Right.Bind(schema)
	if err != nil {
		return nil, err
	}
	return boundCmp{c.Op, l, r}, nil
}

// String implements Node.
func (c Cmp) String() string { return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right) }

type boundCmp struct {
	op   CmpOp
	l, r Bound
}

func (b boundCmp) Eval(reg *gdm.Region, row []gdm.Value) gdm.Value {
	lv := b.l.Eval(reg, row)
	rv := b.r.Eval(reg, row)
	if lv.IsNull() || rv.IsNull() {
		return gdm.Bool(false)
	}
	return gdm.Bool(b.op.holds(gdm.Compare(lv, rv)))
}

// And is boolean conjunction.
type And struct{ Left, Right Node }

// Bind implements Node.
func (a And) Bind(schema *gdm.Schema) (Bound, error) {
	l, err := a.Left.Bind(schema)
	if err != nil {
		return nil, err
	}
	r, err := a.Right.Bind(schema)
	if err != nil {
		return nil, err
	}
	return boundBool{l, r, true}, nil
}

// String implements Node.
func (a And) String() string { return fmt.Sprintf("(%s AND %s)", a.Left, a.Right) }

// Or is boolean disjunction.
type Or struct{ Left, Right Node }

// Bind implements Node.
func (o Or) Bind(schema *gdm.Schema) (Bound, error) {
	l, err := o.Left.Bind(schema)
	if err != nil {
		return nil, err
	}
	r, err := o.Right.Bind(schema)
	if err != nil {
		return nil, err
	}
	return boundBool{l, r, false}, nil
}

// String implements Node.
func (o Or) String() string { return fmt.Sprintf("(%s OR %s)", o.Left, o.Right) }

type boundBool struct {
	l, r Bound
	and  bool
}

func (b boundBool) Eval(reg *gdm.Region, row []gdm.Value) gdm.Value {
	lv := b.l.Eval(reg, row).Bool()
	if b.and {
		if !lv {
			return gdm.Bool(false)
		}
		return gdm.Bool(b.r.Eval(reg, row).Bool())
	}
	if lv {
		return gdm.Bool(true)
	}
	return gdm.Bool(b.r.Eval(reg, row).Bool())
}

// Not is boolean negation.
type Not struct{ Inner Node }

// Bind implements Node.
func (n Not) Bind(schema *gdm.Schema) (Bound, error) {
	inner, err := n.Inner.Bind(schema)
	if err != nil {
		return nil, err
	}
	return boundNot{inner}, nil
}

// String implements Node.
func (n Not) String() string { return fmt.Sprintf("NOT %s", n.Inner) }

type boundNot struct{ inner Bound }

func (b boundNot) Eval(reg *gdm.Region, row []gdm.Value) gdm.Value {
	return gdm.Bool(!b.inner.Eval(reg, row).Bool())
}

// True is the always-true region predicate.
type True struct{}

// Bind implements Node.
func (True) Bind(*gdm.Schema) (Bound, error) { return boundConst{gdm.Bool(true)}, nil }

// String implements Node.
func (True) String() string { return "true" }

// InferType predicts the value kind an expression produces under the given
// schema, for deriving output schemas of PROJECT expressions.
func InferType(n Node, schema *gdm.Schema) (gdm.Kind, error) {
	switch e := n.(type) {
	case Const:
		return e.Value.Kind(), nil
	case Attr:
		if fixed, ok := gdm.CanonicalFixed(e.Name); ok {
			if fixed == gdm.FieldLeft || fixed == gdm.FieldRight {
				return gdm.KindInt, nil
			}
			return gdm.KindString, nil
		}
		i, ok := schema.Index(e.Name)
		if !ok {
			return gdm.KindNull, fmt.Errorf("expr: unknown attribute %q in schema %s", e.Name, schema)
		}
		return schema.Field(i).Type, nil
	case Arith:
		if _, err := InferType(e.Left, schema); err != nil {
			return gdm.KindNull, err
		}
		if _, err := InferType(e.Right, schema); err != nil {
			return gdm.KindNull, err
		}
		return gdm.KindFloat, nil
	case Cmp, And, Or, Not, True:
		return gdm.KindBool, nil
	default:
		return gdm.KindNull, fmt.Errorf("expr: cannot infer type of %T", n)
	}
}
