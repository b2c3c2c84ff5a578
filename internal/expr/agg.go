package expr

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"genogo/internal/gdm"
)

// AggFunc enumerates the aggregate functions of GMQL (used by MAP, EXTEND,
// GROUP, COVER attribute computation and the AGGREGATE forms of the paper).
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggCountSamp
	AggSum
	AggAvg
	AggMin
	AggMax
	AggMedian
	AggStd
	AggBag
)

// String renders the function name in GMQL surface syntax.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggCountSamp:
		return "COUNTSAMP"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggMedian:
		return "MEDIAN"
	case AggStd:
		return "STD"
	case AggBag:
		return "BAG"
	default:
		return fmt.Sprintf("AGG(%d)", uint8(f))
	}
}

// ParseAggFunc resolves a GMQL aggregate function name.
func ParseAggFunc(name string) (AggFunc, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "COUNT":
		return AggCount, nil
	case "COUNTSAMP":
		return AggCountSamp, nil
	case "SUM":
		return AggSum, nil
	case "AVG", "MEAN":
		return AggAvg, nil
	case "MIN":
		return AggMin, nil
	case "MAX":
		return AggMax, nil
	case "MEDIAN":
		return AggMedian, nil
	case "STD", "STDEV":
		return AggStd, nil
	case "BAG":
		return AggBag, nil
	default:
		return AggCount, fmt.Errorf("expr: unknown aggregate function %q", name)
	}
}

// NeedsAttr reports whether the function requires an input attribute
// (COUNT and COUNTSAMP count regions/samples and take none).
func (f AggFunc) NeedsAttr() bool { return f != AggCount && f != AggCountSamp }

// ResultKind predicts the kind of the aggregate's result given the input
// attribute kind (ignored for COUNT-like functions).
func (f AggFunc) ResultKind(input gdm.Kind) gdm.Kind {
	switch f {
	case AggCount, AggCountSamp:
		return gdm.KindInt
	case AggAvg, AggMedian, AggStd:
		return gdm.KindFloat
	case AggSum:
		if input == gdm.KindInt {
			return gdm.KindInt
		}
		return gdm.KindFloat
	case AggMin, AggMax:
		return input
	case AggBag:
		return gdm.KindString
	default:
		return gdm.KindNull
	}
}

// Aggregate is one "output AS FUNC(attr)" clause.
type Aggregate struct {
	Output string  // result attribute name
	Func   AggFunc // aggregate function
	Attr   string  // input attribute ("" for COUNT)
}

// String renders the clause in GMQL surface syntax.
func (a Aggregate) String() string {
	if !a.Func.NeedsAttr() {
		return fmt.Sprintf("%s AS %s", a.Output, a.Func)
	}
	return fmt.Sprintf("%s AS %s(%s)", a.Output, a.Func, a.Attr)
}

// AggState folds streams of values into one aggregate result per row: MAP
// keeps a row per reference region of a sample pair, COVER and GROUP one per
// output region, and the scalar users (EXTEND, GROUP's metadata aggregates,
// AggregateValues) are the one-row case. The state is flat arrays indexed by
// row, and only the arrays the function reads exist — a COUNT is a []int64 —
// so an operator allocates per task, not per row; only MEDIAN and BAG, which
// must keep every value, hold a slice per row. Rows are independent:
// goroutines may Add to disjoint rows concurrently. A row that folded nothing
// yields null (COUNT-like functions yield 0).
type AggState struct {
	fn     AggFunc
	n      []int64     // values folded
	sumF   []float64   // SUM, AVG, STD
	sumSq  []float64   // STD
	sumI   []int64     // SUM: the exact sum of the int values
	nonInt []bool      // SUM: a non-int value was folded, so the result is a float
	ext    []gdm.Value // MIN, MAX: the running extreme
	floats [][]float64 // MEDIAN
	strs   [][]string  // BAG
}

// NewAggState returns empty state for rows rows of the function.
func NewAggState(fn AggFunc, rows int) *AggState {
	a := &AggState{fn: fn, n: make([]int64, rows)}
	switch fn {
	case AggSum:
		a.sumF, a.sumI, a.nonInt = make([]float64, rows), make([]int64, rows), make([]bool, rows)
	case AggAvg:
		a.sumF = make([]float64, rows)
	case AggStd:
		a.sumF, a.sumSq = make([]float64, rows), make([]float64, rows)
	case AggMin, AggMax:
		a.ext = make([]gdm.Value, rows)
	case AggMedian:
		a.floats = make([][]float64, rows)
	case AggBag:
		a.strs = make([][]string, rows)
	}
	return a
}

// Add folds one value into a row. Null values are skipped (they carry no
// information), except for COUNT-like functions where Add counts occurrences
// regardless of the value passed.
func (a *AggState) Add(row int, v gdm.Value) {
	switch a.fn {
	case AggCount, AggCountSamp:
		a.n[row]++
		return
	}
	if v.IsNull() {
		return
	}
	switch a.fn {
	case AggBag:
		a.strs[row] = append(a.strs[row], v.String())
	case AggMin:
		if a.n[row] == 0 || gdm.Compare(v, a.ext[row]) < 0 {
			a.ext[row] = v
		}
	case AggMax:
		if a.n[row] == 0 || gdm.Compare(v, a.ext[row]) > 0 {
			a.ext[row] = v
		}
	default:
		f, ok := v.AsFloat()
		if !ok {
			// Strings in numeric aggregates are parsed when possible; metadata
			// values arrive as strings.
			var err error
			f, err = strconv.ParseFloat(strings.TrimSpace(v.Str()), 64)
			if err != nil {
				return
			}
		}
		switch a.fn {
		case AggSum:
			// Ints add exactly; a float64 cannot hold every int64.
			if v.Kind() == gdm.KindInt {
				a.sumI[row] += v.Int()
			} else {
				a.nonInt[row] = true
			}
			a.sumF[row] += f
		case AggAvg:
			a.sumF[row] += f
		case AggStd:
			a.sumF[row] += f
			a.sumSq[row] += f * f
		case AggMedian:
			a.floats[row] = append(a.floats[row], f)
		}
	}
	a.n[row]++
}

// Result returns a row's aggregate value.
func (a *AggState) Result(row int) gdm.Value {
	n := a.n[row]
	switch a.fn {
	case AggCount, AggCountSamp:
		return gdm.Int(n)
	}
	if n == 0 {
		return gdm.Null()
	}
	switch a.fn {
	case AggSum:
		if a.nonInt[row] {
			return gdm.Float(a.sumF[row])
		}
		return gdm.Int(a.sumI[row])
	case AggAvg:
		return gdm.Float(a.sumF[row] / float64(n))
	case AggMin, AggMax:
		return a.ext[row]
	case AggMedian:
		s := a.floats[row]
		slices.Sort(s)
		mid := len(s) / 2
		if len(s)%2 == 1 {
			return gdm.Float(s[mid])
		}
		return gdm.Float((s[mid-1] + s[mid]) / 2)
	case AggStd:
		mean := a.sumF[row] / float64(n)
		varc := a.sumSq[row]/float64(n) - mean*mean
		if varc < 0 {
			varc = 0 // numeric noise
		}
		return gdm.Float(math.Sqrt(varc))
	case AggBag:
		slices.Sort(a.strs[row])
		return gdm.Str(strings.Join(a.strs[row], ","))
	default:
		return gdm.Null()
	}
}

// AggregateValues folds a whole slice at once — convenience for tests and
// for operators that already gathered the group.
func AggregateValues(fn AggFunc, vs []gdm.Value) gdm.Value {
	acc := NewAggState(fn, 1)
	for _, v := range vs {
		acc.Add(0, v)
	}
	return acc.Result(0)
}

// AggregateStrings folds metadata values (strings) — used by EXTEND/GROUP
// aggregates over metadata and by the federation statistics endpoints.
func AggregateStrings(fn AggFunc, vs []string) gdm.Value {
	acc := NewAggState(fn, 1)
	for _, v := range vs {
		acc.Add(0, gdm.Str(v))
	}
	return acc.Result(0)
}
