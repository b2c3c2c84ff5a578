package expr

import (
	"math"
	"testing"
	"testing/quick"

	"genogo/internal/gdm"
)

func TestParseAggFunc(t *testing.T) {
	ok := map[string]AggFunc{
		"COUNT": AggCount, "count": AggCount, "COUNTSAMP": AggCountSamp,
		"SUM": AggSum, "AVG": AggAvg, "MEAN": AggAvg,
		"MIN": AggMin, "MAX": AggMax, "MEDIAN": AggMedian,
		"STD": AggStd, "STDEV": AggStd, "BAG": AggBag,
	}
	for in, want := range ok {
		got, err := ParseAggFunc(in)
		if err != nil || got != want {
			t.Errorf("ParseAggFunc(%q) = %v,%v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseAggFunc("FROB"); err == nil {
		t.Error("ParseAggFunc(FROB) succeeded")
	}
}

func TestAggFuncMetadata(t *testing.T) {
	if AggCount.NeedsAttr() || AggCountSamp.NeedsAttr() {
		t.Error("COUNT needs no attribute")
	}
	if !AggSum.NeedsAttr() {
		t.Error("SUM needs an attribute")
	}
	kinds := []struct {
		f    AggFunc
		in   gdm.Kind
		want gdm.Kind
	}{
		{AggCount, gdm.KindString, gdm.KindInt},
		{AggSum, gdm.KindInt, gdm.KindInt},
		{AggSum, gdm.KindFloat, gdm.KindFloat},
		{AggAvg, gdm.KindInt, gdm.KindFloat},
		{AggMedian, gdm.KindInt, gdm.KindFloat},
		{AggStd, gdm.KindFloat, gdm.KindFloat},
		{AggMin, gdm.KindString, gdm.KindString},
		{AggMax, gdm.KindInt, gdm.KindInt},
		{AggBag, gdm.KindFloat, gdm.KindString},
	}
	for _, c := range kinds {
		if got := c.f.ResultKind(c.in); got != c.want {
			t.Errorf("%v.ResultKind(%v) = %v, want %v", c.f, c.in, got, c.want)
		}
	}
	a := Aggregate{Output: "n", Func: AggCount}
	if a.String() != "n AS COUNT" {
		t.Errorf("Aggregate.String = %q", a.String())
	}
	b := Aggregate{Output: "m", Func: AggAvg, Attr: "score"}
	if b.String() != "m AS AVG(score)" {
		t.Errorf("Aggregate.String = %q", b.String())
	}
}

func vals(fs ...float64) []gdm.Value {
	out := make([]gdm.Value, len(fs))
	for i, f := range fs {
		out[i] = gdm.Float(f)
	}
	return out
}

func TestAggregateValues(t *testing.T) {
	cases := []struct {
		fn   AggFunc
		in   []gdm.Value
		want gdm.Value
	}{
		{AggCount, vals(1, 2, 3), gdm.Int(3)},
		{AggCount, nil, gdm.Int(0)},
		{AggSum, vals(1, 2, 3.5), gdm.Float(6.5)},
		{AggSum, []gdm.Value{gdm.Int(2), gdm.Int(3)}, gdm.Int(5)},
		{AggSum, nil, gdm.Null()},
		{AggAvg, vals(2, 4), gdm.Float(3)},
		{AggMin, vals(5, -1, 3), gdm.Float(-1)},
		{AggMax, vals(5, -1, 3), gdm.Float(5)},
		{AggMin, []gdm.Value{gdm.Str("b"), gdm.Str("a")}, gdm.Str("a")},
		{AggMedian, vals(1, 9, 5), gdm.Float(5)},
		{AggMedian, vals(1, 9, 5, 7), gdm.Float(6)},
		{AggStd, vals(2, 2, 2), gdm.Float(0)},
		{AggBag, []gdm.Value{gdm.Str("b"), gdm.Str("a")}, gdm.Str("a,b")},
	}
	for _, c := range cases {
		got := AggregateValues(c.fn, c.in)
		if got.IsNull() != c.want.IsNull() || !gdm.Equal(got, c.want) {
			t.Errorf("%v over %v = %v, want %v", c.fn, c.in, got, c.want)
		}
	}
}

func TestAccumulatorStd(t *testing.T) {
	got := AggregateValues(AggStd, vals(2, 4, 4, 4, 5, 5, 7, 9))
	if math.Abs(got.Float()-2.0) > 1e-9 {
		t.Errorf("STD = %v, want 2", got)
	}
}

func TestAggStateSkipsNullsAndBadStrings(t *testing.T) {
	acc := NewAggState(AggSum, 1)
	acc.Add(0, gdm.Null())
	acc.Add(0, gdm.Float(1))
	acc.Add(0, gdm.Str("2.5")) // numeric string parses
	acc.Add(0, gdm.Str("xyz")) // ignored
	if got := acc.Result(0); got.Float() != 3.5 {
		t.Errorf("Result = %v", got)
	}
	// Two values were folded, not four: the average divides by two.
	if got := AggregateValues(AggAvg, []gdm.Value{gdm.Null(), gdm.Float(1), gdm.Str("2.5"), gdm.Str("xyz")}); got.Float() != 1.75 {
		t.Errorf("AVG = %v, want 1.75", got)
	}
	// COUNT counts everything, including nulls.
	c := NewAggState(AggCount, 1)
	c.Add(0, gdm.Null())
	c.Add(0, gdm.Float(1))
	if c.Result(0).Int() != 2 {
		t.Errorf("COUNT with null = %v", c.Result(0))
	}
}

// TestSumIntExact: ints add as ints. Folding them through float64 loses
// 2^53+1.
func TestSumIntExact(t *testing.T) {
	const big = int64(1)<<53 + 1
	got := AggregateValues(AggSum, []gdm.Value{gdm.Int(big), gdm.Int(1)})
	if got.Kind() != gdm.KindInt || got.Int() != big+1 {
		t.Errorf("SUM{2^53+1, 1} = %v (%v), want int %d", got, got.Kind(), big+1)
	}
	mixed := AggregateValues(AggSum, []gdm.Value{gdm.Int(2), gdm.Float(0.5), gdm.Int(1)})
	if mixed.Kind() != gdm.KindFloat || mixed.Float() != 3.5 {
		t.Errorf("SUM{2, 0.5, 1} = %v (%v), want float 3.5", mixed, mixed.Kind())
	}
}

func TestAggregateStrings(t *testing.T) {
	if got := AggregateStrings(AggAvg, []string{"1", "3"}); got.Float() != 2 {
		t.Errorf("AVG strings = %v", got)
	}
	if got := AggregateStrings(AggBag, []string{"x", "y"}); got.Str() != "x,y" {
		t.Errorf("BAG strings = %v", got)
	}
	if got := AggregateStrings(AggMax, []string{"HeLa", "K562"}); got.Str() != "K562" {
		t.Errorf("MAX strings = %v", got)
	}
}

func TestAggStateQuickProperties(t *testing.T) {
	// SUM = AVG * COUNT, MIN <= MEDIAN <= MAX, STD >= 0 — on every row of
	// row-indexed state fed in interleaved order, and each row equal to the
	// one-row fold of the same values (rows do not leak into each other).
	fns := []AggFunc{AggSum, AggAvg, AggCount, AggMedian, AggMin, AggMax, AggStd, AggBag}
	f := func(raw []int16, rowOf []uint8) bool {
		const rows = 5
		states := make(map[AggFunc]*AggState, len(fns))
		for _, fn := range fns {
			states[fn] = NewAggState(fn, rows)
		}
		perRow := make([][]gdm.Value, rows)
		for i, r := range raw {
			row := 0
			if i < len(rowOf) {
				row = int(rowOf[i]) % rows
			}
			v := gdm.Float(float64(r))
			perRow[row] = append(perRow[row], v)
			for _, st := range states {
				st.Add(row, v)
			}
		}
		for row, vs := range perRow {
			for _, fn := range fns {
				got, want := states[fn].Result(row), AggregateValues(fn, vs)
				if got.IsNull() != want.IsNull() || !gdm.Equal(got, want) {
					t.Logf("row %d: %v = %v, one-row fold gives %v", row, fn, got, want)
					return false
				}
			}
			if len(vs) == 0 {
				continue
			}
			sum, avg := states[AggSum].Result(row).Float(), states[AggAvg].Result(row).Float()
			cnt := states[AggCount].Result(row).Int()
			med := states[AggMedian].Result(row).Float()
			mn, mx := states[AggMin].Result(row).Float(), states[AggMax].Result(row).Float()
			if cnt != int64(len(vs)) || math.Abs(sum-avg*float64(cnt)) > 1e-6*(1+math.Abs(sum)) {
				return false
			}
			if mn > med || med > mx || states[AggStd].Result(row).Float() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
