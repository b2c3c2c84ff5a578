// Package difftest is the differential execution oracle for the GMQL engine:
// a seeded generator of random-but-valid GMQL scripts, a canonical result
// normalizer, and a harness that runs every script under every execution
// backend (serial / batch / fused stream × workers, plus a federation
// round-trip) and compares the results against the serial oracle.
//
// The paper's core claim is that one GMQL script has a single meaning
// regardless of backend (Section 4.2); this package is the machine check of
// that claim. Every future perf PR — sharding, fusion, kernel rewrites —
// runs against this oracle, the way SQLancer-style differential testing
// guards SQL planners.
package difftest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"genogo/internal/gdm"
)

// Stmt is one generated assignment, kept structured so the minimizer can
// rebuild a script from any statement's dependency closure.
type Stmt struct {
	// Var is the assigned variable (V1, V2, ...).
	Var string
	// Text is the full statement line, terminated by ";".
	Text string
	// Deps lists the generated variables this statement references
	// (base datasets are not listed — they resolve through the catalog).
	Deps []string
	// Op is the operator keyword of the statement, for coverage counting.
	Op string
}

// Script is one generated GMQL program.
type Script struct {
	// Seed reproduces the script via Generate(Seed).
	Seed int64
	// Stmts are the assignments in emission (topological) order.
	Stmts []Stmt
	// Final is the materialized variable the oracle compares.
	Final string
	// Ops counts operator keywords used, for campaign coverage reports.
	Ops map[string]int
}

// Text renders the full script, ending with a MATERIALIZE of Final.
func (s *Script) Text() string {
	var b strings.Builder
	for _, st := range s.Stmts {
		b.WriteString(st.Text)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "MATERIALIZE %s INTO OUT;\n", s.Final)
	return b.String()
}

// TextFor renders the sub-script that materializes one variable: the
// dependency closure of target, in original order. This is the unit the
// minimizer bisects over.
func (s *Script) TextFor(target string) string {
	need := map[string]bool{target: true}
	// Statements are topologically ordered, so one reverse pass closes the set.
	for i := len(s.Stmts) - 1; i >= 0; i-- {
		st := s.Stmts[i]
		if !need[st.Var] {
			continue
		}
		for _, d := range st.Deps {
			need[d] = true
		}
	}
	var b strings.Builder
	for _, st := range s.Stmts {
		if need[st.Var] {
			b.WriteString(st.Text)
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "MATERIALIZE %s INTO OUT;\n", target)
	return b.String()
}

// varInfo tracks what the generator knows about a variable: enough schema
// and metadata information to keep every emitted clause valid.
type varInfo struct {
	name   string
	schema *gdm.Schema
	// metas are metadata attributes likely present on samples (used for
	// predicates, groupby, joinby, order keys).
	metas []string
	// samples is a rough upper bound on the sample count, used to cap the
	// blowup of chained binary operators.
	samples int
}

// encodeMetas are the metadata attributes synth.Encode emits (some samples
// miss the optional ones — predicates over them are still valid GMQL).
var encodeMetas = []string{"dataType", "cell", "antibody", "treatment", "karyotype", "sex"}

// annotMetas are the metadata attributes of synth annotation tracks.
var annotMetas = []string{"annType", "provider"}

// Metadata value vocabularies, mirroring internal/synth so equality
// predicates sometimes hit. Keyed by the unprefixed attribute name.
var metaVocab = map[string][]string{
	"dataType":  {"ChipSeq", "RnaSeq", "DnaseSeq"},
	"cell":      {"HeLa-S3", "K562", "GM12878", "HepG2", "H1-hESC", "MCF-7"},
	"antibody":  {"CTCF", "POLR2A", "MYC", "REST", "EP300", "H3K27ac"},
	"treatment": {"none", "IFNg", "TNFa", "estradiol"},
	"karyotype": {"cancer", "normal"},
	"sex":       {"female", "male"},
	"annType":   {"promoter", "gene"},
	"provider":  {"UCSC", "RefSeq"},
}

// generator holds the in-flight state of one script generation.
type generator struct {
	r     *rand.Rand
	vars  []varInfo // generated variables, in order
	bases []varInfo // catalog datasets
	ops   map[string]int
	stmts []Stmt
	nVar  int
	nAttr int
}

// Generate produces one random-but-valid GMQL script from a seed. The same
// seed always yields the same script (math/rand with a fixed source is
// specified to be stable), which is what makes campaign reports and fuzz
// corpora reproducible.
func Generate(seed int64) *Script {
	g := &generator{r: rand.New(rand.NewSource(seed)), ops: make(map[string]int)}
	g.bases = []varInfo{
		{name: "ENCODE", schema: peakSchema(), metas: encodeMetas, samples: encodeSamples},
		{name: "PEAKS", schema: peakSchema(), metas: encodeMetas, samples: peaksSamples},
		{name: "ANNOT", schema: annotSchema(), metas: annotMetas, samples: 2},
	}
	n := 2 + g.r.Intn(4) // 2..5 statements
	for i := 0; i < n; i++ {
		g.emit()
	}
	return &Script{
		Seed:  seed,
		Stmts: g.stmts,
		Final: g.vars[len(g.vars)-1].name,
		Ops:   g.ops,
	}
}

func peakSchema() *gdm.Schema {
	return gdm.MustSchema(
		gdm.Field{Name: "p_value", Type: gdm.KindFloat},
		gdm.Field{Name: "signal", Type: gdm.KindFloat},
	)
}

func annotSchema() *gdm.Schema {
	return gdm.MustSchema(gdm.Field{Name: "name", Type: gdm.KindString})
}

// freshVar mints the next variable name.
func (g *generator) freshVar() string {
	g.nVar++
	return fmt.Sprintf("V%d", g.nVar)
}

// freshAttr mints a region/metadata attribute name that cannot collide with
// any schema field or metadata attribute the catalog or earlier statements
// produced.
func (g *generator) freshAttr() string {
	g.nAttr++
	return fmt.Sprintf("x%d", g.nAttr)
}

// pickInput chooses the input variable of the next statement: usually the
// most recent one (so scripts form deep chains), sometimes any earlier
// variable or a base dataset (so scripts form DAGs).
func (g *generator) pickInput() varInfo {
	if len(g.vars) > 0 && g.r.Float64() < 0.6 {
		return g.vars[len(g.vars)-1]
	}
	all := append(append([]varInfo(nil), g.bases...), g.vars...)
	return all[g.r.Intn(len(all))]
}

// pickOperand chooses a second operand whose sample-count product with in
// stays under the blowup cap; ok is false when none qualifies.
func (g *generator) pickOperand(in varInfo) (varInfo, bool) {
	all := append(append([]varInfo(nil), g.bases...), g.vars...)
	g.r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, cand := range all {
		if in.samples*cand.samples <= maxSampleProduct {
			return cand, true
		}
	}
	return varInfo{}, false
}

// maxSampleProduct caps l×r for JOIN/MAP so chained binary operators cannot
// blow the sample count up exponentially.
const maxSampleProduct = 24

// record finalizes one statement.
func (g *generator) record(op string, v varInfo, text string, deps ...string) {
	g.ops[op]++
	// Deduplicate deps and keep only generated variables.
	seen := map[string]bool{}
	var keep []string
	for _, d := range deps {
		if seen[d] || !strings.HasPrefix(d, "V") {
			continue
		}
		seen[d] = true
		keep = append(keep, d)
	}
	g.stmts = append(g.stmts, Stmt{Var: v.name, Text: text, Deps: keep, Op: op})
	g.vars = append(g.vars, v)
}

// numericFields returns the Int/Float fields of a schema — the ones usable
// in arithmetic and comparisons.
func numericFields(s *gdm.Schema) []gdm.Field {
	var out []gdm.Field
	for _, f := range s.Fields() {
		if f.Type == gdm.KindInt || f.Type == gdm.KindFloat {
			out = append(out, f)
		}
	}
	return out
}

// emit appends one random statement.
func (g *generator) emit() {
	in := g.pickInput()
	// Weighted operator choice. Binary operators and region_aggregate GROUPs
	// fall back to SELECT when their preconditions fail.
	type choice struct {
		w  int
		fn func(varInfo)
	}
	choices := []choice{
		{18, g.emitSelect},
		{12, g.emitProject},
		{8, g.emitExtend},
		{6, g.emitMerge},
		{7, g.emitGroup},
		{9, g.emitOrder},
		{7, g.emitUnion},
		{7, g.emitDifference},
		{10, g.emitJoin},
		{10, g.emitMap},
		{9, g.emitCover},
	}
	total := 0
	for _, c := range choices {
		total += c.w
	}
	p := g.r.Intn(total)
	for _, c := range choices {
		if p < c.w {
			c.fn(in)
			return
		}
		p -= c.w
	}
}

// metaPredicate builds a random metadata predicate over the input's
// attributes; returns "" when the coin flip says no predicate.
func (g *generator) metaPredicate(in varInfo) string {
	if len(in.metas) == 0 || g.r.Float64() < 0.25 {
		return ""
	}
	atom := func() string {
		attr := in.metas[g.r.Intn(len(in.metas))]
		base := attr
		if i := strings.LastIndex(attr, "."); i >= 0 {
			base = attr[i+1:]
		}
		vocab, ok := metaVocab[base]
		if !ok || g.r.Float64() < 0.25 {
			return attr // bare attribute: existence test
		}
		op := "=="
		if g.r.Float64() < 0.3 {
			op = "!="
		}
		return fmt.Sprintf("%s %s '%s'", attr, op, vocab[g.r.Intn(len(vocab))])
	}
	pred := atom()
	switch g.r.Intn(4) {
	case 0:
		pred = pred + " AND " + atom()
	case 1:
		pred = pred + " OR " + atom()
	case 2:
		pred = "NOT (" + atom() + ")"
	}
	return pred
}

// regionPredicate builds a random region predicate valid under the schema;
// "" when none.
func (g *generator) regionPredicate(s *gdm.Schema) string {
	var cands []string
	// Coordinate predicates are always available.
	cands = append(cands,
		fmt.Sprintf("right - left > %d", 100+g.r.Intn(400)),
		fmt.Sprintf("left > %d", g.r.Intn(1000000)),
		"chr == 'chr1' OR chr == 'chr2'",
	)
	for _, f := range numericFields(s) {
		switch {
		case f.Name == "p_value" || strings.HasSuffix(f.Name, ".p_value"):
			cands = append(cands, fmt.Sprintf("%s < %g", f.Name, []float64{1e-3, 1e-5, 1e-7}[g.r.Intn(3)]))
		case f.Type == gdm.KindFloat:
			cands = append(cands, fmt.Sprintf("%s > %g", f.Name, 1+4*g.r.Float64()))
		default:
			cands = append(cands, fmt.Sprintf("%s >= %d", f.Name, g.r.Intn(3)))
		}
	}
	p := cands[g.r.Intn(len(cands))]
	if g.r.Float64() < 0.2 {
		q := cands[g.r.Intn(len(cands))]
		if g.r.Intn(2) == 0 {
			p = p + " AND " + q
		} else {
			p = "NOT (" + p + ") AND " + q
		}
	}
	return p
}

func (g *generator) emitSelect(in varInfo) {
	var clauses []string
	if m := g.metaPredicate(in); m != "" {
		clauses = append(clauses, m)
	}
	if g.r.Float64() < 0.6 {
		clauses = append(clauses, "region: "+g.regionPredicate(in.schema))
	}
	deps := []string{in.name}
	if g.r.Float64() < 0.15 && len(in.metas) > 0 {
		ext := g.bases[g.r.Intn(len(g.bases))]
		attr := in.metas[g.r.Intn(len(in.metas))]
		not := ""
		if g.r.Intn(2) == 0 {
			not = "NOT "
		}
		clauses = append(clauses, fmt.Sprintf("semijoin: %s %sIN %s", attr, not, ext.name))
		deps = append(deps, ext.name)
	}
	v := varInfo{name: g.freshVar(), schema: in.schema, metas: in.metas, samples: in.samples}
	text := fmt.Sprintf("%s = SELECT(%s) %s;", v.name, strings.Join(clauses, "; "), in.name)
	g.record("SELECT", v, text, deps...)
}

func (g *generator) emitProject(in varInfo) {
	fields := in.schema.Fields()
	// Keep a random non-empty subset of the fields, in schema order.
	keep := make([]bool, len(fields))
	any := false
	for i := range keep {
		if g.r.Float64() < 0.7 {
			keep[i] = true
			any = true
		}
	}
	if !any && len(fields) > 0 {
		keep[g.r.Intn(len(fields))] = true
	}
	var items []string
	var outFields []gdm.Field
	for i, f := range fields {
		if keep[i] {
			items = append(items, f.Name)
			outFields = append(outFields, f)
		}
	}
	// Maybe add computed items (arithmetic ⇒ Float, comparison ⇒ Bool).
	nums := numericFields(in.schema)
	for i := 0; i < g.r.Intn(3); i++ {
		name := g.freshAttr()
		switch {
		case len(nums) > 0 && g.r.Float64() < 0.6:
			f := nums[g.r.Intn(len(nums))]
			if g.r.Intn(2) == 0 {
				items = append(items, fmt.Sprintf("%s AS %s * 2 + 1", name, f.Name))
				outFields = append(outFields, gdm.Field{Name: name, Type: gdm.KindFloat})
			} else {
				items = append(items, fmt.Sprintf("%s AS %s > 1", name, f.Name))
				outFields = append(outFields, gdm.Field{Name: name, Type: gdm.KindBool})
			}
		default:
			items = append(items, fmt.Sprintf("%s AS right - left", name))
			outFields = append(outFields, gdm.Field{Name: name, Type: gdm.KindFloat})
		}
	}
	if len(items) == 0 {
		// Schema had no fields and no computed item was drawn: synthesize one.
		name := g.freshAttr()
		items = append(items, fmt.Sprintf("%s AS right - left", name))
		outFields = append(outFields, gdm.Field{Name: name, Type: gdm.KindFloat})
	}
	clauses := []string{strings.Join(items, ", ")}
	metas := in.metas
	if g.r.Float64() < 0.3 && len(in.metas) > 0 {
		n := 1 + g.r.Intn(len(in.metas))
		kept := append([]string(nil), in.metas...)
		g.r.Shuffle(len(kept), func(i, j int) { kept[i], kept[j] = kept[j], kept[i] })
		kept = kept[:n]
		sort.Strings(kept)
		clauses = append(clauses, "metadata: "+strings.Join(kept, ", "))
		metas = kept
	}
	v := varInfo{name: g.freshVar(), schema: gdm.MustSchema(outFields...), metas: metas, samples: in.samples}
	text := fmt.Sprintf("%s = PROJECT(%s) %s;", v.name, strings.Join(clauses, "; "), in.name)
	g.record("PROJECT", v, text, in.name)
}

// randomAggs draws n aggregates over the given schema with fresh output
// names, returning the clause text and the output fields.
func (g *generator) randomAggs(s *gdm.Schema, n int) (string, []gdm.Field) {
	var parts []string
	var out []gdm.Field
	nums := numericFields(s)
	all := s.Fields()
	for i := 0; i < n; i++ {
		name := g.freshAttr()
		switch {
		case g.r.Float64() < 0.3 || len(all) == 0:
			parts = append(parts, fmt.Sprintf("%s AS COUNT", name))
			out = append(out, gdm.Field{Name: name, Type: gdm.KindInt})
		case len(nums) > 0 && g.r.Float64() < 0.7:
			f := nums[g.r.Intn(len(nums))]
			fn := []string{"SUM", "AVG", "MIN", "MAX", "MEDIAN", "STD"}[g.r.Intn(6)]
			parts = append(parts, fmt.Sprintf("%s AS %s(%s)", name, fn, f.Name))
			out = append(out, gdm.Field{Name: name, Type: aggResultKind(fn, f.Type)})
		default:
			f := all[g.r.Intn(len(all))]
			parts = append(parts, fmt.Sprintf("%s AS BAG(%s)", name, f.Name))
			out = append(out, gdm.Field{Name: name, Type: gdm.KindString})
		}
	}
	return strings.Join(parts, ", "), out
}

// aggResultKind mirrors expr.AggFunc.ResultKind for the functions the
// generator draws.
func aggResultKind(fn string, input gdm.Kind) gdm.Kind {
	switch fn {
	case "COUNT", "COUNTSAMP":
		return gdm.KindInt
	case "AVG", "MEDIAN", "STD":
		return gdm.KindFloat
	case "SUM":
		if input == gdm.KindInt {
			return gdm.KindInt
		}
		return gdm.KindFloat
	case "MIN", "MAX":
		return input
	case "BAG":
		return gdm.KindString
	}
	return gdm.KindNull
}

func (g *generator) emitExtend(in varInfo) {
	clause, fields := g.randomAggs(in.schema, 1+g.r.Intn(2))
	metas := append([]string(nil), in.metas...)
	for _, f := range fields {
		metas = append(metas, f.Name)
	}
	v := varInfo{name: g.freshVar(), schema: in.schema, metas: metas, samples: in.samples}
	text := fmt.Sprintf("%s = EXTEND(%s) %s;", v.name, clause, in.name)
	g.record("EXTEND", v, text, in.name)
}

func (g *generator) emitMerge(in varInfo) {
	clause := ""
	samples := 1
	if g.r.Float64() < 0.5 && len(in.metas) > 0 {
		attr := in.metas[g.r.Intn(len(in.metas))]
		clause = "groupby: " + attr
		samples = min(in.samples, 4)
	}
	v := varInfo{name: g.freshVar(), schema: in.schema, metas: in.metas, samples: samples}
	text := fmt.Sprintf("%s = MERGE(%s) %s;", v.name, clause, in.name)
	g.record("MERGE", v, text, in.name)
}

func (g *generator) emitGroup(in varInfo) {
	if len(in.metas) == 0 {
		g.emitSelect(in)
		return
	}
	by := in.metas[g.r.Intn(len(in.metas))]
	clauses := []string{by}
	metas := append([]string(nil), in.metas...)
	metas = append(metas, "_group")
	if g.r.Float64() < 0.4 {
		name := g.freshAttr()
		if g.r.Intn(2) == 0 {
			clauses = append(clauses, fmt.Sprintf("%s AS COUNTSAMP", name))
		} else {
			src := in.metas[g.r.Intn(len(in.metas))]
			clauses = append(clauses, fmt.Sprintf("%s AS BAG(%s)", name, src))
		}
		metas = append(metas, name)
	}
	schema := in.schema
	if g.r.Float64() < 0.4 {
		clause, fields := g.randomAggs(in.schema, 1+g.r.Intn(2))
		clauses = append(clauses, "region_aggregate: "+clause)
		schema = gdm.MustSchema(fields...)
	}
	v := varInfo{name: g.freshVar(), schema: schema, metas: metas, samples: in.samples}
	text := fmt.Sprintf("%s = GROUP(%s) %s;", v.name, strings.Join(clauses, "; "), in.name)
	g.record("GROUP", v, text, in.name)
}

func (g *generator) emitOrder(in varInfo) {
	var clauses []string
	samples := in.samples
	hasMetaKeys := len(in.metas) > 0 && g.r.Float64() < 0.8
	if hasMetaKeys {
		var keys []string
		for i := 0; i < 1+g.r.Intn(2); i++ {
			k := in.metas[g.r.Intn(len(in.metas))]
			if g.r.Intn(2) == 0 {
				k += " DESC"
			}
			keys = append(keys, k)
		}
		clauses = append(clauses, strings.Join(keys, ", "))
		if g.r.Float64() < 0.5 {
			top := 1 + g.r.Intn(5)
			clauses = append(clauses, fmt.Sprintf("top: %d", top))
			samples = min(samples, top)
		}
	}
	fields := in.schema.Fields()
	if len(fields) > 0 && (!hasMetaKeys || g.r.Float64() < 0.4) {
		f := fields[g.r.Intn(len(fields))]
		dir := ""
		if g.r.Intn(2) == 0 {
			dir = " DESC"
		}
		clauses = append(clauses, fmt.Sprintf("region_order: %s%s", f.Name, dir))
		if g.r.Float64() < 0.5 {
			clauses = append(clauses, fmt.Sprintf("region_top: %d", 1+g.r.Intn(20)))
		}
	}
	if len(clauses) == 0 {
		g.emitSelect(in)
		return
	}
	metas := append(append([]string(nil), in.metas...), "_order")
	v := varInfo{name: g.freshVar(), schema: in.schema, metas: metas, samples: samples}
	text := fmt.Sprintf("%s = ORDER(%s) %s;", v.name, strings.Join(clauses, "; "), in.name)
	g.record("ORDER", v, text, in.name)
}

// unionMetas merges two meta-attribute lists without duplicates.
func unionMetas(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range append(append([]string(nil), a...), b...) {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// prefixMetas applies the left./right. provenance prefixes binary region
// operators add.
func prefixMetas(l, r []string) []string {
	var out []string
	for _, m := range l {
		out = append(out, "left."+m)
	}
	for _, m := range r {
		out = append(out, "right."+m)
	}
	return out
}

func (g *generator) emitUnion(in varInfo) {
	other, ok := g.pickOperand(in)
	if !ok {
		g.emitSelect(in)
		return
	}
	v := varInfo{
		name:    g.freshVar(),
		schema:  in.schema, // UNION keeps the left schema
		metas:   unionMetas(in.metas, other.metas),
		samples: in.samples + other.samples,
	}
	text := fmt.Sprintf("%s = UNION() %s %s;", v.name, in.name, other.name)
	g.record("UNION", v, text, in.name, other.name)
}

// commonMeta picks a metadata attribute present on both operands, "" if none.
func (g *generator) commonMeta(a, b varInfo) string {
	var both []string
	seen := map[string]bool{}
	for _, m := range a.metas {
		seen[m] = true
	}
	for _, m := range b.metas {
		if seen[m] {
			both = append(both, m)
		}
	}
	if len(both) == 0 {
		return ""
	}
	return both[g.r.Intn(len(both))]
}

func (g *generator) emitDifference(in varInfo) {
	other, ok := g.pickOperand(in)
	if !ok {
		g.emitSelect(in)
		return
	}
	var clauses []string
	if m := g.commonMeta(in, other); m != "" && g.r.Float64() < 0.3 {
		clauses = append(clauses, "joinby: "+m)
	}
	if g.r.Float64() < 0.3 {
		clauses = append(clauses, "exact: true")
	}
	v := varInfo{name: g.freshVar(), schema: in.schema, metas: in.metas, samples: in.samples}
	text := fmt.Sprintf("%s = DIFFERENCE(%s) %s %s;", v.name, strings.Join(clauses, "; "), in.name, other.name)
	g.record("DIFFERENCE", v, text, in.name, other.name)
}

// genometricPred draws a bounded genometric predicate. Every draw includes a
// DLE or MD condition, so the join never degenerates into the O(n·m)
// all-pairs case.
func (g *generator) genometricPred() string {
	dists := []int{0, 50, 500, 5000, 30000}
	d := dists[g.r.Intn(len(dists))]
	switch g.r.Intn(6) {
	case 0:
		return fmt.Sprintf("DLE(%d)", d)
	case 1:
		dir := "UP"
		if g.r.Intn(2) == 0 {
			dir = "DOWN"
		}
		return fmt.Sprintf("DLE(%d), %s", d, dir)
	case 2:
		return fmt.Sprintf("MD(%d)", 1+g.r.Intn(3))
	case 3:
		return fmt.Sprintf("MD(%d), DLE(%d)", 1+g.r.Intn(3), d)
	case 4:
		return fmt.Sprintf("DGE(%d), DLE(%d)", g.r.Intn(100), 1000+d)
	default:
		return "DLE(-1)" // overlap required
	}
}

func (g *generator) emitJoin(in varInfo) {
	other, ok := g.pickOperand(in)
	if !ok {
		g.emitSelect(in)
		return
	}
	clauses := []string{g.genometricPred()}
	if g.r.Float64() < 0.75 {
		out := []string{"INT", "LEFT", "RIGHT", "CAT"}[g.r.Intn(4)]
		clauses = append(clauses, "output: "+out)
	}
	if m := g.commonMeta(in, other); m != "" && g.r.Float64() < 0.25 {
		clauses = append(clauses, "joinby: "+m)
	}
	merged, err := gdm.MergeSchemas(in.schema, other.schema, "right")
	if err != nil {
		g.emitSelect(in)
		return
	}
	v := varInfo{
		name:    g.freshVar(),
		schema:  merged.Schema,
		metas:   prefixMetas(in.metas, other.metas),
		samples: in.samples * other.samples,
	}
	text := fmt.Sprintf("%s = JOIN(%s) %s %s;", v.name, strings.Join(clauses, "; "), in.name, other.name)
	g.record("JOIN", v, text, in.name, other.name)
}

func (g *generator) emitMap(in varInfo) {
	other, ok := g.pickOperand(in)
	if !ok {
		g.emitSelect(in)
		return
	}
	// Aggregates are always explicit with fresh names: the implicit default
	// ("count AS COUNT") would collide if the reference schema already has a
	// count attribute from an earlier MAP.
	clause, fields := g.randomAggs(other.schema, 1+g.r.Intn(2))
	clauses := []string{clause}
	if m := g.commonMeta(in, other); m != "" && g.r.Float64() < 0.25 {
		clauses = append(clauses, "joinby: "+m)
	}
	outFields := append(append([]gdm.Field(nil), in.schema.Fields()...), fields...)
	v := varInfo{
		name:    g.freshVar(),
		schema:  gdm.MustSchema(outFields...),
		metas:   prefixMetas(in.metas, other.metas),
		samples: in.samples * other.samples,
	}
	text := fmt.Sprintf("%s = MAP(%s) %s %s;", v.name, strings.Join(clauses, "; "), in.name, other.name)
	g.record("MAP", v, text, in.name, other.name)
}

func (g *generator) emitCover(in varInfo) {
	variant := []string{"COVER", "COVER", "FLAT", "SUMMIT", "HISTOGRAM"}[g.r.Intn(5)]
	mins := []string{"1", "2", "ANY", "ALL"}
	maxs := []string{"2", "3", "4", "ANY", "ALL"}
	clauses := []string{mins[g.r.Intn(len(mins))] + ", " + maxs[g.r.Intn(len(maxs))]}
	metas := append([]string(nil), in.metas...)
	samples := 1
	if g.r.Float64() < 0.3 && len(in.metas) > 0 {
		clauses = append(clauses, "groupby: "+in.metas[g.r.Intn(len(in.metas))])
		samples = min(in.samples, 4)
	}
	fields := []gdm.Field{{Name: "acc_index", Type: gdm.KindInt}}
	if g.r.Float64() < 0.4 {
		clause, aggFields := g.randomAggs(in.schema, 1+g.r.Intn(2))
		clauses = append(clauses, "aggregate: "+clause)
		fields = append(fields, aggFields...)
	}
	metas = append(metas, "_cover")
	v := varInfo{name: g.freshVar(), schema: gdm.MustSchema(fields...), metas: metas, samples: samples}
	text := fmt.Sprintf("%s = %s(%s) %s;", v.name, variant, strings.Join(clauses, "; "), in.name)
	g.record(variant, v, text, in.name)
}
