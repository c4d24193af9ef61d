package cypher

import (
	"fmt"
	"math/bits"
	"strings"

	"tabby/internal/graphdb"
	"tabby/internal/searchindex"
)

// This file compiles a parsed Query into an iterator plan executing over
// the searchindex's compiled columns instead of the generic property
// store — the query-side twin of the pathfinder's indexed search.
// The shape follows cayley's graph/iterator architecture: label and
// IS_SOURCE/IS_SINK bitsets are the leaf scans, CSR adjacency rows are
// the LinksTo traversals, WHERE conjuncts that test interned columns are
// pushed onto the scans, and the And-join across pattern positions is
// reordered by estimated cardinality. Because the interpreter's output
// order (nested ascending node order) is part of the equivalence
// contract, the reordering does not literally re-nest the loops: the
// most selective position instead seeds a backward bitset propagation
// (S_j = C_j ∧ "has a neighbour in S_{j+1}"), so the anchor scan only
// visits nodes that can still complete the chain while rows keep
// streaming out in the interpreter's exact order.
//
// The interpreter (ExecuteGeneric) stays as the executable reference;
// the full-corpus equivalence suite pins the two to byte-identical
// results, and PlanQuery falls back (returns an error) for the one
// construct the plan runner does not model: variable-length
// relationship patterns.

// String-test columns the index interns.
const (
	colName = iota
	colSinkType
)

// strTest is a pushed-down predicate against an interned string column:
// "column present (string-typed) and <op> literal holds".
type strTest struct {
	col int    // colName or colSinkType
	op  string // = CONTAINS STARTSWITH ENDSWITH
	lit string
}

// propCheck is an inline-property constraint that has no indexed column;
// it reads the live store exactly like the interpreter's nodeMatches.
type propCheck struct {
	prop string
	want any
}

// planLevel is one pattern position: an anchor scan (first node of a
// path) or a one-hop expansion from the previous level.
type planLevel struct {
	anchor  bool
	rel     RelPattern // expansion levels only (MinHops == MaxHops == 1)
	slot    int        // binding slot of the node variable; -1 when anonymous
	label   string     // for EXPLAIN
	bits    []uint64   // conjunction of label/flag bitsets (+ propagation); nil = every node
	est     int        // estimated cardinality before propagation
	propEst int        // estimated cardinality after propagation (-1 when not propagated)
	tests   []strTest
	props   []propCheck
	flags   []string // pushed flag names, for EXPLAIN
}

// Plan is a compiled query. A Plan is immutable after PlanQuery and can
// be re-run; each Run spawns a fresh cursor. The store behind src is
// only materialized when a cursor hits a constraint or projection the
// index does not model (see Source).
type Plan struct {
	q   *Query
	src Source
	ix  *searchindex.Index
	n   int // node count at compile time

	slotOf   map[string]int
	nslots   int
	levels   []planLevel
	starts   []int  // level index of each path's anchor
	residual []Expr // WHERE conjuncts not pushed onto scans

	hasCount bool
	distinct bool

	propagated bool // at least one path pruned by backward propagation
}

// PlanQuery compiles q against db's search index. It returns an error
// naming the unsupported construct when the query needs the interpreter
// (Execute falls back transparently; EXPLAIN prints the reason).
func PlanQuery(db *graphdb.DB, q *Query) (*Plan, error) {
	return PlanQuerySource(DBSource(db), q)
}

// PlanQuerySource compiles q against src's compiled index. Compilation
// itself never touches the generic store, so it works unchanged on
// database-free (mmap-viewed) indexes.
func PlanQuerySource(src Source, q *Query) (*Plan, error) {
	if len(q.Paths) == 0 {
		return nil, &Error{Msg: "not plannable: query has no MATCH pattern"}
	}
	for _, path := range q.Paths {
		for _, rel := range path.Rels {
			if rel.MinHops != 1 || rel.MaxHops != 1 {
				return nil, &Error{Msg: fmt.Sprintf(
					"not plannable: variable-length relationship *%d..%d", rel.MinHops, rel.MaxHops)}
			}
		}
	}
	ix := src.Index()
	p := &Plan{q: q, src: src, ix: ix, n: ix.NumNodes(), slotOf: map[string]int{}}

	for _, item := range q.Return {
		if item.Count {
			p.hasCount = true
		}
		if item.Distinct && !item.Count {
			p.distinct = true
		}
	}

	slot := func(v string) int {
		if v == "" {
			return -1
		}
		s, ok := p.slotOf[v]
		if !ok {
			s = p.nslots
			p.slotOf[v] = s
			p.nslots++
		}
		return s
	}

	for _, path := range q.Paths {
		p.starts = append(p.starts, len(p.levels))
		for i, n := range path.Nodes {
			lv := planLevel{anchor: i == 0, slot: slot(n.Var), label: n.Label}
			if i > 0 {
				lv.rel = path.Rels[i-1]
			}
			if n.Label != "" {
				lv.bits = p.andBits(lv.bits, ix.LabelBits(n.Label))
			}
			p.compileProps(&lv, n.Props)
			p.levels = append(p.levels, lv)
		}
	}

	p.compileWhere(q.Where)

	for i := range p.levels {
		p.levels[i].est = p.estimate(&p.levels[i])
		p.levels[i].propEst = -1
	}
	p.propagate()
	return p, nil
}

// andBits intersects acc with bs, copying on first use so index-owned
// bitsets are never aliased into a mutable plan. A nil bs (label or flag
// no node carries) yields the empty set.
func (p *Plan) andBits(acc, bs []uint64) []uint64 {
	words := (p.n + 63) / 64
	if acc == nil {
		acc = make([]uint64, words)
		if bs == nil {
			return acc // empty: nothing carries the constraint
		}
		copy(acc, bs)
		return acc
	}
	if bs == nil {
		for i := range acc {
			acc[i] = 0
		}
		return acc
	}
	for i := range acc {
		acc[i] &= bs[i]
	}
	return acc
}

// compileProps lowers a node pattern's inline property map: boolean
// source/sink flags become bitset terms, NAME/SINK_TYPE equalities
// become interned-column tests, and everything else stays a live-store
// check (exactly nodeMatches' semantics).
func (p *Plan) compileProps(lv *planLevel, props map[string]any) {
	for prop, want := range props {
		if !p.pushProp(lv, prop, "=", want, false) {
			lv.props = append(lv.props, propCheck{prop: prop, want: want})
		}
	}
}

// pushProp pushes one `prop <op> literal` test onto the level when an
// indexed column models it exactly; reports whether it did. strOnly
// restricts to string-column tests (CONTAINS etc. have no flag form).
func (p *Plan) pushProp(lv *planLevel, prop, op string, lit any, strOnly bool) bool {
	switch prop {
	case "IS_SOURCE", "IS_SINK":
		// Only `= true` matches the bitset exactly: the interpreter
		// treats an absent property as a failed comparison, and the bit
		// is set iff the property is present, bool-typed, and true.
		if strOnly || op != "=" {
			return false
		}
		if b, ok := lit.(bool); !ok || !b {
			return false
		}
		if prop == "IS_SOURCE" {
			lv.bits = p.andBits(lv.bits, p.ix.SourceBits())
		} else {
			lv.bits = p.andBits(lv.bits, p.ix.SinkBits())
		}
		lv.flags = append(lv.flags, prop)
		return true
	case "NAME", "SINK_TYPE":
		s, ok := lit.(string)
		if !ok {
			return false
		}
		col := colName
		if prop == "SINK_TYPE" {
			col = colSinkType
		}
		lv.tests = append(lv.tests, strTest{col: col, op: op, lit: s})
		return true
	}
	return false
}

// compileWhere splits the WHERE tree into top-level conjuncts and pushes
// the ones an indexed column models exactly onto every level binding the
// tested variable; the rest stay residual and are evaluated per match,
// exactly like the interpreter's single end-of-pattern evaluation.
// Pushing is sound because a pushed conjunct references one variable
// only: any binding the scan filters out would have failed WHERE.
func (p *Plan) compileWhere(e Expr) {
	if e == nil {
		return
	}
	if b, ok := e.(*BinExpr); ok && b.Op == "AND" {
		p.compileWhere(b.L)
		p.compileWhere(b.R)
		return
	}
	if p.pushConjunct(e) {
		return
	}
	p.residual = append(p.residual, e)
}

// pushConjunct pushes a single comparison onto the levels binding its
// variable. Only shapes whose indexed-column semantics are exact are
// eligible; see the strTest/flag comments.
func (p *Plan) pushConjunct(e Expr) bool {
	c, ok := e.(*CmpExpr)
	if !ok {
		return false
	}
	acc, lit := c.L, c.R
	swapped := false
	if acc.IsLiteral && !lit.IsLiteral {
		acc, lit = lit, acc
		swapped = true
	}
	if acc.IsLiteral || !lit.IsLiteral || acc.Prop == "" {
		return false
	}
	// CONTAINS/STARTSWITH/ENDSWITH are not symmetric; only `=` survives
	// a literal-on-the-left swap (valueEqual is).
	if swapped && c.Op != "=" {
		return false
	}
	switch c.Op {
	case "=", "CONTAINS", "STARTSWITH", "ENDSWITH":
	default:
		return false
	}
	slot, bound := p.slotOf[acc.Var]
	if !bound {
		return false // unbound variable: residual evaluation yields false
	}
	// Trial-push onto a scratch level first: only commit to the real
	// levels when the shape is supported at all.
	var probe planLevel
	if !p.pushProp(&probe, acc.Prop, c.Op, lit.Literal, c.Op != "=") {
		return false
	}
	for i := range p.levels {
		if p.levels[i].slot == slot {
			p.pushProp(&p.levels[i], acc.Prop, c.Op, lit.Literal, c.Op != "=")
		}
	}
	return true
}

// estimate approximates a level's candidate cardinality: bitset
// popcount when a bitset constrains it, node count otherwise. String
// tests and live-store checks are not estimated (no histograms); the
// bitsets dominate selectivity in this schema.
func (p *Plan) estimate(lv *planLevel) int {
	if lv.bits == nil {
		return p.n
	}
	n := 0
	for _, w := range lv.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// propagate performs the order-preserving join reordering: per path,
// when some downstream level is estimated more selective than the
// anchor, the most selective level drives a backward reachability pass
// — S_j = C_j ∧ (some rel-j neighbour lies in S_{j+1}) — shrinking
// every upstream scan (including the anchor) to nodes that can still
// complete the chain. Emission order is untouched: the forward walk
// still enumerates in ascending node order, it just skips provably dead
// branches.
func (p *Plan) propagate() {
	words := (p.n + 63) / 64
	for pi, lo := range p.starts {
		hi := len(p.levels)
		if pi+1 < len(p.starts) {
			hi = p.starts[pi+1]
		}
		if hi-lo < 2 {
			continue
		}
		best := p.levels[lo].est
		for j := lo + 1; j < hi; j++ {
			if p.levels[j].est < best {
				best = p.levels[j].est
			}
		}
		if best >= p.levels[lo].est {
			continue // anchor already the most selective: nothing to gain
		}
		p.propagated = true
		next := p.levels[hi-1].bits // nil means "every node", handled below
		for j := hi - 2; j >= lo; j-- {
			lv := &p.levels[j]
			s := make([]uint64, words)
			rel := p.levels[j+1].rel
			forEach := func(v int32) {
				if p.anyNeighborIn(rel, v, next) {
					s[v>>6] |= 1 << (uint(v) & 63)
				}
			}
			if lv.bits == nil {
				for v := int32(0); v < int32(p.n); v++ {
					forEach(v)
				}
			} else {
				for wi, w := range lv.bits {
					for ; w != 0; w &= w - 1 {
						forEach(int32(wi<<6 | bits.TrailingZeros64(w)))
					}
				}
			}
			lv.bits = s
			lv.propEst = p.estimate(lv)
			next = s
		}
	}
}

// anyNeighborIn reports whether v has at least one rel-pattern neighbour
// inside set s (nil s = any neighbour at all).
func (p *Plan) anyNeighborIn(rel RelPattern, v int32, s []uint64) bool {
	hit := func(row []int32) bool {
		if s == nil {
			return len(row) > 0
		}
		for _, w := range row {
			if s[w>>6]&(1<<(uint(w)&63)) != 0 {
				return true
			}
		}
		return false
	}
	types := []string{rel.Type}
	if rel.Type == "" {
		types = p.ix.RelTypes()
	}
	for _, t := range types {
		if rel.Dir != DirLeft && hit(p.ix.OutNeighbors(t, v)) {
			return true
		}
		if rel.Dir != DirRight && hit(p.ix.InNeighbors(t, v)) {
			return true
		}
	}
	return false
}

// Explain renders the plan as one line per step, with cost estimates.
func (p *Plan) Explain() []string {
	out := []string{fmt.Sprintf("plan: indexed (nodes=%d)", p.n)}
	li := 0
	for pi := range p.starts {
		hi := len(p.levels)
		if pi+1 < len(p.starts) {
			hi = p.starts[pi+1]
		}
		out = append(out, fmt.Sprintf("path %d:", pi))
		for ; li < hi; li++ {
			lv := &p.levels[li]
			var b strings.Builder
			if lv.anchor {
				b.WriteString("  scan")
			} else {
				arrow := "-[%s]-"
				switch lv.rel.Dir {
				case DirRight:
					arrow = "-[%s]->"
				case DirLeft:
					arrow = "<-[%s]-"
				}
				typ := lv.rel.Type
				if typ == "" {
					typ = "*any*"
				}
				fmt.Fprintf(&b, "  expand %s", fmt.Sprintf(arrow, typ))
			}
			name := "_"
			for v, s := range p.slotOf {
				if s == lv.slot {
					name = v
				}
			}
			fmt.Fprintf(&b, " %s:", name)
			var cons []string
			if lv.label != "" {
				cons = append(cons, "label "+lv.label)
			}
			cons = append(cons, lv.flags...)
			for _, t := range lv.tests {
				col := "NAME"
				if t.col == colSinkType {
					col = "SINK_TYPE"
				}
				cons = append(cons, fmt.Sprintf("%s %s %q", col, t.op, t.lit))
			}
			for _, pc := range lv.props {
				cons = append(cons, fmt.Sprintf("%s = %v (store)", pc.prop, pc.want))
			}
			if len(cons) == 0 {
				cons = append(cons, "all nodes")
			}
			fmt.Fprintf(&b, " %s, est %d/%d", strings.Join(cons, " ∧ "), lv.est, p.n)
			if lv.propEst >= 0 {
				fmt.Fprintf(&b, " → %d after propagation", lv.propEst)
			}
			out = append(out, b.String())
		}
	}
	if p.propagated {
		out = append(out, "reorder: most selective level drives backward set propagation")
	} else {
		out = append(out, "reorder: none (anchor is the most selective level)")
	}
	out = append(out, fmt.Sprintf("where: %d pushed-down conjunct(s) on scans, %d residual",
		p.pushedCount(), len(p.residual)))
	var ret []string
	for _, item := range p.q.Return {
		ret = append(ret, item.Label())
	}
	out = append(out, "return: "+strings.Join(ret, ", "))
	switch {
	case p.q.OrderBy >= 0 && p.q.Limit > 0:
		out = append(out, fmt.Sprintf("order+limit: sort then take %d (no early exit: ORDER BY needs all rows)", p.q.Limit))
	case p.q.OrderBy >= 0:
		out = append(out, "order: sort full row set")
	case p.q.Limit > 0:
		out = append(out, fmt.Sprintf("limit: %d pushed into cursor (early exit)", p.q.Limit))
	}
	return out
}

func (p *Plan) pushedCount() int {
	n := 0
	for i := range p.levels {
		n += len(p.levels[i].flags) + len(p.levels[i].tests)
	}
	// Inline pattern props also land in flags/tests but were never WHERE
	// conjuncts; the distinction is not worth tracking for EXPLAIN.
	return n
}
