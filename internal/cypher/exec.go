package cypher

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"

	"tabby/internal/graphdb"
)

// Result is a query result set.
type Result struct {
	Columns []string
	Rows    [][]any
}

// Format renders the result as an aligned text table. Widths are
// measured in runes, not bytes — method names from real jars carry
// non-ASCII identifiers, and byte-width padding would misalign them.
func (r *Result) Format() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := fmt.Sprintf("%v", v)
			cells[ri][ci] = s
			if n := utf8.RuneCountInString(s); n > widths[ci] {
				widths[ci] = n
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Columns {
		writePadded(&sb, c, widths[i])
	}
	sb.WriteByte('\n')
	for i := range r.Columns {
		writePadded(&sb, strings.Repeat("-", widths[i]), widths[i])
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		for ci, s := range row {
			writePadded(&sb, s, widths[ci])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "(%d rows)\n", len(r.Rows))
	return sb.String()
}

// writePadded writes s space-padded to width runes plus the two-space
// column gap (fmt's %-*s pads by bytes, which breaks on multibyte runes).
func writePadded(sb *strings.Builder, s string, width int) {
	sb.WriteString(s)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		sb.WriteByte(' ')
	}
	sb.WriteString("  ")
}

// Run parses and executes a query against the database. An `EXPLAIN `
// prefix prints the chosen plan (with cost estimates) instead of rows.
func Run(db *graphdb.DB, query string) (*Result, error) {
	if rest, ok := explainRest(query); ok {
		return runExplain(DBSource(db), rest)
	}
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Execute(db, q)
}

// explainRest strips a leading EXPLAIN keyword, reporting whether the
// query carried one.
func explainRest(query string) (string, bool) {
	t := strings.TrimSpace(query)
	if len(t) > 8 && strings.EqualFold(t[:7], "EXPLAIN") &&
		(t[7] == ' ' || t[7] == '\t' || t[7] == '\n' || t[7] == '\r') {
		return t[8:], true
	}
	return "", false
}

// runExplain renders the plan the query would execute under, one line
// per row, without running it. Planning reads only src's compiled index,
// so EXPLAIN never materializes a disk-resident store.
func runExplain(src Source, rest string) (*Result, error) {
	res := &Result{Columns: []string{"plan"}}
	trimmed := strings.TrimSpace(rest)
	if len(trimmed) >= 4 && strings.EqualFold(trimmed[:4], "CALL") {
		res.Rows = append(res.Rows, []any{"plan: procedure call (dispatched directly, no query plan)"})
		return res, nil
	}
	q, err := Parse(rest)
	if err != nil {
		return nil, err
	}
	p, perr := PlanQuerySource(src, q)
	if perr != nil {
		msg := perr.Error()
		if ce, ok := perr.(*Error); ok {
			msg = ce.Msg
		}
		res.Rows = append(res.Rows, []any{"plan: interpreter — " + strings.TrimPrefix(msg, "not plannable: ")})
		return res, nil
	}
	for _, line := range p.Explain() {
		res.Rows = append(res.Rows, []any{line})
	}
	return res, nil
}

// binding maps pattern variables to node IDs.
type binding map[string]graphdb.ID

func (b binding) clone() binding {
	out := make(binding, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Execute runs a parsed query, compiling it into an iterator plan over
// the search index when the planner supports it (PlanQuery) and falling
// back to the tree-walking interpreter otherwise. Queries built by
// Parse are ready to run; a hand-assembled Query must set OrderBy to -1
// unless it wants ordering by the first RETURN column.
func Execute(db *graphdb.DB, q *Query) (*Result, error) {
	if p, err := PlanQuery(db, q); err == nil {
		return p.Run()
	}
	return ExecuteGeneric(db, q)
}

// ExecuteGeneric runs a parsed query on the tree-walking interpreter
// over the generic property store. It is the executable reference the
// plan runner is pinned to (the full-corpus equivalence suite compares
// the two byte for byte) and the fallback for patterns the planner does
// not model.
func ExecuteGeneric(db *graphdb.DB, q *Query) (*Result, error) {
	ex := &executor{db: db, q: q}
	ex.matchPaths(0, binding{})

	res := &Result{}
	for _, item := range q.Return {
		res.Columns = append(res.Columns, item.Label())
	}

	hasCount := false
	for _, item := range q.Return {
		if item.Count {
			hasCount = true
		}
	}
	if hasCount {
		return ex.aggregate(res)
	}

	seen := make(map[string]bool)
	distinct := false
	for _, item := range q.Return {
		if item.Distinct {
			distinct = true
		}
	}
	for _, b := range ex.matches {
		row, err := ex.project(b)
		if err != nil {
			return nil, err
		}
		if distinct {
			key := fmt.Sprintf("%v", row)
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		res.Rows = append(res.Rows, row)
		if q.OrderBy < 0 && q.Limit > 0 && len(res.Rows) >= q.Limit {
			break
		}
	}
	applyOrderAndLimit(q, res)
	return res, nil
}

// applyOrderAndLimit applies ORDER BY and LIMIT to a completed row set
// (shared by the interpreter and the plan runner).
func applyOrderAndLimit(q *Query, res *Result) {
	if q.OrderBy >= 0 && q.OrderBy < len(q.Return) {
		col := q.OrderBy
		sort.SliceStable(res.Rows, func(i, j int) bool {
			less := rowLess(res.Rows[i][col], res.Rows[j][col])
			if q.Descending {
				return rowLess(res.Rows[j][col], res.Rows[i][col])
			}
			return less
		})
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
}

// rowLess orders mixed values: numbers numerically, everything else by
// string rendering.
func rowLess(a, b any) bool {
	if ai, ok := toInt(a); ok {
		if bi, ok := toInt(b); ok {
			return ai < bi
		}
	}
	return fmt.Sprintf("%v", a) < fmt.Sprintf("%v", b)
}

type executor struct {
	db      *graphdb.DB
	q       *Query
	matches []binding
}

// matchPaths matches the comma-separated paths in order, accumulating
// bindings that satisfy WHERE.
func (ex *executor) matchPaths(pathIdx int, b binding) {
	if pathIdx == len(ex.q.Paths) {
		if ex.q.Where == nil || ex.evalExpr(ex.q.Where, b) {
			ex.matches = append(ex.matches, b.clone())
		}
		return
	}
	path := ex.q.Paths[pathIdx]
	for _, start := range ex.candidates(path.Nodes[0], b) {
		if !ex.nodeMatches(path.Nodes[0], start) {
			continue
		}
		b2 := b.clone()
		if path.Nodes[0].Var != "" {
			b2[path.Nodes[0].Var] = start
		}
		ex.matchChain(pathIdx, path, 0, start, b2)
	}
}

// matchChain extends the current path from node index i.
func (ex *executor) matchChain(pathIdx int, path PatternPath, i int, at graphdb.ID, b binding) {
	if i == len(path.Rels) {
		ex.matchPaths(pathIdx+1, b)
		return
	}
	rel := path.Rels[i]
	next := path.Nodes[i+1]
	ends := ex.expandRel(at, rel)
	for _, end := range ends {
		if !ex.nodeMatches(next, end) {
			continue
		}
		if next.Var != "" {
			if bound, ok := b[next.Var]; ok && bound != end {
				continue
			}
		}
		b2 := b
		if next.Var != "" {
			b2 = b.clone()
			b2[next.Var] = end
		}
		ex.matchChain(pathIdx, path, i+1, end, b2)
	}
}

// candidates picks the starting node set: a bound variable, an indexed
// property lookup, a label scan, or (last resort) every node.
func (ex *executor) candidates(n NodePattern, b binding) []graphdb.ID {
	if n.Var != "" {
		if id, ok := b[n.Var]; ok {
			return []graphdb.ID{id}
		}
	}
	if n.Label != "" {
		for prop, val := range n.Props {
			if ids := ex.db.FindNodes(n.Label, prop, val); ids != nil {
				// FindNodes lists IDs in label-scan (creation) order,
				// which concurrent batches can interleave; sort so
				// candidate order (and thus row order) is ascending —
				// the order the plan runner is pinned to.
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				return ids
			}
			return nil
		}
		return ex.db.NodesByLabel(n.Label)
	}
	return ex.db.AllNodeIDs()
}

// nodeMatches checks label and inline property constraints.
func (ex *executor) nodeMatches(n NodePattern, id graphdb.ID) bool {
	node := ex.db.Node(id)
	if node == nil {
		return false
	}
	if n.Label != "" && !node.HasLabel(n.Label) {
		return false
	}
	for prop, want := range n.Props {
		got, ok := node.Props[prop]
		if !ok || !valueEqual(got, want) {
			return false
		}
	}
	return true
}

// expandRel returns the nodes reachable from `from` over min..max hops of
// the given type/direction, without repeating a relationship.
func (ex *executor) expandRel(from graphdb.ID, rel RelPattern) []graphdb.ID {
	dir := graphdb.DirBoth
	switch rel.Dir {
	case DirRight:
		dir = graphdb.DirOut
	case DirLeft:
		dir = graphdb.DirIn
	}
	var types []string
	if rel.Type != "" {
		types = []string{rel.Type}
	}
	seenEnds := make(map[graphdb.ID]bool)
	var out []graphdb.ID
	var walk func(at graphdb.ID, depth int, usedRels map[graphdb.ID]bool)
	walk = func(at graphdb.ID, depth int, usedRels map[graphdb.ID]bool) {
		if depth >= rel.MinHops && depth > 0 && !seenEnds[at] {
			seenEnds[at] = true
			out = append(out, at)
		}
		if depth == rel.MaxHops {
			return
		}
		for _, rid := range ex.db.Rels(at, dir, types...) {
			if usedRels[rid] {
				continue
			}
			usedRels[rid] = true
			walk(ex.db.Rel(rid).Other(at), depth+1, usedRels)
			delete(usedRels, rid)
		}
	}
	walk(from, 0, make(map[graphdb.ID]bool))
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// evalExpr evaluates the WHERE clause under a binding.
func (ex *executor) evalExpr(e Expr, b binding) bool {
	switch n := e.(type) {
	case *BinExpr:
		if n.Op == "AND" {
			return ex.evalExpr(n.L, b) && ex.evalExpr(n.R, b)
		}
		return ex.evalExpr(n.L, b) || ex.evalExpr(n.R, b)
	case *NotExpr:
		return !ex.evalExpr(n.E, b)
	case *CmpExpr:
		l, lok := ex.operandValue(n.L, b)
		r, rok := ex.operandValue(n.R, b)
		if !lok || !rok {
			return false
		}
		return compare(n.Op, l, r)
	default:
		return false
	}
}

func (ex *executor) operandValue(op Operand, b binding) (any, bool) {
	if op.IsLiteral {
		return op.Literal, true
	}
	id, ok := b[op.Var]
	if !ok {
		return nil, false
	}
	if op.Prop == "" {
		return int(id), true
	}
	v, ok := ex.db.NodeProp(id, op.Prop)
	return v, ok
}

func compare(op string, l, r any) bool {
	switch op {
	case "=":
		return valueEqual(l, r)
	case "<>":
		return !valueEqual(l, r)
	case "CONTAINS":
		ls, lok := l.(string)
		rs, rok := r.(string)
		return lok && rok && strings.Contains(ls, rs)
	case "STARTSWITH":
		ls, lok := l.(string)
		rs, rok := r.(string)
		return lok && rok && strings.HasPrefix(ls, rs)
	case "ENDSWITH":
		ls, lok := l.(string)
		rs, rok := r.(string)
		return lok && rok && strings.HasSuffix(ls, rs)
	default:
		li, lok := toInt(l)
		ri, rok := toInt(r)
		if !lok || !rok {
			// Fall back to string ordering.
			ls := fmt.Sprintf("%v", l)
			rs := fmt.Sprintf("%v", r)
			return strCompare(op, ls, rs)
		}
		switch op {
		case "<":
			return li < ri
		case "<=":
			return li <= ri
		case ">":
			return li > ri
		case ">=":
			return li >= ri
		}
		return false
	}
}

func strCompare(op, l, r string) bool {
	switch op {
	case "<":
		return l < r
	case "<=":
		return l <= r
	case ">":
		return l > r
	case ">=":
		return l >= r
	default:
		return false
	}
}

func toInt(v any) (int, bool) {
	switch t := v.(type) {
	case int:
		return t, true
	case int64:
		return int(t), true
	case float64:
		return int(t), true
	default:
		return 0, false
	}
}

func valueEqual(a, b any) bool {
	if ai, ok := toInt(a); ok {
		if bi, ok := toInt(b); ok {
			return ai == bi
		}
	}
	return fmt.Sprintf("%T:%v", a, a) == fmt.Sprintf("%T:%v", b, b)
}

// project evaluates the RETURN items for one match.
func (ex *executor) project(b binding) ([]any, error) {
	row := make([]any, 0, len(ex.q.Return))
	for _, item := range ex.q.Return {
		id, ok := b[item.Var]
		if !ok {
			return nil, &Error{Msg: fmt.Sprintf("unbound variable %q in RETURN", item.Var)}
		}
		if item.Prop == "" {
			row = append(row, ex.entityLabel(id))
			continue
		}
		v, ok := ex.db.NodeProp(id, item.Prop)
		if !ok {
			row = append(row, nil)
			continue
		}
		row = append(row, v)
	}
	return row, nil
}

// entityLabel renders a whole-node projection: its NAME when present.
func (ex *executor) entityLabel(id graphdb.ID) any {
	if v, ok := ex.db.NodeProp(id, "NAME"); ok {
		return v
	}
	return fmt.Sprintf("#%d", id)
}

// aggregate handles COUNT projections, grouping by the non-count items.
func (ex *executor) aggregate(res *Result) (*Result, error) {
	type group struct {
		key  string
		row  []any
		n    int
		seen map[string]bool
	}
	groups := make(map[string]*group)
	var order []string
	for _, b := range ex.matches {
		var keyParts []string
		row := make([]any, len(ex.q.Return))
		var countDistinctVal string
		for i, item := range ex.q.Return {
			if item.Count {
				if item.Var != "" {
					id, ok := b[item.Var]
					if !ok {
						return nil, &Error{Msg: fmt.Sprintf("unbound variable %q in COUNT", item.Var)}
					}
					countDistinctVal = fmt.Sprintf("%d", id)
				}
				continue
			}
			id, ok := b[item.Var]
			if !ok {
				return nil, &Error{Msg: fmt.Sprintf("unbound variable %q in RETURN", item.Var)}
			}
			var v any
			if item.Prop == "" {
				v = ex.entityLabel(id)
			} else {
				v, _ = ex.db.NodeProp(id, item.Prop)
			}
			row[i] = v
			keyParts = append(keyParts, fmt.Sprintf("%v", v))
		}
		key := strings.Join(keyParts, "\x00")
		g, ok := groups[key]
		if !ok {
			g = &group{key: key, row: row, seen: make(map[string]bool)}
			groups[key] = g
			order = append(order, key)
		}
		distinctItem := false
		for _, item := range ex.q.Return {
			if item.Count && item.Distinct {
				distinctItem = true
			}
		}
		if distinctItem {
			if !g.seen[countDistinctVal] {
				g.seen[countDistinctVal] = true
				g.n++
			}
		} else {
			g.n++
		}
	}
	for _, key := range order {
		g := groups[key]
		for i, item := range ex.q.Return {
			if item.Count {
				g.row[i] = g.n
			}
		}
		res.Rows = append(res.Rows, g.row)
	}
	applyOrderAndLimit(ex.q, res)
	return res, nil
}
