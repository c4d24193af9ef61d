package cypher

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"tabby/internal/graphdb"
)

// This file is the plan runner: a resumable backtracking cursor that
// walks the planLevels in the interpreter's exact enumeration order
// (ascending node index at every position), plus the epilogue
// (DISTINCT / COUNT grouping / ORDER BY / LIMIT) replicated from
// ExecuteGeneric so results stay byte-identical.

// Candidate-source modes for one level.
const (
	scanBits   = iota // bitset word scan (anchor with constraints)
	scanRange         // every node 0..n-1 (unconstrained anchor)
	scanSingle        // anchor variable already bound by an earlier path
	scanEnds          // expansion: iterate a sorted-unique neighbour list
)

// levelState is the mutable per-level iteration state of one cursor.
type levelState struct {
	mode    int
	word    uint64 // scanBits: remaining bits of the current word
	wordIdx int    // scanBits: next word to load
	cur     int32  // scanRange position / scanSingle candidate
	done    bool   // scanSingle consumed

	ends []int32 // scanEnds: current neighbour list (may alias a CSR row)
	idx  int

	lists       [][]int32 // scratch: merge inputs (untyped / any-direction hops)
	pos         []int
	scratch     []int32   // scratch: merged neighbour buffer, reused per entry
	typeScratch [1]string // scratch: single-type iteration without allocating

	node  int32 // accepted node at this level
	wrote bool  // this level wrote its variable slot for the current node
}

// matchCursor streams pattern matches. After next() returns true, the
// bindings are in slots (node indexes; -1 unbound).
type matchCursor struct {
	p         *Plan
	slots     []int32
	levels    []levelState
	depth     int
	started   bool
	exhausted bool

	db  *graphdb.DB // lazily materialized from p.src on first store read
	err error       // sticky: a failed materialization ends the stream
}

// store materializes the generic property store behind the plan's
// source, once per cursor. On failure it records the error (surfaced by
// Run/Next) and returns nil; callers treat nil as "constraint cannot be
// checked" and the stream ends at the next advance.
func (mc *matchCursor) store() *graphdb.DB {
	if mc.db == nil && mc.err == nil {
		mc.db, mc.err = mc.p.src.DB()
		if mc.db == nil && mc.err == nil {
			mc.err = &Error{Msg: "query source returned no store"}
		}
	}
	return mc.db
}

func (p *Plan) newCursor() *matchCursor {
	mc := &matchCursor{
		p:      p,
		slots:  make([]int32, p.nslots),
		levels: make([]levelState, len(p.levels)),
	}
	for i := range mc.slots {
		mc.slots[i] = -1
	}
	return mc
}

// next advances to the next full match, returning false when exhausted.
func (mc *matchCursor) next() bool {
	if mc.exhausted {
		return false
	}
	if !mc.started {
		mc.started = true
		mc.depth = 0
		mc.enter(0)
	} else {
		mc.depth = len(mc.levels) - 1
	}
	for mc.depth >= 0 {
		if mc.err != nil {
			break
		}
		if !mc.advanceLevel(mc.depth) {
			mc.depth--
			continue
		}
		if mc.depth == len(mc.levels)-1 {
			if mc.residualOK() {
				return true
			}
			continue
		}
		mc.depth++
		mc.enter(mc.depth)
	}
	mc.exhausted = true
	return false
}

// enter initializes level i's candidate source for the current parent
// bindings.
func (mc *matchCursor) enter(i int) {
	lv := &mc.levels[i]
	pl := &mc.p.levels[i]
	if pl.anchor {
		if pl.slot >= 0 && mc.slots[pl.slot] >= 0 {
			lv.mode, lv.cur, lv.done = scanSingle, mc.slots[pl.slot], false
			return
		}
		if pl.bits != nil {
			lv.mode, lv.word, lv.wordIdx = scanBits, 0, 0
			return
		}
		lv.mode, lv.cur = scanRange, 0
		return
	}

	parent := mc.levels[i-1].node
	lv.mode, lv.idx = scanEnds, 0
	ix := mc.p.ix
	rel := pl.rel
	if rel.Type != "" {
		switch rel.Dir {
		case DirRight:
			lv.ends = ix.OutNeighbors(rel.Type, parent)
			return
		case DirLeft:
			lv.ends = ix.InNeighbors(rel.Type, parent)
			return
		}
	}
	// Any-direction and/or any-type hop: merge the constituent sorted
	// rows (each already unique) into one sorted-unique stream — the
	// order expandRel's sort produces.
	lv.lists = lv.lists[:0]
	var types []string
	if rel.Type != "" {
		lv.typeScratch[0] = rel.Type
		types = lv.typeScratch[:]
	} else {
		types = mc.p.ix.RelTypes()
	}
	for _, t := range types {
		if rel.Dir != DirLeft {
			if row := ix.OutNeighbors(t, parent); len(row) > 0 {
				lv.lists = append(lv.lists, row)
			}
		}
		if rel.Dir != DirRight {
			if row := ix.InNeighbors(t, parent); len(row) > 0 {
				lv.lists = append(lv.lists, row)
			}
		}
	}
	switch len(lv.lists) {
	case 0:
		lv.ends = nil
	case 1:
		lv.ends = lv.lists[0]
	default:
		lv.pos = lv.pos[:0]
		for range lv.lists {
			lv.pos = append(lv.pos, 0)
		}
		lv.scratch = mergeUnique(lv.scratch[:0], lv.lists, lv.pos)
		lv.ends = lv.scratch
	}
}

// mergeUnique merges sorted-unique int32 lists into dst, ascending with
// duplicates collapsed. pos must hold one zeroed cursor per list.
func mergeUnique(dst []int32, lists [][]int32, pos []int) []int32 {
	for {
		best := int32(math.MaxInt32)
		found := false
		for li, l := range lists {
			if pos[li] < len(l) && (!found || l[pos[li]] < best) {
				best, found = l[pos[li]], true
			}
		}
		if !found {
			return dst
		}
		dst = append(dst, best)
		for li, l := range lists {
			if pos[li] < len(l) && l[pos[li]] == best {
				pos[li]++
			}
		}
	}
}

// advanceLevel steps level i to its next accepted candidate, undoing the
// previous candidate's binding first. Returns false when the level is
// exhausted.
func (mc *matchCursor) advanceLevel(i int) bool {
	lv := &mc.levels[i]
	pl := &mc.p.levels[i]
	if lv.wrote {
		mc.slots[pl.slot] = -1
		lv.wrote = false
	}
	for {
		v, ok := mc.nextCandidate(lv, pl)
		if !ok {
			return false
		}
		if !mc.accept(pl, v) {
			continue
		}
		lv.node = v
		if pl.slot >= 0 && mc.slots[pl.slot] < 0 {
			mc.slots[pl.slot] = v
			lv.wrote = true
		}
		return true
	}
}

func (mc *matchCursor) nextCandidate(lv *levelState, pl *planLevel) (int32, bool) {
	switch lv.mode {
	case scanSingle:
		if lv.done {
			return 0, false
		}
		lv.done = true
		return lv.cur, true
	case scanRange:
		if lv.cur >= int32(mc.p.n) {
			return 0, false
		}
		v := lv.cur
		lv.cur++
		return v, true
	case scanBits:
		for {
			if lv.word != 0 {
				t := bits.TrailingZeros64(lv.word)
				lv.word &= lv.word - 1
				return int32((lv.wordIdx-1)<<6 | t), true
			}
			if lv.wordIdx >= len(pl.bits) {
				return 0, false
			}
			lv.word = pl.bits[lv.wordIdx]
			lv.wordIdx++
		}
	default: // scanEnds
		if lv.idx >= len(lv.ends) {
			return 0, false
		}
		v := lv.ends[lv.idx]
		lv.idx++
		return v, true
	}
}

// accept applies the level's filters: bitset (label ∧ flags ∧
// propagation), interned-column tests, live-store property checks, and
// the already-bound-variable equality the interpreter enforces in
// matchChain. Pure conjunction, so the check order is free.
func (mc *matchCursor) accept(pl *planLevel, v int32) bool {
	if pl.bits != nil && pl.bits[v>>6]&(1<<(uint(v)&63)) == 0 {
		return false
	}
	for i := range pl.tests {
		if !mc.strOK(&pl.tests[i], v) {
			return false
		}
	}
	for i := range pl.props {
		if !mc.propOK(&pl.props[i], v) {
			return false
		}
	}
	if pl.slot >= 0 {
		if b := mc.slots[pl.slot]; b >= 0 && b != v {
			return false
		}
	}
	return true
}

func (mc *matchCursor) strOK(t *strTest, v int32) bool {
	var s string
	if t.col == colName {
		if !mc.p.ix.HasName(v) {
			return false
		}
		s = mc.p.ix.Name(v)
	} else {
		if !mc.p.ix.HasSinkType(v) {
			return false
		}
		s = mc.p.ix.SinkType(v)
	}
	switch t.op {
	case "=":
		return s == t.lit
	case "CONTAINS":
		return strings.Contains(s, t.lit)
	case "STARTSWITH":
		return strings.HasPrefix(s, t.lit)
	case "ENDSWITH":
		return strings.HasSuffix(s, t.lit)
	}
	return false
}

// propOK checks an unindexed inline property against the live store,
// exactly like nodeMatches: present and valueEqual.
func (mc *matchCursor) propOK(pc *propCheck, v int32) bool {
	db := mc.store()
	if db == nil {
		return false
	}
	val, ok := db.NodeProp(mc.p.ix.IDOf(v), pc.prop)
	return ok && valueEqual(val, pc.want)
}

// residualOK evaluates the WHERE conjuncts that were not pushed onto
// scans, with the interpreter's semantics (missing operand → false).
func (mc *matchCursor) residualOK() bool {
	for _, e := range mc.p.residual {
		if !mc.evalExpr(e) {
			return false
		}
	}
	return true
}

func (mc *matchCursor) evalExpr(e Expr) bool {
	switch n := e.(type) {
	case *BinExpr:
		if n.Op == "AND" {
			return mc.evalExpr(n.L) && mc.evalExpr(n.R)
		}
		return mc.evalExpr(n.L) || mc.evalExpr(n.R)
	case *NotExpr:
		return !mc.evalExpr(n.E)
	case *CmpExpr:
		l, lok := mc.operandValue(n.L)
		r, rok := mc.operandValue(n.R)
		if !lok || !rok {
			return false
		}
		return compare(n.Op, l, r)
	default:
		return false
	}
}

func (mc *matchCursor) operandValue(op Operand) (any, bool) {
	if op.IsLiteral {
		return op.Literal, true
	}
	slot, ok := mc.p.slotOf[op.Var]
	if !ok {
		return nil, false
	}
	v := mc.slots[slot]
	if v < 0 {
		return nil, false
	}
	id := mc.p.ix.IDOf(v)
	if op.Prop == "" {
		return int(id), true
	}
	db := mc.store()
	if db == nil {
		return nil, false
	}
	return db.NodeProp(id, op.Prop)
}

// project evaluates the RETURN items for the current match (non-COUNT
// queries only; COUNT goes through aggregate).
func (mc *matchCursor) project() ([]any, error) {
	row := make([]any, 0, len(mc.p.q.Return))
	for _, item := range mc.p.q.Return {
		v, err := mc.itemNode(item.Var, "RETURN")
		if err != nil {
			return nil, err
		}
		if item.Prop == "" {
			row = append(row, mc.entityLabel(v))
			continue
		}
		row = append(row, mc.propValue(v, item.Prop))
	}
	return row, nil
}

func (mc *matchCursor) itemNode(varName, clause string) (int32, error) {
	if slot, ok := mc.p.slotOf[varName]; ok {
		if v := mc.slots[slot]; v >= 0 {
			return v, nil
		}
	}
	return -1, &Error{Msg: fmt.Sprintf("unbound variable %q in %s", varName, clause)}
}

// propValue reads a projected property: interned columns when they model
// the value exactly, the live store otherwise (nil when absent).
func (mc *matchCursor) propValue(v int32, prop string) any {
	switch prop {
	case "NAME":
		if mc.p.ix.HasName(v) {
			return mc.p.ix.Name(v)
		}
	case "SINK_TYPE":
		if mc.p.ix.HasSinkType(v) {
			return mc.p.ix.SinkType(v)
		}
	}
	db := mc.store()
	if db == nil {
		return nil
	}
	val, ok := db.NodeProp(mc.p.ix.IDOf(v), prop)
	if !ok {
		return nil
	}
	return val
}

// entityLabel renders a whole-node projection: its NAME when present.
func (mc *matchCursor) entityLabel(v int32) any {
	if mc.p.ix.HasName(v) {
		return mc.p.ix.Name(v)
	}
	id := mc.p.ix.IDOf(v)
	if db := mc.store(); db != nil {
		if val, ok := db.NodeProp(id, "NAME"); ok {
			return val
		}
	}
	return fmt.Sprintf("#%d", id)
}

// Run executes the plan to a complete Result, with the interpreter's
// epilogue semantics: DISTINCT before LIMIT, early exit only when no
// ORDER BY, COUNT grouping in first-seen order.
func (p *Plan) Run() (*Result, error) {
	res := &Result{}
	for _, item := range p.q.Return {
		res.Columns = append(res.Columns, item.Label())
	}
	mc := p.newCursor()
	if p.hasCount {
		return p.aggregate(mc, res)
	}
	var seen map[string]bool
	if p.distinct {
		seen = make(map[string]bool)
	}
	for mc.next() {
		row, err := mc.project()
		if err != nil {
			return nil, err
		}
		if p.distinct {
			key := fmt.Sprintf("%v", row)
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		res.Rows = append(res.Rows, row)
		if p.q.OrderBy < 0 && p.q.Limit > 0 && len(res.Rows) >= p.q.Limit {
			break
		}
	}
	if mc.err != nil {
		return nil, mc.err
	}
	applyOrderAndLimit(p.q, res)
	return res, nil
}

// aggregate replicates the interpreter's COUNT grouping over the match
// stream. The all-COUNT(*) shape short-circuits to a bare counter so
// the hot "how many" queries stay allocation-free per match.
func (p *Plan) aggregate(mc *matchCursor, res *Result) (*Result, error) {
	bare := true
	for _, item := range p.q.Return {
		if !item.Count || item.Var != "" || item.Distinct {
			bare = false
		}
	}
	if bare {
		n := 0
		for mc.next() {
			n++
		}
		if mc.err != nil {
			return nil, mc.err
		}
		if n > 0 {
			row := make([]any, len(p.q.Return))
			for i := range row {
				row[i] = n
			}
			res.Rows = append(res.Rows, row)
		}
		applyOrderAndLimit(p.q, res)
		return res, nil
	}

	type group struct {
		row  []any
		n    int
		seen map[string]bool
	}
	groups := make(map[string]*group)
	var order []string
	distinctItem := false
	for _, item := range p.q.Return {
		if item.Count && item.Distinct {
			distinctItem = true
		}
	}
	for mc.next() {
		var keyParts []string
		row := make([]any, len(p.q.Return))
		var countDistinctVal string
		for i, item := range p.q.Return {
			if item.Count {
				if item.Var != "" {
					v, err := mc.itemNode(item.Var, "COUNT")
					if err != nil {
						return nil, err
					}
					countDistinctVal = fmt.Sprintf("%d", mc.p.ix.IDOf(v))
				}
				continue
			}
			v, err := mc.itemNode(item.Var, "RETURN")
			if err != nil {
				return nil, err
			}
			var val any
			if item.Prop == "" {
				val = mc.entityLabel(v)
			} else {
				val = mc.propValue(v, item.Prop)
			}
			row[i] = val
			keyParts = append(keyParts, fmt.Sprintf("%v", val))
		}
		key := strings.Join(keyParts, "\x00")
		g, ok := groups[key]
		if !ok {
			g = &group{row: row, seen: make(map[string]bool)}
			groups[key] = g
			order = append(order, key)
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
	if mc.err != nil {
		return nil, mc.err
	}
	for _, key := range order {
		g := groups[key]
		for i, item := range p.q.Return {
			if item.Count {
				g.row[i] = g.n
			}
		}
		res.Rows = append(res.Rows, g.row)
	}
	applyOrderAndLimit(p.q, res)
	return res, nil
}

// Cursor streams rows of one query to a consumer (the HTTP server's
// /v1/query handler) so a row cap can stop execution early instead of
// materializing the full result. Streamable plans (no COUNT, no ORDER
// BY) execute lazily; everything else — procedures, EXPLAIN, aggregates,
// ordered results, interpreter fallbacks — is materialized up front and
// replayed.
type Cursor struct {
	Columns []string

	// materialized replay
	rows [][]any
	ri   int

	// live plan execution
	p       *Plan
	mc      *matchCursor
	seen    map[string]bool
	emitted int
}

// Next returns the next row, or (nil, nil) once the stream is done. A
// non-nil error ends the stream (it surfaces before any row on the same
// queries the materializing path would reject whole).
func (c *Cursor) Next() ([]any, error) {
	if c.mc == nil {
		if c.ri >= len(c.rows) {
			return nil, nil
		}
		row := c.rows[c.ri]
		c.ri++
		return row, nil
	}
	if c.p.q.Limit > 0 && c.emitted >= c.p.q.Limit {
		return nil, nil
	}
	for c.mc.next() {
		row, err := c.mc.project()
		if err != nil {
			return nil, err
		}
		if c.seen != nil {
			key := fmt.Sprintf("%v", row)
			if c.seen[key] {
				continue
			}
			c.seen[key] = true
		}
		c.emitted++
		return row, nil
	}
	return nil, c.mc.err
}

// RunAnyCursor is RunAny with a streaming result: queries the plan
// runner can stream are executed lazily row by row; the rest run to
// completion first and replay.
func RunAnyCursor(db *graphdb.DB, query string) (*Cursor, error) {
	return RunAnyCursorSource(DBSource(db), query)
}

// RunAnyCursorSource is RunAnyCursor over an arbitrary Source. Plannable
// MATCH queries and EXPLAIN execute against the source's compiled index
// without touching the store; procedures, interpreter fallbacks, and
// plans with residual store reads materialize it via src.DB() (a full
// snapshot parse on disk-resident sources), so every query shape still
// answers — just not zero-copy.
func RunAnyCursorSource(src Source, query string) (*Cursor, error) {
	if rest, isExplain := explainRest(query); isExplain {
		return replay(runExplain(src, rest))
	}
	if trimmed := strings.TrimSpace(query); len(trimmed) >= 4 && strings.EqualFold(trimmed[:4], "CALL") {
		db, err := src.DB()
		if err != nil {
			return nil, err
		}
		return replay(RunProcedure(db, trimmed))
	}
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	p, perr := PlanQuerySource(src, q)
	if perr != nil {
		db, err := src.DB()
		if err != nil {
			return nil, err
		}
		return replay(ExecuteGeneric(db, q))
	}
	if p.hasCount || q.OrderBy >= 0 {
		return replay(p.Run())
	}
	c := &Cursor{p: p, mc: p.newCursor()}
	for _, item := range q.Return {
		c.Columns = append(c.Columns, item.Label())
	}
	if p.distinct {
		c.seen = make(map[string]bool)
	}
	return c, nil
}

// replay wraps a materialized result as a cursor that replays its rows.
func replay(res *Result, err error) (*Cursor, error) {
	if err != nil {
		return nil, err
	}
	return &Cursor{Columns: res.Columns, rows: res.Rows}, nil
}
