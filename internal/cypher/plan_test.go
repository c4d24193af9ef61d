package cypher

import (
	"reflect"
	"strings"
	"testing"

	"tabby/internal/graphdb"
)

// assertEngineParity runs the query through both engines and requires
// identical results (rows, columns, rendered table) and identical error
// text. It returns the shared result for further assertions.
func assertEngineParity(t *testing.T, db *graphdb.DB, query string) *Result {
	t.Helper()
	q, err := Parse(query)
	if err != nil {
		t.Fatalf("Parse(%q): %v", query, err)
	}
	want, werr := ExecuteGeneric(db, q)
	p, perr := PlanQuery(db, q)
	if perr != nil {
		t.Fatalf("PlanQuery(%q): %v", query, perr)
	}
	got, gerr := p.Run()
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("error mismatch for %q: interpreter %v, plan %v", query, werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("error text mismatch for %q: %q vs %q", query, werr, gerr)
		}
		return nil
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("result mismatch for %q:\ninterpreter: %#v\nplan:        %#v", query, want, got)
	}
	if want.Format() != got.Format() {
		t.Fatalf("Format mismatch for %q", query)
	}
	return got
}

func TestPlanEmptyGraph(t *testing.T) {
	db := graphdb.New()
	for _, q := range []string{
		`MATCH (m:Method) RETURN m.NAME`,
		`MATCH (m) RETURN m`,
		`MATCH (a)-[:CALL]->(b) RETURN a, b`,
		`MATCH (m) RETURN COUNT(*)`,
		`MATCH (m) WHERE m.NAME = "x" RETURN m LIMIT 3`,
	} {
		res := assertEngineParity(t, db, q)
		if res != nil && len(res.Rows) != 0 {
			t.Errorf("%q on empty graph produced rows: %v", q, res.Rows)
		}
	}
}

func TestPlanLimitEdgeCases(t *testing.T) {
	db := buildTestGraph(t)
	// LIMIT 0 means unlimited (parser accepts it; Execute treats 0 as
	// "no limit") — both engines must agree.
	res := assertEngineParity(t, db, `MATCH (m:Method) RETURN m.NAME LIMIT 0`)
	if len(res.Rows) != 4 {
		t.Fatalf("LIMIT 0 rows = %d, want 4 (unlimited)", len(res.Rows))
	}
	res = assertEngineParity(t, db, `MATCH (m:Method) RETURN m.NAME LIMIT 1`)
	if len(res.Rows) != 1 {
		t.Fatalf("LIMIT 1 rows = %d", len(res.Rows))
	}
	assertEngineParity(t, db, `MATCH (m:Method) RETURN m.NAME LIMIT 99`)
}

func TestPlanOrderByDisablesEarlyExit(t *testing.T) {
	// Names descend as node IDs ascend, so an early-exit LIMIT under
	// ORDER BY would return the wrong rows: the right answer needs the
	// full row set before sorting.
	db := graphdb.New()
	for _, name := range []string{"zz", "yy", "cc", "bb", "aa"} {
		db.CreateNode([]string{"Method"}, graphdb.Props{"NAME": name})
	}
	res := assertEngineParity(t, db, `MATCH (m:Method) RETURN m.NAME ORDER BY m.NAME LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[0][0] != "aa" || res.Rows[1][0] != "bb" {
		t.Fatalf("ORDER BY + LIMIT rows = %v, want [[aa] [bb]]", res.Rows)
	}
	res = assertEngineParity(t, db, `MATCH (m:Method) RETURN m.NAME ORDER BY m.NAME DESC LIMIT 2`)
	if res.Rows[0][0] != "zz" || res.Rows[1][0] != "yy" {
		t.Fatalf("DESC rows = %v", res.Rows)
	}
}

func TestPlanAliasBidirectional(t *testing.T) {
	db := buildTestGraph(t) // impl -ALIAS-> mid
	// The undirected pattern must see the edge from both endpoints.
	res := assertEngineParity(t, db, `MATCH (a:Method {NAME: "a.B#mid()"})-[:ALIAS]-(b) RETURN b.NAME`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "a.A#mid()" {
		t.Fatalf("alias from impl = %v", res.Rows)
	}
	res = assertEngineParity(t, db, `MATCH (a:Method {NAME: "a.A#mid()"})-[:ALIAS]-(b) RETURN b.NAME`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "a.B#mid()" {
		t.Fatalf("alias from mid = %v", res.Rows)
	}
	// Directed patterns stay directed.
	res = assertEngineParity(t, db, `MATCH (a:Method {NAME: "a.A#mid()"})-[:ALIAS]->(b) RETURN b.NAME`)
	if len(res.Rows) != 0 {
		t.Fatalf("directed alias the wrong way matched: %v", res.Rows)
	}
}

func TestPlanUnboundPredicateVariable(t *testing.T) {
	db := buildTestGraph(t)
	// A WHERE referencing a variable no pattern binds: the comparison's
	// operand never resolves, so it is false — zero rows, no error.
	res := assertEngineParity(t, db, `MATCH (m:Method) WHERE ghost.NAME = "x" RETURN m.NAME`)
	if len(res.Rows) != 0 {
		t.Fatalf("unbound predicate produced rows: %v", res.Rows)
	}
	// NOT of a never-resolving comparison is true.
	res = assertEngineParity(t, db, `MATCH (m:Method) WHERE NOT ghost.NAME = "x" RETURN m.NAME`)
	if len(res.Rows) != 4 {
		t.Fatalf("NOT unbound rows = %d, want 4", len(res.Rows))
	}
	// Unbound in RETURN errors identically (only when matches exist).
	assertEngineParity(t, db, `MATCH (m:Method) RETURN ghost.NAME`)
	// Unbound in COUNT errors identically.
	assertEngineParity(t, db, `MATCH (m:Method) RETURN COUNT(ghost)`)
}

func TestPlanSelfLoopAndAnyDirection(t *testing.T) {
	db := graphdb.New()
	a := db.CreateNode([]string{"Method"}, graphdb.Props{"NAME": "a"})
	b := db.CreateNode([]string{"Method"}, graphdb.Props{"NAME": "b"})
	if _, err := db.CreateRel("CALL", a, a, nil); err != nil { // self-loop
		t.Fatal(err)
	}
	if _, err := db.CreateRel("CALL", a, b, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRel("HAS", b, a, nil); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`MATCH (x {NAME: "a"})-[:CALL]->(y) RETURN y.NAME`,
		`MATCH (x {NAME: "a"})-[:CALL]-(y) RETURN y.NAME`,
		`MATCH (x {NAME: "a"})-[]-(y) RETURN y.NAME`,
		`MATCH (x)-[]->(y) RETURN x.NAME, y.NAME`,
		`MATCH (x)<-[]-(y) RETURN x.NAME, y.NAME`,
	} {
		assertEngineParity(t, db, q)
	}
}

func TestPlanSharedVariablesAcrossPaths(t *testing.T) {
	db := buildTestGraph(t)
	assertEngineParity(t, db, `MATCH (c:Class)-[:HAS]->(m), (m)-[:CALL]->(n) RETURN c.NAME, n.NAME`)
	// Same variable twice in one path: no self-CALL exists.
	res := assertEngineParity(t, db, `MATCH (m:Method)-[:CALL]->(m) RETURN m.NAME`)
	if len(res.Rows) != 0 {
		t.Fatalf("self-call rows = %v", res.Rows)
	}
	// Disconnected paths form a cross product.
	res = assertEngineParity(t, db, `MATCH (c:Class), (m:Method {IS_SINK: true}) RETURN c.NAME, m.NAME`)
	if len(res.Rows) != 1 {
		t.Fatalf("cross product rows = %v", res.Rows)
	}
}

func TestPlanPushdownExactness(t *testing.T) {
	db := graphdb.New()
	// Nodes crafted to break sloppy pushdown: NAME with a non-string
	// value, IS_SINK false vs absent, SINK_TYPE non-string.
	db.CreateNode([]string{"Method"}, graphdb.Props{"NAME": "real", "IS_SINK": true, "SINK_TYPE": "EXEC"})
	db.CreateNode([]string{"Method"}, graphdb.Props{"NAME": 42, "IS_SINK": false})
	db.CreateNode([]string{"Method"}, graphdb.Props{"SINK_TYPE": 7})
	db.CreateNode([]string{"Method"}, graphdb.Props{"NAME": "realist"})
	for _, q := range []string{
		`MATCH (m:Method) WHERE m.NAME = "real" RETURN m`,
		`MATCH (m:Method) WHERE m.NAME CONTAINS "real" RETURN m`,
		`MATCH (m:Method) WHERE m.NAME STARTS WITH "real" RETURN m`,
		`MATCH (m:Method) WHERE m.NAME ENDS WITH "ist" RETURN m`,
		`MATCH (m:Method) WHERE m.IS_SINK = true RETURN m`,
		`MATCH (m:Method) WHERE m.IS_SINK = false RETURN m`, // absent ≠ false: only node 2 matches
		`MATCH (m:Method) WHERE m.SINK_TYPE = "EXEC" RETURN m`,
		`MATCH (m:Method) WHERE m.NAME = 42 RETURN m`, // non-string literal: residual path
		`MATCH (m:Method) WHERE "real" = m.NAME RETURN m`,
		`MATCH (m:Method) WHERE NOT m.NAME = "real" RETURN m`,
		`MATCH (m:Method {NAME: "real"}) RETURN m`,
		`MATCH (m:Method {IS_SINK: true}) RETURN m.SINK_TYPE`,
		`MATCH (m:Method {SINK_TYPE: 7}) RETURN m`,
		`MATCH (m:Method) WHERE m.NAME <> "real" RETURN m`, // <> is residual (fmt fallback semantics)
	} {
		assertEngineParity(t, db, q)
	}
}

func TestPlanPropagationPrunesAnchor(t *testing.T) {
	// Wide fan: many Methods, one CALL edge into the single sink. The
	// selective downstream level must drive backward propagation so the
	// anchor scan shrinks to the one useful caller.
	db := graphdb.New()
	var sink graphdb.ID
	for i := 0; i < 200; i++ {
		props := graphdb.Props{"NAME": "m" + string(rune('a'+i%26)) + string(rune('a'+i/26))}
		if i == 199 {
			props["IS_SINK"] = true
		}
		id := db.CreateNode([]string{"Method"}, props)
		if i == 199 {
			sink = id
		}
	}
	caller := db.FindNodes("Method", "NAME", "maa")[0]
	if _, err := db.CreateRel("CALL", caller, sink, nil); err != nil {
		t.Fatal(err)
	}
	query := `MATCH (a:Method)-[:CALL]->(b:Method) WHERE b.IS_SINK = true RETURN a.NAME`
	res := assertEngineParity(t, db, query)
	if len(res.Rows) != 1 || res.Rows[0][0] != "maa" {
		t.Fatalf("rows = %v", res.Rows)
	}
	q, _ := Parse(query)
	p, err := PlanQuery(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if !p.propagated {
		t.Error("selective downstream level did not trigger propagation")
	}
	if got := p.levels[0].propEst; got != 1 {
		t.Errorf("anchor estimate after propagation = %d, want 1", got)
	}
	found := false
	for _, line := range p.Explain() {
		if strings.Contains(line, "propagation") {
			found = true
		}
	}
	if !found {
		t.Error("EXPLAIN does not mention propagation")
	}

	// A deep layered graph, where a sloppy propagation or anchor choice
	// would change rows rather than only cost: the query gate's battery.
	layered := layeredGraph(t, 16, 50)
	for _, gq := range layeredQueries {
		assertEngineParity(t, layered, gq.text)
	}
}

func TestPlanFallbackVariableLength(t *testing.T) {
	db := buildTestGraph(t)
	q, err := Parse(`MATCH (a:Method {IS_SOURCE: true})-[:CALL*1..3]->(b) RETURN b.NAME`)
	if err != nil {
		t.Fatal(err)
	}
	if _, perr := PlanQuery(db, q); perr == nil {
		t.Fatal("variable-length pattern must not be plannable")
	}
	// Execute transparently falls back and still answers.
	res, err := Execute(db, q)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("fallback Execute: %v %v", err, res)
	}
}

func TestExplain(t *testing.T) {
	db := buildTestGraph(t)
	res := mustRun(t, db, `EXPLAIN MATCH (m:Method) WHERE m.IS_SINK = true RETURN m.NAME LIMIT 5`)
	if res.Columns[0] != "plan" || len(res.Rows) == 0 {
		t.Fatalf("EXPLAIN result = %v", res)
	}
	text := res.Format()
	for _, want := range []string{"plan: indexed", "IS_SINK", "limit: 5 pushed"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, text)
		}
	}
	// Fallback reason for variable-length patterns.
	res = mustRun(t, db, `EXPLAIN MATCH (a)-[:CALL*1..3]->(b) RETURN b`)
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0].(string), "interpreter") {
		t.Fatalf("fallback EXPLAIN = %v", res.Rows)
	}
	// EXPLAIN CALL notes the direct dispatch.
	res, err := RunAny(db, `EXPLAIN CALL tabby.sinks()`)
	if err != nil || len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0].(string), "procedure") {
		t.Fatalf("EXPLAIN CALL = %v %v", res, err)
	}
	// EXPLAIN of an unparseable query still errors.
	if _, err := Run(db, `EXPLAIN MATCH (`); err == nil {
		t.Error("EXPLAIN of a bad query must fail")
	}
	// A name that merely starts with EXPLAIN is not the keyword.
	if _, err := Run(db, `EXPLAINMATCH (m) RETURN m`); err == nil {
		t.Error("EXPLAINMATCH must not parse")
	}
}

func TestPlanDistinctAndAggregates(t *testing.T) {
	db := buildTestGraph(t)
	for _, q := range []string{
		`MATCH (m:Method) RETURN DISTINCT m.IS_SINK`,
		`MATCH (m:Method) RETURN COUNT(*)`,
		`MATCH (m:Method) RETURN m.IS_SINK, COUNT(*)`,
		`MATCH (a)-[:CALL]->(b) RETURN b.NAME, COUNT(a)`,
		`MATCH (m:Method) RETURN m.IS_SINK, COUNT(*) ORDER BY COUNT(*) DESC`,
		`MATCH (m:Method) RETURN m.NAME ORDER BY m.NAME DESC LIMIT 2`,
		`MATCH (m:Method) WHERE m.PARAM_COUNT > 20 RETURN m.NAME`,
		`MATCH (m:Method) WHERE m.IS_SOURCE = true OR m.IS_SINK = true RETURN m.NAME`,
	} {
		assertEngineParity(t, db, q)
	}
}

func TestPlanStreamingCursor(t *testing.T) {
	db := buildTestGraph(t)
	drain := func(q string) (*Cursor, [][]any) {
		t.Helper()
		c, err := RunAnyCursor(db, q)
		if err != nil {
			t.Fatalf("RunAnyCursor(%q): %v", q, err)
		}
		var rows [][]any
		for {
			row, err := c.Next()
			if err != nil {
				t.Fatalf("Next(%q): %v", q, err)
			}
			if row == nil {
				return c, rows
			}
			rows = append(rows, row)
		}
	}
	for _, q := range []string{
		`MATCH (m:Method) RETURN m.NAME`,                   // live streaming
		`MATCH (m:Method) RETURN m.NAME LIMIT 2`,           // limit stops the cursor
		`MATCH (m:Method) RETURN DISTINCT m.IS_SINK`,       // distinct streams
		`MATCH (m:Method) RETURN COUNT(*)`,                 // aggregate materializes
		`MATCH (m:Method) RETURN m.NAME ORDER BY m.NAME`,   // order materializes
		`MATCH (a)-[:CALL*1..2]->(b) RETURN b.NAME`,        // interpreter fallback
		`CALL tabby.sinks()`,                               // procedure
		`EXPLAIN MATCH (m) RETURN m`,                       // explain
		`MATCH (m:Method) WHERE ghost.X = 1 RETURN m.NAME`, // zero rows
	} {
		want, err := RunAny(db, q)
		if err != nil {
			t.Fatalf("RunAny(%q): %v", q, err)
		}
		c, rows := drain(q)
		if !reflect.DeepEqual(c.Columns, want.Columns) {
			t.Errorf("%q columns: %v vs %v", q, c.Columns, want.Columns)
		}
		if len(rows) != len(want.Rows) || (len(rows) > 0 && !reflect.DeepEqual(rows, want.Rows)) {
			t.Errorf("%q rows: %v vs %v", q, rows, want.Rows)
		}
	}
	// Errors surface through the cursor too.
	if _, err := RunAnyCursor(db, `MATCH (`); err == nil {
		t.Error("parse error must surface from RunAnyCursor")
	}
	c, err := RunAnyCursor(db, `MATCH (m:Method) RETURN ghost.NAME`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); err == nil {
		t.Error("projection error must surface from Next")
	}
}

func TestFormatCountsRunesNotBytes(t *testing.T) {
	res := &Result{
		Columns: []string{"name", "ok"},
		Rows: [][]any{
			{"héllo", true}, // 5 runes, 6 bytes
			{"worldly", false},
		},
	}
	lines := strings.Split(res.Format(), "\n")
	// All three content-bearing lines must align: the header, separator
	// and rows share column boundaries measured in runes.
	sep := lines[1]
	if !strings.HasPrefix(sep, strings.Repeat("-", 7)+"  ") {
		t.Fatalf("separator = %q", sep)
	}
	boundary := func(s string) int {
		return strings.Index(s, "  ")
	}
	w := boundary(sep)
	for _, li := range []int{0, 2, 3} {
		if got := len([]rune(lines[li][:strings.IndexAny(lines[li], " ")])); got > w {
			t.Fatalf("line %d overflows column: %q", li, lines[li])
		}
	}
	// The non-ASCII cell is padded to the same rune width as the widest.
	if want := "héllo    true "; !strings.HasPrefix(lines[2], "héllo  ") {
		t.Errorf("row line = %q (want prefix %q…)", lines[2], want)
	}
	row2 := []rune(lines[2])
	row3 := []rune(lines[3])
	// "true"/"false" must start at the same rune column in both rows.
	c2 := strings.Index(string(row2), "true")
	c3 := strings.Index(string(row3), "false")
	if len([]rune(string(row2[:0]))) == 0 && c2 >= 0 && c3 >= 0 {
		if len([]rune(lines[2][:c2])) != len([]rune(lines[3][:c3])) {
			t.Errorf("misaligned columns:\n%q\n%q", lines[2], lines[3])
		}
	}
}
