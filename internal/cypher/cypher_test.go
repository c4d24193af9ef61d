package cypher

import (
	"strings"
	"testing"

	"tabby/internal/graphdb"
)

// buildTestGraph: three Method nodes in a call chain plus one Class.
//
//	src -CALL-> mid -CALL-> sink ; impl -ALIAS-> mid ; Class -HAS-> src
func buildTestGraph(t *testing.T) *graphdb.DB {
	t.Helper()
	db := graphdb.New()
	method := func(name string, source, sink bool) graphdb.ID {
		return db.CreateNode([]string{"Method"}, graphdb.Props{
			"NAME": name, "IS_SOURCE": source, "IS_SINK": sink, "PARAM_COUNT": len(name),
		})
	}
	src := method("a.A#readObject()", true, false)
	mid := method("a.A#mid()", false, false)
	sink := method("java.lang.Runtime#exec(java.lang.String)", false, true)
	impl := method("a.B#mid()", false, false)
	cls := db.CreateNode([]string{"Class"}, graphdb.Props{"NAME": "a.A"})
	rel := func(typ string, from, to graphdb.ID) {
		if _, err := db.CreateRel(typ, from, to, graphdb.Props{"POLLUTED_POSITION": []int{0}}); err != nil {
			t.Fatal(err)
		}
	}
	rel("CALL", src, mid)
	rel("CALL", mid, sink)
	rel("ALIAS", impl, mid)
	rel("HAS", cls, src)
	return db
}

func mustRun(t *testing.T, db *graphdb.DB, q string) *Result {
	t.Helper()
	res, err := Run(db, q)
	if err != nil {
		t.Fatalf("Run(%q): %v", q, err)
	}
	return res
}

func TestMatchByLabelAndProp(t *testing.T) {
	db := buildTestGraph(t)
	res := mustRun(t, db, `MATCH (m:Method {IS_SINK: true}) RETURN m.NAME`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "java.lang.Runtime#exec(java.lang.String)" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "m.NAME" {
		t.Errorf("column = %q", res.Columns[0])
	}
}

func TestMatchRelationshipDirections(t *testing.T) {
	db := buildTestGraph(t)
	// Forward.
	res := mustRun(t, db, `MATCH (a:Method {NAME: "a.A#readObject()"})-[:CALL]->(b) RETURN b.NAME`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "a.A#mid()" {
		t.Fatalf("forward rows = %v", res.Rows)
	}
	// Backward arrow.
	res = mustRun(t, db, `MATCH (a:Method {NAME: "a.A#mid()"})<-[:CALL]-(b) RETURN b.NAME`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "a.A#readObject()" {
		t.Fatalf("backward rows = %v", res.Rows)
	}
	// Undirected sees both CALL neighbours of mid.
	res = mustRun(t, db, `MATCH (a:Method {NAME: "a.A#mid()"})-[:CALL]-(b) RETURN b.NAME`)
	if len(res.Rows) != 2 {
		t.Fatalf("undirected rows = %v", res.Rows)
	}
}

func TestVariableLengthPath(t *testing.T) {
	db := buildTestGraph(t)
	res := mustRun(t, db, `MATCH (a:Method {IS_SOURCE: true})-[:CALL*1..3]->(b:Method {IS_SINK: true}) RETURN b.NAME`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Min hops 2 excludes the direct neighbour.
	res = mustRun(t, db, `MATCH (a:Method {IS_SOURCE: true})-[:CALL*2..3]->(b) RETURN b.NAME`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "java.lang.Runtime#exec(java.lang.String)" {
		t.Fatalf("min-hop rows = %v", res.Rows)
	}
}

func TestWhereClause(t *testing.T) {
	db := buildTestGraph(t)
	res := mustRun(t, db, `MATCH (m:Method) WHERE m.NAME CONTAINS "exec" AND m.IS_SINK = true RETURN m.NAME`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustRun(t, db, `MATCH (m:Method) WHERE m.NAME STARTS WITH "a.A" RETURN m.NAME`)
	if len(res.Rows) != 2 {
		t.Fatalf("starts-with rows = %v", res.Rows)
	}
	res = mustRun(t, db, `MATCH (m:Method) WHERE NOT m.IS_SOURCE = true AND m.NAME ENDS WITH "mid()" RETURN m.NAME`)
	if len(res.Rows) != 2 {
		t.Fatalf("not rows = %v", res.Rows)
	}
	res = mustRun(t, db, `MATCH (m:Method) WHERE m.PARAM_COUNT > 20 RETURN m.NAME`)
	for _, row := range res.Rows {
		name, _ := row[0].(string)
		if len(name) <= 20 {
			t.Errorf("numeric comparison wrong: %v", row)
		}
	}
}

func TestCountAndGrouping(t *testing.T) {
	db := buildTestGraph(t)
	res := mustRun(t, db, `MATCH (m:Method) RETURN COUNT(*)`)
	if len(res.Rows) != 1 || res.Rows[0][0] != 4 {
		t.Fatalf("count rows = %v", res.Rows)
	}
	// Group by sink flag.
	res = mustRun(t, db, `MATCH (m:Method) RETURN m.IS_SINK, COUNT(*)`)
	if len(res.Rows) != 2 {
		t.Fatalf("grouped rows = %v", res.Rows)
	}
	total := 0
	for _, row := range res.Rows {
		n, _ := row[1].(int)
		total += n
	}
	if total != 4 {
		t.Errorf("group counts sum to %d", total)
	}
}

func TestLimitAndDistinct(t *testing.T) {
	db := buildTestGraph(t)
	res := mustRun(t, db, `MATCH (m:Method) RETURN m.NAME LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("limit rows = %v", res.Rows)
	}
	res = mustRun(t, db, `MATCH (m:Method) RETURN DISTINCT m.IS_SINK`)
	if len(res.Rows) != 2 {
		t.Fatalf("distinct rows = %v", res.Rows)
	}
}

func TestMultiplePatternsShareVariables(t *testing.T) {
	db := buildTestGraph(t)
	res := mustRun(t, db, `MATCH (c:Class)-[:HAS]->(m), (m)-[:CALL]->(n) RETURN c.NAME, n.NAME`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "a.A" || res.Rows[0][1] != "a.A#mid()" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestWholeEntityProjection(t *testing.T) {
	db := buildTestGraph(t)
	res := mustRun(t, db, `MATCH (m:Method {IS_SOURCE: true}) RETURN m`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "a.A#readObject()" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`MATCH (a RETURN a`,
		`MATCH (a) WHERE RETURN a`,
		`MATCH (a)-[>(b) RETURN a`,
		`MATCH (a) RETURN`,
		`MATCH (a) RETURN a LIMIT x`,
		`MATCH (a)<-[:X]->(b) RETURN a`,
		`MATCH (a) RETURN a extra`,
		`MATCH (a:) RETURN a`,
		`MATCH (a {X: }) RETURN a`,
	}
	for _, q := range bad {
		if _, err := Run(graphdb.New(), q); err == nil {
			t.Errorf("Run(%q) must fail", q)
		}
	}
}

func TestUnboundReturnVariable(t *testing.T) {
	db := buildTestGraph(t)
	if _, err := Run(db, `MATCH (m:Method {IS_SOURCE: true}) RETURN ghost.NAME`); err == nil {
		t.Fatal("unbound return variable must error")
	}
}

func TestResultFormat(t *testing.T) {
	db := buildTestGraph(t)
	res := mustRun(t, db, `MATCH (m:Method {IS_SINK: true}) RETURN m.NAME, m.IS_SINK`)
	s := res.Format()
	if !strings.Contains(s, "m.NAME") || !strings.Contains(s, "(1 rows)") {
		t.Errorf("Format() = %q", s)
	}
}

func TestAnonymousNodesAndAnyRelType(t *testing.T) {
	db := buildTestGraph(t)
	res := mustRun(t, db, `MATCH (:Class)-[]->(m) RETURN m.NAME`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "a.A#readObject()" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := buildTestGraph(t)
	res := mustRun(t, db, `MATCH (m:Method) RETURN m.NAME ORDER BY m.NAME`)
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].(string) > res.Rows[i][0].(string) {
			t.Fatalf("not sorted: %v", res.Rows)
		}
	}
	res = mustRun(t, db, `MATCH (m:Method) RETURN m.NAME ORDER BY m.NAME DESC LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("limit after order: %v", res.Rows)
	}
	if res.Rows[0][0].(string) < res.Rows[1][0].(string) {
		t.Fatalf("not descending: %v", res.Rows)
	}
	// ORDER BY with grouping: most-called first.
	res = mustRun(t, db, `MATCH (m:Method) RETURN m.IS_SINK, COUNT(*) ORDER BY COUNT(*) DESC`)
	if len(res.Rows) != 2 || res.Rows[0][1].(int) < res.Rows[1][1].(int) {
		t.Fatalf("grouped order: %v", res.Rows)
	}
	// ORDER BY must reference a returned item.
	if _, err := Run(db, `MATCH (m:Method) RETURN m.NAME ORDER BY m.GHOST`); err == nil {
		t.Fatal("ORDER BY on non-returned item must fail")
	}
}

func TestCallProcedures(t *testing.T) {
	db := buildTestGraph(t)
	// The test graph's sink has no TRIGGER_CONDITION; add one.
	sinkID := db.FindNodes("Method", "IS_SINK", true)[0]
	batch := db.NewBatch()
	batch.SetNodeProp(sinkID, "TRIGGER_CONDITION", []int{0})
	if err := batch.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := RunAny(db, `CALL tabby.findGadgetChains(6)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "source" || len(res.Rows) != 1 {
		t.Fatalf("procedure rows = %v", res.Rows)
	}
	if res.Rows[0][0] != "a.A#readObject()" {
		t.Errorf("chain source = %v", res.Rows[0][0])
	}
	res, err = RunAny(db, `CALL tabby.sinks()`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("sinks rows = %v", res.Rows)
	}
	res, err = RunAny(db, `CALL tabby.sources()`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("sources rows = %v", res.Rows)
	}
	res, err = RunAny(db, `CALL tabby.indexStats()`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Columns[0] != "nodes" {
		t.Fatalf("indexStats = %v %v", res.Columns, res.Rows)
	}
	if nodes, ok := res.Rows[0][0].(int); !ok || nodes != db.Stats().Nodes {
		t.Errorf("indexStats nodes = %v, want %d", res.Rows[0][0], db.Stats().Nodes)
	}
	// Dispatch: plain MATCH still works through RunAny.
	res, err = RunAny(db, `MATCH (m:Method) RETURN COUNT(*)`)
	if err != nil || res.Rows[0][0] != 4 {
		t.Fatalf("RunAny MATCH: %v %v", err, res)
	}
	// Errors.
	if _, err := RunAny(db, `CALL nope.proc()`); err == nil {
		t.Error("unknown procedure must fail")
	}
	if _, err := RunAny(db, `CALL tabby.findGadgetChains(x)`); err == nil {
		t.Error("bad argument must fail")
	}
	if _, err := RunAny(db, `CALL `); err == nil {
		t.Error("missing name must fail")
	}
	if _, err := RunAny(db, `CALL tabby.sinks(`); err == nil {
		t.Error("unterminated args must fail")
	}
}
