package bench

import (
	"reflect"
	"testing"

	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/cypher"
	"tabby/internal/javasrc"
)

// TestQueryBenchSmoke checks the correctness side of the query gate's
// component workload on every test run: over the commons-collections
// 3.2.1 CPG, the compiled plan runner and the interpreter return
// identical results for each query of the battery, and every selective
// query finds rows, so the gate has a needle to time. The timing gate
// itself is TestQueryGate in internal/cypher.
func TestQueryBenchSmoke(t *testing.T) {
	comp, err := corpus.ComponentByName("commons-collections(3.2.1)")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := javasrc.CompileArchivesOpts(appendRT(comp), javasrc.CompileOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := core.New(core.Options{Workers: 1}).BuildCPG(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, bq := range []struct {
		text      string
		selective bool
	}{
		{`MATCH (m:Method) WHERE m.IS_SINK = true AND m.SINK_TYPE = "EXEC" RETURN m.NAME`, true},
		{`MATCH (m:Method) WHERE m.NAME CONTAINS "readObject" RETURN m.NAME`, true},
		{`MATCH (a:Method)-[:CALL]->(b:Method) WHERE b.IS_SINK = true RETURN a.NAME, b.NAME`, true},
		{`MATCH (m:Method) RETURN COUNT(*)`, false},
	} {
		q, err := cypher.Parse(bq.text)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := cypher.PlanQuery(g.DB, q)
		if err != nil {
			t.Fatalf("%s: %v", bq.text, err)
		}
		want, err := cypher.ExecuteGeneric(g.DB, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: plan result differs from the interpreter's", bq.text)
		}
		if bq.selective && len(want.Rows) == 0 {
			t.Errorf("%s: selective query found no rows", bq.text)
		}
	}
}
