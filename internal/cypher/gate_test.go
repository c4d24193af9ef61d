package cypher

import (
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/cpg"
	"tabby/internal/graphdb"
	"tabby/internal/javasrc"
	"tabby/internal/searchindex"
)

// gateQuery is one query of a gate workload; selective marks the
// pushdown-friendly needle-in-haystack patterns the speedup gate ranks.
type gateQuery struct {
	text      string
	selective bool
}

// layeredQueries is the battery over layeredGraph.
var layeredQueries = []gateQuery{
	{`MATCH (m:Method) WHERE m.IS_SINK = true RETURN m.NAME, m.SINK_TYPE`, true},
	{`MATCH (m:Method) WHERE m.NAME = "sink" RETURN m.NAME`, true},
	{`MATCH (a:Method)-[:CALL]->(b:Method) WHERE b.IS_SINK = true RETURN a.NAME, b.NAME`, true},
	{`MATCH (m:Method) RETURN COUNT(*)`, false},
	{`MATCH (a:Method)-[:CALL]->(b:Method) RETURN a.NAME LIMIT 10`, false},
}

// componentQueries is the battery over a real component CPG.
var componentQueries = []gateQuery{
	{`MATCH (m:Method) WHERE m.IS_SINK = true AND m.SINK_TYPE = "EXEC" RETURN m.NAME`, true},
	{`MATCH (m:Method) WHERE m.NAME CONTAINS "readObject" RETURN m.NAME`, true},
	{`MATCH (a:Method)-[:CALL]->(b:Method) WHERE b.IS_SINK = true RETURN a.NAME, b.NAME`, true},
	{`MATCH (m:Method) RETURN COUNT(*)`, false},
}

// layeredGraph assembles a frozen layered call graph big enough that
// full scans hurt: one sink and `layers` layers of `width` methods,
// each method calling every method in the layer below.
func layeredGraph(t testing.TB, layers, width int) *graphdb.DB {
	t.Helper()
	db := graphdb.New()
	sink := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{
		cpg.PropName:             "sink",
		cpg.PropIsSink:           true,
		cpg.PropSinkType:         "EXEC",
		cpg.PropTriggerCondition: []int{0},
	})
	prev := []graphdb.ID{sink}
	for l := 1; l <= layers; l++ {
		cur := make([]graphdb.ID, width)
		for k := range cur {
			cur[k] = db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{
				cpg.PropName: fmt.Sprintf("m_%d_%d", l, k),
			})
		}
		for _, caller := range cur {
			for _, callee := range prev {
				if _, err := db.CreateRel(cpg.RelCall, caller, callee, graphdb.Props{
					cpg.PropPollutedPosition: []int{0},
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		prev = cur
	}
	db.Freeze()
	return db
}

// TestQueryGate is the gate behind `make bench-query`: at GOMAXPROCS=1,
// over a 16x50 layered graph and the commons-collections 3.2.1 CPG, the
// compiled plan must return what the interpreter returns, beat it by
// at least 10x on some selective MATCH..WHERE pattern, and allocate at
// most 32 + 4 per result row per steady-state run — a plan constant
// plus row materialization, nothing proportional to graph size. The
// index compiles outside the measured runs, as in the server.
// Wall-clock assertions are load-sensitive, so the gate only arms when
// TABBY_BENCH_GATE is set.
func TestQueryGate(t *testing.T) {
	if os.Getenv("TABBY_BENCH_GATE") == "" {
		t.Skip("set TABBY_BENCH_GATE=1 (make bench-query) to run the timing gate")
	}
	comp, err := corpus.ComponentByName("commons-collections(3.2.1)")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := javasrc.CompileArchivesOpts(append([]javasrc.ArchiveSource{corpus.RT()}, comp.Archives...),
		javasrc.CompileOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := core.New(core.Options{Workers: 1}).BuildCPG(prog)
	if err != nil {
		t.Fatal(err)
	}

	best, bestQuery := 0.0, ""
	for _, w := range []struct {
		name    string
		db      *graphdb.DB
		queries []gateQuery
	}{
		{"synthetic-layered", layeredGraph(t, 16, 50), layeredQueries},
		{"component/" + comp.Name, g.DB, componentQueries},
	} {
		searchindex.For(w.db)
		for _, gq := range w.queries {
			name := w.name + ": " + gq.text
			q, err := Parse(gq.text)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := PlanQuery(w.db, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ExecuteGeneric(w.db, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: plan result differs from the interpreter's", name)
			}

			allocs := testing.AllocsPerRun(100, func() { plan.Run() })
			if ceiling := float64(32 + 4*len(want.Rows)); allocs > ceiling {
				t.Errorf("%s: %.0f allocs/op steady-state for %d rows, gate requires <= %.0f",
					name, allocs, len(want.Rows), ceiling)
			}
			if !gq.selective {
				continue
			}
			interp := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ExecuteGeneric(w.db, q)
				}
			})
			planned := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					plan.Run()
				}
			})
			speedup := float64(interp.NsPerOp()) / float64(planned.NsPerOp())
			t.Logf("%s: interp %v, plan %v (%.1fx), %.0f allocs/op",
				name, time.Duration(interp.NsPerOp()), time.Duration(planned.NsPerOp()), speedup, allocs)
			if speedup > best {
				best, bestQuery = speedup, name
			}
		}
	}
	if best < 10 {
		t.Errorf("best selective speedup %.1fx (%s), gate requires >= 10x", best, bestQuery)
	}
}
