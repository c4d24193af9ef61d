package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"time"

	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/cpg"
	"tabby/internal/cypher"
	"tabby/internal/graphdb"
	"tabby/internal/javasrc"
	"tabby/internal/searchindex"
)

// QueryRow is one (graph, query, engine) measurement: repeated
// executions timed wall-clock with allocation counts read from
// runtime.MemStats. The "interp" engine is the tree-walking
// interpreter over the generic property store; "plan" is the compiled
// iterator plan over the CSR search index, compiled once and re-run
// (the steady-state server shape, where one parsed query serves many
// requests).
type QueryRow struct {
	Graph       string `json:"graph"`
	Query       string `json:"query"`
	Engine      string `json:"engine"` // "interp" or "plan"
	Iters       int    `json:"iters"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	ResultRows  int    `json:"result_rows"`
}

// QuerySummary compares the two engines on one (graph, query) pair.
type QuerySummary struct {
	Graph      string  `json:"graph"`
	Query      string  `json:"query"`
	Selective  bool    `json:"selective"` // a pushdown-friendly needle-in-haystack pattern
	Speedup    float64 `json:"speedup"`   // interp ns / plan ns
	PlanNs     int64   `json:"plan_ns_per_op"`
	PlanAlloc  int64   `json:"plan_allocs_per_op"`
	ResultRows int     `json:"result_rows"`
}

// QueryResult is the query-engine comparison, serialized to
// BENCH_query.json by cmd/tabby-bench.
type QueryResult struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	// Deterministic reports that both engines returned identical results
	// for every benchmarked query (checked once per pair before timing).
	Deterministic bool           `json:"deterministic"`
	Rows          []QueryRow     `json:"rows"`
	Summaries     []QuerySummary `json:"summaries"`
}

// benchQuery is one query in a workload's battery.
type benchQuery struct {
	name      string
	text      string
	selective bool
}

// queryWorkload is one benchmark graph plus the queries to run over it.
type queryWorkload struct {
	name    string
	db      *graphdb.DB
	queries []benchQuery
}

// queryWorkloads builds the benchmark graphs: a layered synthetic graph
// big enough that full scans hurt (one sink, 16 layers of 50 methods),
// and one real Table IX component CPG.
func queryWorkloads() ([]queryWorkload, error) {
	synthetic := queryWorkload{
		name: "synthetic-layered",
		db:   buildLayeredGraph(16, 50),
		queries: []benchQuery{
			{name: "sink-scan", selective: true,
				text: `MATCH (m:Method) WHERE m.IS_SINK = true RETURN m.NAME, m.SINK_TYPE`},
			{name: "name-eq", selective: true,
				text: `MATCH (m:Method) WHERE m.NAME = "sink" RETURN m.NAME`},
			{name: "call-into-sink", selective: true,
				text: `MATCH (a:Method)-[:CALL]->(b:Method) WHERE b.IS_SINK = true RETURN a.NAME, b.NAME`},
			{name: "count-all",
				text: `MATCH (m:Method) RETURN COUNT(*)`},
			{name: "limited-expand",
				text: `MATCH (a:Method)-[:CALL]->(b:Method) RETURN a.NAME LIMIT 10`},
		},
	}
	compName, compDB, err := componentGraph()
	if err != nil {
		return nil, err
	}
	component := queryWorkload{
		name: compName,
		db:   compDB,
		queries: []benchQuery{
			{name: "sink-scan", selective: true,
				text: `MATCH (m:Method) WHERE m.IS_SINK = true AND m.SINK_TYPE = "EXEC" RETURN m.NAME`},
			{name: "name-contains", selective: true,
				text: `MATCH (m:Method) WHERE m.NAME CONTAINS "readObject" RETURN m.NAME`},
			{name: "call-into-sink", selective: true,
				text: `MATCH (a:Method)-[:CALL]->(b:Method) WHERE b.IS_SINK = true RETURN a.NAME, b.NAME`},
			{name: "count-all",
				text: `MATCH (m:Method) RETURN COUNT(*)`},
		},
	}
	return []queryWorkload{synthetic, component}, nil
}

// buildLayeredGraph assembles a frozen layered call graph: one sink (TC
// [0]) and `layers` layers of `width` methods, each method calling every
// method in the layer below with a pass-through Polluted_Position. No
// layer holds a source, so a chain search explores the full graph and
// records nothing.
func buildLayeredGraph(layers, width int) *graphdb.DB {
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
					panic(err) // graph is program-constructed; IDs are valid
				}
			}
		}
		prev = cur
	}
	db.Freeze()
	return db
}

// componentGraph builds one real Table IX component's CPG as the
// non-synthetic workload (commons-collections 3.2.1, the classic gadget
// corpus; the first component if the name ever changes) and returns its
// workload name.
func componentGraph() (string, *graphdb.DB, error) {
	comps := corpus.Components()
	comp := comps[0]
	for _, c := range comps {
		if c.Name == "commons-collections(3.2.1)" {
			comp = c
			break
		}
	}
	archives := append([]javasrc.ArchiveSource{corpus.RT()}, comp.Archives...)
	prog, err := javasrc.CompileArchivesOpts(archives, javasrc.CompileOptions{Workers: 1})
	if err != nil {
		return "", nil, err
	}
	g, _, err := core.New(core.Options{Workers: 1}).BuildCPG(prog)
	if err != nil {
		return "", nil, err
	}
	return "component/" + comp.Name, g.DB, nil
}

// RunQuery benchmarks the compiled plan runner against the tree-walking
// interpreter. runs is the measured iteration count per row (after one
// warm-up per engine; the index compiles outside the timed region, as
// in the server where searchindex.For is version-cached).
func RunQuery(runs int) (*QueryResult, error) {
	if runs < 1 {
		runs = 50
	}
	workloads, err := queryWorkloads()
	if err != nil {
		return nil, err
	}
	res := &QueryResult{GOMAXPROCS: runtime.GOMAXPROCS(0), Deterministic: true}
	for _, w := range workloads {
		searchindex.For(w.db) // compile the index outside the timed region
		for _, bq := range w.queries {
			q, err := cypher.Parse(bq.text)
			if err != nil {
				return nil, fmt.Errorf("query bench %s/%s: %w", w.name, bq.name, err)
			}
			plan, err := cypher.PlanQuery(w.db, q)
			if err != nil {
				return nil, fmt.Errorf("query bench %s/%s: %w", w.name, bq.name, err)
			}

			// Equivalence before timing: a fast wrong answer is worthless.
			want, err := cypher.ExecuteGeneric(w.db, q)
			if err != nil {
				return nil, fmt.Errorf("query bench %s/%s: %w", w.name, bq.name, err)
			}
			got, err := plan.Run()
			if err != nil {
				return nil, fmt.Errorf("query bench %s/%s: %w", w.name, bq.name, err)
			}
			if !reflect.DeepEqual(want, got) {
				res.Deterministic = false
			}

			sum := QuerySummary{Graph: w.name, Query: bq.name, Selective: bq.selective, ResultRows: len(want.Rows)}
			var interpNs int64
			for _, engine := range []string{"interp", "plan"} {
				run := func() (*cypher.Result, error) {
					if engine == "plan" {
						return plan.Run()
					}
					return cypher.ExecuteGeneric(w.db, q)
				}
				row := QueryRow{
					Graph:      w.name,
					Query:      bq.name,
					Engine:     engine,
					Iters:      runs,
					ResultRows: len(want.Rows),
				}
				row.NsPerOp, row.AllocsPerOp, row.BytesPerOp, err = measureQuery(runs, run)
				if err != nil {
					return nil, fmt.Errorf("query bench %s/%s/%s: %w", w.name, bq.name, engine, err)
				}
				if engine == "interp" {
					interpNs = row.NsPerOp
				} else {
					sum.PlanNs = row.NsPerOp
					sum.PlanAlloc = row.AllocsPerOp
				}
				res.Rows = append(res.Rows, row)
			}
			if sum.PlanNs > 0 {
				sum.Speedup = float64(interpNs) / float64(sum.PlanNs)
			}
			res.Summaries = append(res.Summaries, sum)
		}
	}
	return res, nil
}

// measureQuery times iters executions and reads the malloc counters
// around them (after a GC, so the deltas are the runs' own allocations).
func measureQuery(iters int, run func() (*cypher.Result, error)) (nsPerOp, allocsPerOp, bytesPerOp int64, err error) {
	if _, err = run(); err != nil { // warm-up
		return 0, 0, 0, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err = run(); err != nil {
			return 0, 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := int64(iters)
	return elapsed.Nanoseconds() / n,
		int64(after.Mallocs-before.Mallocs) / n,
		int64(after.TotalAlloc-before.TotalAlloc) / n,
		nil
}

// BestSelective returns the summary with the highest speedup among the
// selective (pushdown-friendly) queries — the number the bench gate
// checks against the 10x target.
func (r *QueryResult) BestSelective() *QuerySummary {
	var best *QuerySummary
	for i := range r.Summaries {
		s := &r.Summaries[i]
		if !s.Selective {
			continue
		}
		if best == nil || s.Speedup > best.Speedup {
			best = s
		}
	}
	return best
}

// Summary returns the (graph, query) comparison, or nil.
func (r *QueryResult) Summary(graph, query string) *QuerySummary {
	for i := range r.Summaries {
		if r.Summaries[i].Graph == graph && r.Summaries[i].Query == query {
			return &r.Summaries[i]
		}
	}
	return nil
}

// Format renders the engine comparison table.
func (r *QueryResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Cypher-lite: interpreter vs compiled plan (GOMAXPROCS=%d, deterministic=%v)\n",
		r.GOMAXPROCS, r.Deterministic)
	fmt.Fprintf(&sb, "%-32s %-16s %-7s %12s %10s %12s %6s\n",
		"Graph", "Query", "Engine", "ns/op", "allocs/op", "bytes/op", "rows")
	sb.WriteString(strings.Repeat("-", 101) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-32s %-16s %-7s %12d %10d %12d %6d\n",
			row.Graph, row.Query, row.Engine, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp, row.ResultRows)
	}
	for _, s := range r.Summaries {
		tag := ""
		if s.Selective {
			tag = " (selective)"
		}
		fmt.Fprintf(&sb, "%-32s %-16s plan is %.1fx faster, %d allocs/op%s\n",
			s.Graph, s.Query, s.Speedup, s.PlanAlloc, tag)
	}
	return sb.String()
}

// WriteJSON serializes the result (the BENCH_query.json artifact).
func (r *QueryResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
