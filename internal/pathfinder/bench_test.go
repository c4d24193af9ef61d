package pathfinder_test

import (
	"fmt"
	"testing"

	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/cpg"
	"tabby/internal/graphdb"
	"tabby/internal/javasrc"
	"tabby/internal/pathfinder"
	"tabby/internal/searchindex"
)

// benchGraph builds a frozen layered call graph: one sink (TC [0]) and
// `layers` layers of `width` methods, each calling every method one layer
// down with a pass-through Polluted_Position. No sources, so a search
// explores everything and records nothing — pure traversal work.
// Deep-narrow shapes revisit nodes along many distinct paths (where
// dead-state memoization pays); shallow-wide shapes stress raw per-edge
// cost (where the CSR layout pays).
func benchGraph(tb testing.TB, layers, width int) *graphdb.DB {
	tb.Helper()
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
					tb.Fatal(err)
				}
			}
		}
		prev = cur
	}
	db.Freeze()
	return db
}

// componentGraph builds the CPG of commons-collections 3.2.1, the classic
// gadget corpus, as the benchmarks' real-world workload.
func componentGraph(tb testing.TB) *graphdb.DB {
	tb.Helper()
	comp, err := corpus.ComponentByName("commons-collections(3.2.1)")
	if err != nil {
		tb.Fatal(err)
	}
	archives := append([]javasrc.ArchiveSource{corpus.RT()}, comp.Archives...)
	prog, err := javasrc.CompileArchivesOpts(archives, javasrc.CompileOptions{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	g, _, err := core.New(core.Options{Workers: 1}).BuildCPG(prog)
	if err != nil {
		tb.Fatal(err)
	}
	return g.DB
}

// benchmarkEngine times sequential (Workers: 1) searches with one engine
// over each workload: the 8×3 graph TestSteadyStateAllocs gates, a deep
// re-convergent graph, a shallow wide one, and a real component.
func benchmarkEngine(b *testing.B, find func(*graphdb.DB, pathfinder.Options) (*pathfinder.Result, error)) {
	workloads := []struct {
		name  string
		build func(testing.TB) *graphdb.DB
	}{
		{"synthetic-8x3", func(tb testing.TB) *graphdb.DB { return benchGraph(tb, 8, 3) }},
		{"synthetic-deep", func(tb testing.TB) *graphdb.DB { return benchGraph(tb, 11, 2) }},
		{"synthetic-wide", func(tb testing.TB) *graphdb.DB { return benchGraph(tb, 2, 64) }},
		{"component/commons-collections(3.2.1)", componentGraph},
	}
	for _, w := range workloads {
		b.Run(w.name, func(b *testing.B) {
			db := w.build(b)
			opts := pathfinder.Options{Workers: 1}
			searchindex.For(db) // compile outside the timed region
			if _, err := find(db, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := find(db, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFindIndexed(b *testing.B) { benchmarkEngine(b, pathfinder.Find) }

func BenchmarkFindGeneric(b *testing.B) { benchmarkEngine(b, pathfinder.FindGeneric) }

// TestSteadyStateAllocs gates the tentpole's zero-allocation claim: once
// the index is compiled, a whole Find over a graph whose search expands
// thousands of edges must stay under a fixed allocation ceiling — i.e.
// per-Find setup only (seeds, finder, result), nothing per edge. The
// generic engine allocates thousands of times per op on the same graph,
// so any per-expansion allocation sneaking into the indexed DFS trips
// this immediately.
func TestSteadyStateAllocs(t *testing.T) {
	db := benchGraph(t, 8, 3) // 3^8 path explosion, memo-pruned
	opts := pathfinder.Options{Workers: 1}
	searchindex.For(db)
	if _, err := pathfinder.Find(db, opts); err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pathfinder.Find(db, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	const ceiling = 500
	if allocs := res.AllocsPerOp(); allocs > ceiling {
		t.Errorf("indexed Find allocates %d objects/op, ceiling %d", allocs, ceiling)
	}
}
