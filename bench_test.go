package tabby

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index).
//
//	go test -bench=. -benchmem
//
// The Table VIII benchmarks use a reduced corpus scale so `go test
// -bench` stays laptop-friendly; `cmd/tabby-bench -table 8 -scale 1`
// runs the paper-size corpus.

import (
	"fmt"
	"strings"
	"testing"

	"tabby/internal/bench"
	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/cpg"
	"tabby/internal/graphdb"
	"tabby/internal/interp"
	"tabby/internal/javasrc"
	"tabby/internal/pathfinder"
	"tabby/internal/taint"
)

// BenchmarkTable8_CPGGeneration measures CPG construction time per
// synthetic-corpus row (paper Table VIII; the paper's claim is linear
// scaling in class/method count).
func BenchmarkTable8_CPGGeneration(b *testing.B) {
	const scale = 0.05
	for _, spec := range corpus.SyntheticSpecs() {
		spec := spec
		b.Run(spec.Label, func(b *testing.B) {
			prog, err := corpus.GenerateSynthetic(spec, scale)
			if err != nil {
				b.Fatal(err)
			}
			engine := core.New(core.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := engine.BuildCPG(prog); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(prog.NumMethods()), "methods")
		})
	}
}

// BenchmarkTable9_Component measures the full three-tool comparison on
// representative Table IX components.
func BenchmarkTable9_Component(b *testing.B) {
	for _, name := range []string{"AspectJWeaver", "commons-collections(3.2.1)", "Groovy1"} {
		name := name
		b.Run(name, func(b *testing.B) {
			comp, err := corpus.ComponentByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.EvaluateComponent(comp, bench.EvalOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable9_FullComparison runs the entire 26-component experiment
// per iteration — the whole RQ2 table.
func BenchmarkTable9_FullComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.RunTable9(bench.EvalOptions{})
		if err != nil {
			b.Fatal(err)
		}
		o := t.Totals()
		b.ReportMetric(o.TBFPR(), "tabbyFPR%")
		b.ReportMetric(o.TBFNR(), "tabbyFNR%")
	}
}

// BenchmarkTable10_Scenes runs the five development-scene scans (RQ3).
func BenchmarkTable10_Scenes(b *testing.B) {
	for _, scene := range corpus.Scenes() {
		scene := scene
		b.Run(scene.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.EvaluateScene(scene); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable11_SpringChains regenerates the Table XI chain listing.
func BenchmarkTable11_SpringChains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table11(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_URLDNSCPG builds the Fig. 4 code property graph (the
// modeled runtime containing the URLDNS machinery).
func BenchmarkFig4_URLDNSCPG(b *testing.B) {
	prog, err := javasrc.CompileArchives([]javasrc.ArchiveSource{corpus.RT()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpg.Build(prog, cpg.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_Controllability runs the controllability analysis on the
// paper's Fig. 5 example/exchange pair.
func BenchmarkFig5_Controllability(b *testing.B) {
	prog, err := javasrc.Compile("fig5", `
package fig5;
public class A { public fig5.B b; }
public class B {
    public static fig5.B exchange(fig5.A a, fig5.B b) {
        a.b = b;
        b = new fig5.B();
        return a.b;
    }
}
public class C {
    public fig5.A example(fig5.A a, fig5.B b) {
        fig5.A a1 = new fig5.A();
        fig5.A a2 = a;
        a = a1;
        fig5.B b1 = fig5.B.exchange(a, b);
        return a2;
    }
}
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := taint.Analyze(prog, taint.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6_PathFinding measures the Expander/Evaluator search on a
// built CPG (the modeled runtime; finds URLDNS per iteration).
func BenchmarkFig6_PathFinding(b *testing.B) {
	prog, err := javasrc.CompileArchives([]javasrc.ArchiveSource{corpus.RT()})
	if err != nil {
		b.Fatal(err)
	}
	g, err := cpg.Build(prog, cpg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pathfinder.Find(g.DB, pathfinder.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Chains) == 0 {
			b.Fatal("URLDNS chain lost")
		}
	}
}

// BenchmarkAblation_PCGvsMCG contrasts chain search over the pruned
// Precise Call Graph against the unpruned Method Call Graph — the design
// choice §III-C motivates ("pruning ... helps to alleviate the path
// explosion problem").
func BenchmarkAblation_PCGvsMCG(b *testing.B) {
	comp, err := corpus.ComponentByName("commons-collections(3.2.1)")
	if err != nil {
		b.Fatal(err)
	}
	archives := append([]javasrc.ArchiveSource{corpus.RT()}, comp.Archives...)
	for _, mode := range []struct {
		name string
		keep bool
	}{{name: "PCG-pruned", keep: false}, {name: "MCG-unpruned", keep: true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			prog, err := javasrc.CompileArchives(archives)
			if err != nil {
				b.Fatal(err)
			}
			g, err := cpg.Build(prog, cpg.Options{KeepPrunedCalls: mode.keep})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var expansions int
			for i := 0; i < b.N; i++ {
				res, err := pathfinder.Find(g.DB, pathfinder.Options{})
				if err != nil {
					b.Fatal(err)
				}
				expansions = res.Expansions
			}
			b.ReportMetric(float64(expansions), "expansions")
		})
	}
}

// BenchmarkGraphDB measures the storage substrate: node insertion and
// FindNodes' label scan.
func BenchmarkGraphDB(b *testing.B) {
	b.Run("CreateNode", func(b *testing.B) {
		db := graphdb.New()
		props := graphdb.Props{"NAME": "x", "IS_SINK": false}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.CreateNode([]string{"Method"}, props)
		}
	})
	b.Run("FindNodes", func(b *testing.B) {
		db := graphdb.New()
		for i := 0; i < 10000; i++ {
			db.CreateNode([]string{"Method"}, graphdb.Props{"NAME": i})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := db.FindNodes("Method", "NAME", i%10000); len(got) != 1 {
				b.Fatal("lookup failed")
			}
		}
	})
}

// BenchmarkFrontend measures mini-Java compilation of the runtime model.
func BenchmarkFrontend(b *testing.B) {
	rt := corpus.RT()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := javasrc.CompileArchives([]javasrc.ArchiveSource{rt}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConfirm measures the §V-C confirmation engine: payload
// construction plus concrete execution of the URLDNS chain.
func BenchmarkConfirm(b *testing.B) {
	engine := core.New(core.Options{})
	rep, err := engine.AnalyzeSources([]javasrc.ArchiveSource{corpus.RT()})
	if err != nil {
		b.Fatal(err)
	}
	var chain []string
	for _, c := range rep.Chains {
		if strings.HasPrefix(c.Names[0], "java.util.HashMap#readObject") {
			chain = c.Names
		}
	}
	if chain == nil {
		b.Fatal("URLDNS chain missing")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := interp.Confirm(rep.Graph.Program, chain, interp.Options{})
		if err != nil || !res.Confirmed {
			b.Fatalf("confirm failed: %v %v", err, res)
		}
	}
}

// BenchmarkParallelPipeline measures the full pipeline (CPG build + chain
// search) over the Table VIII synthetic corpus at several worker counts.
// Speedup over the workers=1 sub-benchmark is the tentpole metric; on a
// single-CPU host (GOMAXPROCS=1) the counts coincide by design, since the
// scheduler degrades to the sequential path. Output equality across
// counts is pinned by TestPipelineDeterministicAcrossWorkerCounts
// (internal/core) and TestTable8SmallScale (internal/bench).
func BenchmarkParallelPipeline(b *testing.B) {
	const scale = 0.05
	specs := corpus.SyntheticSpecs()
	spec := specs[len(specs)-1]
	prog, err := corpus.GenerateSynthetic(spec, scale)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			engine := core.New(core.Options{Workers: workers})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, _, err := engine.BuildCPG(prog)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, _, err := engine.FindChains(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
