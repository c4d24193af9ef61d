package bench

import (
	"slices"
	"strings"
	"testing"

	"tabby/internal/core"
	"tabby/internal/corpus"
)

func TestTable9ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full 26-component comparison")
	}
	table, err := RunTable9(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 26 {
		t.Fatalf("rows = %d, want 26", len(table.Rows))
	}
	o := table.Totals()

	// Paper totals: dataset 38; TB 79/26/26/27; GI 129/120/5/4;
	// SL 593/585/7/1. Exact equality is not expected (the corpus is a
	// reconstruction); the shape targets below are the paper's claims.
	if o.Dataset != 38 {
		t.Errorf("dataset = %d, want 38", o.Dataset)
	}
	// Tabby's known/unknown counts are fixed by the manifests: exact.
	if o.TBKnown != 26 || o.TBUnknown != 27 || o.TBFake != 26 {
		t.Errorf("tabby totals = %d/%d/%d, want 26/27/26 (known/unknown/fake)", o.TBKnown, o.TBUnknown, o.TBFake)
	}
	// Ordering claims (RQ2): Tabby FPR ≪ GI FPR < SL FPR; same for FNR.
	if !(o.TBFPR() < o.GIFPR() && o.GIFPR() < o.SLFPR()) {
		t.Errorf("FPR ordering violated: TB %.1f GI %.1f SL %.1f", o.TBFPR(), o.GIFPR(), o.SLFPR())
	}
	if !(o.TBFNR() < o.SLFNR() && o.TBFNR() < o.GIFNR()) {
		t.Errorf("FNR ordering violated: TB %.1f GI %.1f SL %.1f", o.TBFNR(), o.GIFNR(), o.SLFNR())
	}
	// Magnitude targets within a tolerance band.
	approx := func(name string, got, want, tol float64) {
		if got < want-tol || got > want+tol {
			t.Errorf("%s = %.1f, paper %.1f (tolerance ±%.1f)", name, got, want, tol)
		}
	}
	approx("Tabby FPR", o.TBFPR(), 32.9, 5)
	approx("Tabby FNR", o.TBFNR(), 31.6, 5)
	approx("GI FPR", o.GIFPR(), 93.0, 7)
	approx("GI FNR", o.GIFNR(), 86.8, 7)
	approx("SL FPR", o.SLFPR(), 98.6, 3)
	approx("SL FNR", o.SLFNR(), 81.6, 7)
	// Tabby dominates on unknown chains.
	if o.TBUnknown < o.GIUnknown || o.TBUnknown < o.SLUnknown {
		t.Errorf("tabby unknowns (%d) must dominate GI (%d) and SL (%d)", o.TBUnknown, o.GIUnknown, o.SLUnknown)
	}
	// Two X rows.
	timeouts := 0
	for _, r := range table.Rows {
		if r.SL.Timeout {
			timeouts++
		}
	}
	if timeouts != 2 {
		t.Errorf("SL timeouts = %d, want 2 (Clojure, Jython1)", timeouts)
	}
	if !strings.Contains(table.Format(), "Total") {
		t.Error("Format must include the totals row")
	}
}

func TestTable10ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full scene evaluation")
	}
	table, err := RunTable10()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(table.Rows))
	}
	for _, r := range table.Rows {
		if r.ResultCount != r.Scene.PaperResultCount {
			t.Errorf("%s: results = %d, paper %d", r.Scene.Name, r.ResultCount, r.Scene.PaperResultCount)
		}
		if r.Effective != r.Scene.PaperEffective {
			t.Errorf("%s: effective = %d, paper %d", r.Scene.Name, r.Effective, r.Scene.PaperEffective)
		}
		if r.JarCount != r.Scene.PaperJarCount {
			t.Errorf("%s: jar count = %d, paper %d", r.Scene.Name, r.JarCount, r.Scene.PaperJarCount)
		}
		got, want := r.FPR(), r.Scene.PaperFPRPercent
		if got < want-1 || got > want+1 {
			t.Errorf("%s: FPR = %.1f, paper %.1f", r.Scene.Name, got, want)
		}
	}
	if !strings.Contains(table.Format(), "JDK8") {
		t.Error("Format must mention the JDK8 scene")
	}
}

func TestTable11SpringChains(t *testing.T) {
	out, err := Table11()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"LazyInitTargetSource",
		"SimpleJndiBeanFactory#getBean",
		"JndiLocatorSupport#lookup",
		"javax.naming.Context#lookup",
		"PrototypeTargetSource",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table XI output missing %q:\n%s", want, out)
		}
	}
}

func TestTable8SmallScale(t *testing.T) {
	table, err := RunTable8(0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(table.Rows))
	}
	for i, r := range table.Rows {
		if r.ClassNodes == 0 || r.MethodNodes == 0 || r.Edges == 0 {
			t.Errorf("row %s: empty graph", r.Spec.Label)
		}
		if i > 0 {
			prev := table.Rows[i-1]
			if r.Spec.PaperClasses > prev.Spec.PaperClasses && r.ClassNodes <= prev.ClassNodes {
				t.Errorf("class counts not growing: %s %d vs %s %d", prev.Spec.Label, prev.ClassNodes, r.Spec.Label, r.ClassNodes)
			}
		}
	}
	if !strings.Contains(table.Format(), "150MB") {
		t.Error("Format must include every row")
	}
}

// TestRunParallelFindsPlantedChains pins the silent-zero fix: the
// synthetic corpus plants one gadget chain per class group, so the
// pipeline must find at least that many on the largest Table VIII row
// — at any worker count, with identical output — or taint→pathfinder
// is not being exercised, only compile.
func TestRunParallelFindsPlantedChains(t *testing.T) {
	const scale = 0.002
	specs := corpus.SyntheticSpecs()
	spec := specs[len(specs)-1]
	planted := corpus.SyntheticPlantedChains(spec, scale)
	if planted == 0 {
		t.Fatal("generator must always plant at least one chain")
	}
	prog, err := corpus.GenerateSynthetic(spec, scale)
	if err != nil {
		t.Fatal(err)
	}
	var keys [2][]string
	for i, workers := range []int{1, 2} {
		engine := core.New(core.Options{Workers: workers})
		g, _, err := engine.BuildCPG(prog)
		if err != nil {
			t.Fatal(err)
		}
		chains, _, _, err := engine.FindChains(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(chains) < planted {
			t.Errorf("workers=%d found %d chains, corpus plants %d", workers, len(chains), planted)
		}
		for _, c := range chains {
			keys[i] = append(keys[i], c.Key())
		}
	}
	if !slices.Equal(keys[0], keys[1]) {
		t.Error("chains differ between workers 1 and 2")
	}
}

func TestAblationSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("three full corpus passes")
	}
	results, err := RunAblationSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("variants = %d", len(results))
	}
	full, noInter, noPrune := results[0], results[1], results[2]
	// §III-C claim 1: without interprocedural analysis the FPR rises —
	// the sanitizer decoys come back as findings.
	if noInter.Fake <= full.Fake {
		t.Errorf("no-interprocedural fake count %d must exceed full's %d", noInter.Fake, full.Fake)
	}
	if noInter.FPR() <= full.FPR() {
		t.Errorf("no-interprocedural FPR %.1f must exceed full %.1f", noInter.FPR(), full.FPR())
	}
	// Recall must not drop when over-approximating harder.
	if noInter.Known < full.Known || noPrune.Known < full.Known {
		t.Errorf("ablations must not lose known chains: full=%d noInter=%d noPrune=%d",
			full.Known, noInter.Known, noPrune.Known)
	}
	// §III-C claim 2: dropping pruning also reintroduces fakes (the MCG
	// contains the uncontrollable edges the PCG removed).
	if noPrune.Fake < full.Fake {
		t.Errorf("no-pruning fake count %d must be at least full's %d", noPrune.Fake, full.Fake)
	}
	t.Logf("\n%s", FormatAblation(results))
}

// TestTable9PerRowFidelity compares every measured cell against the
// published row. Tabby's cells must match exactly (the manifests pin
// them); the baselines get a ±1 tolerance per cell — their counts emerge
// from genuinely different algorithms, not from the manifests.
func TestTable9PerRowFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("full 26-component comparison")
	}
	table, err := RunTable9(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	paper := corpus.PaperExpectations()
	if len(paper) != len(table.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(paper), len(table.Rows))
	}
	within := func(got, want, tol int) bool {
		d := got - want
		if d < 0 {
			d = -d
		}
		return d <= tol
	}
	for i, row := range table.Rows {
		p := paper[i]
		if row.Component.Name != p.Name {
			t.Fatalf("row %d order mismatch: %s vs %s", i, row.Component.Name, p.Name)
		}
		if row.Tabby.Fake != p.TBFake || row.Tabby.Known != p.TBKnown || row.Tabby.Unknown != p.TBUnknown {
			t.Errorf("%s: tabby %d/%d/%d, paper %d/%d/%d (fake/known/unknown)",
				p.Name, row.Tabby.Fake, row.Tabby.Known, row.Tabby.Unknown, p.TBFake, p.TBKnown, p.TBUnknown)
		}
		if !within(row.GI.Fake, p.GIFake, 1) || !within(row.GI.Known, p.GIKnown, 1) || !within(row.GI.Unknown, p.GIUnknown, 1) {
			t.Errorf("%s: gadgetinspector %d/%d/%d, paper %d/%d/%d",
				p.Name, row.GI.Fake, row.GI.Known, row.GI.Unknown, p.GIFake, p.GIKnown, p.GIUnknown)
		}
		if p.SLTimeout {
			if !row.SL.Timeout {
				t.Errorf("%s: serianalyzer must time out", p.Name)
			}
			continue
		}
		if row.SL.Timeout {
			t.Errorf("%s: serianalyzer timed out unexpectedly", p.Name)
			continue
		}
		if !within(row.SL.Fake, p.SLFake, 1) || !within(row.SL.Known, p.SLKnown, 1) || !within(row.SL.Unknown, p.SLUnknown, 1) {
			t.Errorf("%s: serianalyzer %d/%d/%d, paper %d/%d/%d",
				p.Name, row.SL.Fake, row.SL.Known, row.SL.Unknown, p.SLFake, p.SLKnown, p.SLUnknown)
		}
	}
}
