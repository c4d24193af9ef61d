package core

import (
	"fmt"
	"testing"

	"tabby/internal/corpus"
	"tabby/internal/javasrc"
)

func runIncremental(t *testing.T, cache *AnalysisCache, archives []javasrc.ArchiveSource, workers int) (pipelineOutput, *CacheStats) {
	t.Helper()
	engine := New(Options{Workers: workers})
	rep, err := engine.AnalyzeIncremental(cache, archives)
	if err != nil {
		t.Fatalf("incremental workers=%d: %v", workers, err)
	}
	return pipelineOutput{
		Chains:      rep.Chains,
		Truncated:   rep.Truncated,
		Stats:       fmt.Sprintf("%+v dispatch=%d", rep.Graph.Stats, rep.Graph.DispatchEdges),
		TotalCalls:  rep.Graph.Taint.TotalCalls,
		PrunedCalls: rep.Graph.Taint.PrunedCalls,
	}, rep.Timings.Cache
}

// checkIncrementalScenario runs the full incremental contract for one
// corpus at one worker count: a cold-cache incremental run, a warm rerun,
// and a one-class-changed rerun must each be byte-identical to a fresh
// cacheless build of the same sources.
func checkIncrementalScenario(t *testing.T, name string, archives []javasrc.ArchiveSource, workers int) {
	t.Helper()
	cold := runPipeline(t, archives, workers)

	cache := NewAnalysisCache()
	first, stats := runIncremental(t, cache, archives, workers)
	assertIdentical(t, name+"/cold-cache", cold, first, workers)
	if stats == nil {
		t.Fatalf("%s: no cache stats on incremental run", name)
	}
	if stats.GraphReuse != "rebuilt" {
		t.Errorf("%s: first run GraphReuse = %q, want rebuilt", name, stats.GraphReuse)
	}

	warm, stats := runIncremental(t, cache, archives, workers)
	assertIdentical(t, name+"/warm", cold, warm, workers)
	if !stats.Compile.ProgramReused {
		t.Errorf("%s: warm run did not reuse the program", name)
	}
	if stats.Taint.ComponentHits != stats.Taint.Components {
		t.Errorf("%s: warm run reused %d/%d taint components",
			name, stats.Taint.ComponentHits, stats.Taint.Components)
	}
	if stats.GraphReuse != "unchanged" {
		t.Errorf("%s: warm run GraphReuse = %q, want unchanged", name, stats.GraphReuse)
	}

	mutated, ok := corpus.MutateOneClass(archives)
	if !ok {
		t.Fatalf("%s: no mutation point found", name)
	}
	coldMut := runPipeline(t, mutated, workers)
	incrMut, stats := runIncremental(t, cache, mutated, workers)
	assertIdentical(t, name+"/one-class-changed", coldMut, incrMut, workers)
	if stats.Compile.BodyHits == 0 {
		t.Errorf("%s: changed run re-lowered every file", name)
	}
	if stats.Taint.ComponentHits == 0 {
		t.Errorf("%s: changed run reused no taint components", name)
	}
}

// TestIncrementalEquivalenceQuick always runs: one component at the
// default worker count exercises the whole cold/warm/changed contract.
func TestIncrementalEquivalenceQuick(t *testing.T) {
	comps := corpus.Components()
	archives := append([]javasrc.ArchiveSource{corpus.RT()}, comps[0].Archives...)
	checkIncrementalScenario(t, "component/"+comps[0].Name, archives, 1)
}

// TestIncrementalEquivalence sweeps every Table IX component plus the
// Spring scene at workers 1, 2 and 4: incremental output (chains with
// node IDs, stats, truncation, pruning counters) must be byte-identical
// to a fresh cacheless build in the cold-cache, warm, and
// one-class-changed scenarios.
func TestIncrementalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus incremental sweep")
	}
	for _, sc := range fullCorpus(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4} {
				checkIncrementalScenario(t, sc.name, sc.archives, workers)
			}
		})
	}
}
