package core

import (
	"fmt"
	"reflect"
	"testing"

	"tabby/internal/corpus"
	"tabby/internal/javasrc"
	"tabby/internal/pathfinder"
)

// pipelineOutput captures everything the determinism contract promises to
// hold constant across worker counts: the chains (IDs, names, TCs, sink
// types, order), the graph statistics, and the pruning counters.
type pipelineOutput struct {
	Chains      []pathfinder.Chain
	Truncated   bool
	Stats       string
	TotalCalls  int
	PrunedCalls int
}

func runPipeline(t *testing.T, archives []javasrc.ArchiveSource, workers int) pipelineOutput {
	return runPipelineMode(t, archives, workers, false)
}

// runPipelineMode runs the pipeline with the serialization-dispatch pass
// on or off. The dispatch-edge count rides along in the Stats string so
// the determinism contract covers it too.
func runPipelineMode(t *testing.T, archives []javasrc.ArchiveSource, workers int, dispatch bool) pipelineOutput {
	t.Helper()
	engine := New(Options{Workers: workers, SerializationDispatch: dispatch})
	rep, err := engine.AnalyzeSources(archives)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return pipelineOutput{
		Chains:      rep.Chains,
		Truncated:   rep.Truncated,
		Stats:       fmt.Sprintf("%+v dispatch=%d", rep.Graph.Stats, rep.Graph.DispatchEdges),
		TotalCalls:  rep.Graph.Taint.TotalCalls,
		PrunedCalls: rep.Graph.Taint.PrunedCalls,
	}
}

func assertIdentical(t *testing.T, name string, base, got pipelineOutput, workers int) {
	t.Helper()
	if got.Stats != base.Stats {
		t.Errorf("%s workers=%d: stats differ\n got %s\nwant %s", name, workers, got.Stats, base.Stats)
	}
	if got.TotalCalls != base.TotalCalls || got.PrunedCalls != base.PrunedCalls {
		t.Errorf("%s workers=%d: call counters differ: got %d/%d want %d/%d",
			name, workers, got.TotalCalls, got.PrunedCalls, base.TotalCalls, base.PrunedCalls)
	}
	if got.Truncated != base.Truncated {
		t.Errorf("%s workers=%d: truncated=%v, want %v", name, workers, got.Truncated, base.Truncated)
	}
	if len(got.Chains) != len(base.Chains) {
		t.Fatalf("%s workers=%d: %d chains, want %d", name, workers, len(got.Chains), len(base.Chains))
	}
	for i := range base.Chains {
		if !reflect.DeepEqual(got.Chains[i], base.Chains[i]) {
			t.Errorf("%s workers=%d: chain %d differs\n got %+v\nwant %+v",
				name, workers, i, got.Chains[i], base.Chains[i])
		}
	}
}

// TestPipelineDeterministicAcrossWorkerCounts runs every Table IX
// component plus the Spring scene at several worker counts and requires
// output identical to the sequential (Workers: 1) run — including graph
// node IDs inside chains, which pins down batch ID assignment too.
func TestPipelineDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus determinism sweep")
	}
	scenarios := fullCorpus(t)

	// Both gate modes of the serialization-dispatch pass are under the
	// same contract: worker count may never change output.
	modes := []struct {
		name     string
		dispatch bool
	}{{"gate-off", false}, {"gate-on", true}}
	for _, sc := range scenarios {
		sc := sc
		for _, mode := range modes {
			mode := mode
			t.Run(sc.name+"/"+mode.name, func(t *testing.T) {
				base := runPipelineMode(t, sc.archives, 1, mode.dispatch)
				if len(base.Chains) == 0 && sc.name != "scene/Spring" {
					// Components in the corpus are expected to yield chains;
					// an empty baseline would make the comparison vacuous.
					t.Logf("note: baseline found no chains for %s", sc.name)
				}
				for _, workers := range []int{2, 4} {
					got := runPipelineMode(t, sc.archives, workers, mode.dispatch)
					assertIdentical(t, sc.name, base, got, workers)
				}
			})
		}
	}
}

// TestPipelineDeterministicDefaultWorkers checks the unset (GOMAXPROCS)
// worker count against the sequential path on one component, since the
// default is what every CLI run uses.
func TestPipelineDeterministicDefaultWorkers(t *testing.T) {
	comps := corpus.Components()
	archives := append([]javasrc.ArchiveSource{corpus.RT()}, comps[0].Archives...)
	base := runPipeline(t, archives, 1)
	got := runPipeline(t, archives, 0)
	assertIdentical(t, "component/"+comps[0].Name+"/default", base, got, 0)
}
