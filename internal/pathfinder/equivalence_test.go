package pathfinder_test

import (
	"reflect"
	"testing"

	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/javasrc"
	"tabby/internal/pathfinder"
)

// TestIndexedEngineMatchesGenericOnCorpus pins the compiled-index engine
// (pathfinder.Find) to the generic property-store oracle
// (pathfinder.FindGeneric, generic_test.go) on every Table IX component
// plus the Spring scene: identical chains — node IDs, names, TCs, sink
// types — in identical order, and identical truncation, at workers 1 and
// 2. The index may only change how fast the search runs, never what it
// finds.
func TestIndexedEngineMatchesGenericOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus equivalence sweep")
	}
	type scenario struct {
		name     string
		archives []javasrc.ArchiveSource
	}
	var scenarios []scenario
	for _, comp := range corpus.Components() {
		scenarios = append(scenarios, scenario{
			name:     "component/" + comp.Name,
			archives: append([]javasrc.ArchiveSource{corpus.RT()}, comp.Archives...),
		})
	}
	spring, err := corpus.SceneByName("Spring")
	if err != nil {
		t.Fatal(err)
	}
	scenarios = append(scenarios, scenario{
		name:     "scene/" + spring.Name,
		archives: append([]javasrc.ArchiveSource{corpus.RT()}, spring.Archives...),
	})

	engine := core.New(core.Options{Workers: 1})
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			prog, err := javasrc.CompileArchivesOpts(sc.archives, javasrc.CompileOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			g, _, err := engine.BuildCPG(prog)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				opts := pathfinder.Options{Workers: workers}
				want, err := pathfinder.FindGeneric(g.DB, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := pathfinder.Find(g.DB, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Truncated != want.Truncated {
					t.Errorf("workers=%d: truncated=%v, generic=%v", workers, got.Truncated, want.Truncated)
				}
				if len(got.Chains) != len(want.Chains) {
					t.Fatalf("workers=%d: %d chains, generic found %d", workers, len(got.Chains), len(want.Chains))
				}
				for i := range want.Chains {
					if !reflect.DeepEqual(got.Chains[i], want.Chains[i]) {
						t.Errorf("workers=%d: chain %d differs\n indexed %+v\n generic %+v",
							workers, i, got.Chains[i], want.Chains[i])
					}
				}
			}
		})
	}
}
