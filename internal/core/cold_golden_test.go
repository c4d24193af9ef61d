package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tabby/internal/corpus"
	"tabby/internal/javasrc"
)

const coldGoldenPath = "testdata/cold_golden.txt"

// scenario is one corpus entry analyzed on its own, with the modeled
// runtime prepended.
type scenario struct {
	name     string
	archives []javasrc.ArchiveSource
}

// fullCorpus is every Table IX component plus the Spring scene: the
// corpus the cold-output golden, the incremental sweep and the
// cold-build gate run over.
func fullCorpus(t testing.TB) []scenario {
	t.Helper()
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
	return append(scenarios, scenario{
		name:     "scene/" + spring.Name,
		archives: append([]javasrc.ArchiveSource{corpus.RT()}, spring.Archives...),
	})
}

// coldGoldenSignature renders the full-corpus cold pipeline output in a
// stable line-based form: per scenario, the graph statistics, the call
// counters, and every chain key. The golden file pins this against the
// seed (pre-fast-path) pipeline, so hot-loop rewrites cannot drift the
// analysis output even in ways the worker-count determinism sweep would
// not catch (that sweep only compares the new code against itself).
func coldGoldenSignature(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, sc := range fullCorpus(t) {
		engine := New(Options{Workers: 1})
		rep, err := engine.AnalyzeSources(sc.archives)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		fmt.Fprintf(&sb, "== %s\n", sc.name)
		fmt.Fprintf(&sb, "stats %+v\n", rep.Graph.Stats)
		fmt.Fprintf(&sb, "calls %d/%d\n", rep.Graph.Taint.TotalCalls, rep.Graph.Taint.PrunedCalls)
		for _, c := range rep.Chains {
			fmt.Fprintf(&sb, "chain %s\n", c.Key())
		}
	}
	return sb.String()
}

// TestColdVsSeedGolden compares a sequential cold run of the full corpus
// against the recorded seed output. Regenerate with
// TABBY_UPDATE_GOLDEN=1 go test ./internal/core -run TestColdVsSeedGolden
// — but only after establishing that an output change is intended, since
// the cold fast path promises byte-identical analysis results.
func TestColdVsSeedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus cold run")
	}
	got := coldGoldenSignature(t)
	if os.Getenv("TABBY_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(coldGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(coldGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", coldGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(coldGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (%v); generate with TABBY_UPDATE_GOLDEN=1", err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("cold output diverged from seed golden at line %d:\n got %q\nwant %q", i+1, g, w)
			}
		}
		t.Fatal("cold output diverged from seed golden")
	}
}
