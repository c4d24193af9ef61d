package pathfinder

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tabby/internal/cpg"
	"tabby/internal/graphdb"
	"tabby/internal/searchindex"
)

// bothEngines runs the same search through the indexed engine (Find) and
// the generic reference engine (FindGeneric), failing unless their
// chains and truncation agree, and returns the indexed result.
func bothEngines(t *testing.T, db *graphdb.DB, opts Options) (*Result, *Result) {
	t.Helper()
	indexed, err := Find(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	generic, err := FindGeneric(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if indexed.Truncated != generic.Truncated {
		t.Errorf("truncated: indexed=%v generic=%v", indexed.Truncated, generic.Truncated)
	}
	if !reflect.DeepEqual(indexed.Chains, generic.Chains) {
		t.Errorf("chains diverge\n indexed %+v\n generic %+v", indexed.Chains, generic.Chains)
	}
	return indexed, generic
}

// TestPositionEdgeCasesBothEngines drives Formula 4's rejection paths
// through full searches: a PP too short for the TC (position unbound at
// the call → ∞), an explicit ∞ (-1) position, and a negative TC position,
// on each engine.
func TestPositionEdgeCasesBothEngines(t *testing.T) {
	db := graphdb.New()
	sink := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{
		cpg.PropName: "sink", cpg.PropIsSink: true, cpg.PropSinkType: "EXEC",
		cpg.PropTriggerCondition: []int{2}, // requires argument 2
	})
	short := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{cpg.PropName: "short", cpg.PropIsSource: true})
	inf := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{cpg.PropName: "inf", cpg.PropIsSource: true})
	good := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{cpg.PropName: "good", cpg.PropIsSource: true})
	mustRel(t, db, cpg.RelCall, short, sink, graphdb.Props{cpg.PropPollutedPosition: []int{0, 0}})     // len 2: position 2 unbound
	mustRel(t, db, cpg.RelCall, inf, sink, graphdb.Props{cpg.PropPollutedPosition: []int{0, 0, -1}})   // position 2 is ∞
	mustRel(t, db, cpg.RelCall, good, sink, graphdb.Props{cpg.PropPollutedPosition: []int{-1, -1, 0}}) // position 2 controllable

	res, _ := bothEngines(t, db, Options{MaxDepth: 4})
	if len(res.Chains) != 1 || res.Chains[0].Names[0] != "good" {
		t.Fatalf("chains = %+v, want exactly good→sink", res.Chains)
	}

	// A negative TC position can only arrive via the SinkTC override; both
	// engines must reject every expansion (negative index is ∞), quietly.
	res, _ = bothEngines(t, db, Options{MaxDepth: 4, SinkNodes: []graphdb.ID{sink}, SinkTC: []int{-3}})
	if len(res.Chains) != 0 {
		t.Fatalf("negative TC position yielded chains: %+v", res.Chains)
	}
}

// TestAliasExpansionCountParity pins expansion accounting on ALIAS edges:
// a single ALIAS rel is visible from both endpoints (DirBoth) but each
// endpoint expands it exactly once per visit, identically in both
// engines. The graph has no memoization re-convergence, so even
// Expansions — which the engines may legitimately disagree on elsewhere —
// must match exactly here.
func TestAliasExpansionCountParity(t *testing.T) {
	db := graphdb.New()
	sink := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{
		cpg.PropName: "sink", cpg.PropIsSink: true, cpg.PropSinkType: "EXEC",
		cpg.PropTriggerCondition: []int{0},
	})
	impl := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{cpg.PropName: "impl"})
	decl := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{cpg.PropName: "decl"})
	src := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{cpg.PropName: "src", cpg.PropIsSource: true})
	mustRel(t, db, cpg.RelCall, impl, sink, graphdb.Props{cpg.PropPollutedPosition: []int{0}})
	mustRel(t, db, cpg.RelAlias, impl, decl, nil)
	mustRel(t, db, cpg.RelCall, src, decl, graphdb.Props{cpg.PropPollutedPosition: []int{0}})

	indexed, generic := bothEngines(t, db, Options{MaxDepth: 5})
	if len(indexed.Chains) != 1 {
		t.Fatalf("chains = %+v, want src→decl→impl→sink", indexed.Chains)
	}
	if indexed.Expansions != generic.Expansions {
		t.Errorf("expansions: indexed=%d generic=%d (ALIAS slot double-counted?)",
			indexed.Expansions, generic.Expansions)
	}
}

// TestMaxChainsVsVisitBudgetFlags distinguishes the two truncation
// causes: the MaxChains latch stops recording but does not blow the
// budget, while an exhausted budget truncates even with zero chains
// found. Both engines must agree on each.
func TestMaxChainsVsVisitBudgetFlags(t *testing.T) {
	f := buildFig6(t)

	// MaxChains: one chain recorded, truncated, and the generous budget
	// is untouched as a cause (chains still reported).
	res, _ := bothEngines(t, f.db, Options{MaxDepth: 5, MaxChains: 1})
	if len(res.Chains) != 1 || !res.Truncated {
		t.Errorf("MaxChains=1: chains=%d truncated=%v, want 1/true", len(res.Chains), res.Truncated)
	}

	// VisitBudget too small to reach any source: truncated with nothing
	// found.
	res, _ = bothEngines(t, f.db, Options{MaxDepth: 5, VisitBudget: 1})
	if len(res.Chains) != 0 || !res.Truncated {
		t.Errorf("VisitBudget=1: chains=%d truncated=%v, want 0/true", len(res.Chains), res.Truncated)
	}

	// Neither cap hit: not truncated.
	res, _ = bothEngines(t, f.db, Options{MaxDepth: 4})
	if res.Truncated {
		t.Error("uncapped search reported truncation")
	}
}

// TestSinkTCOverrideOnBareNode seeds the search from a node that carries
// no TRIGGER_CONDITION at all — only possible with the SinkTC override,
// which skips property validation (the RQ4 what-if workflow on stored
// graphs).
func TestSinkTCOverrideOnBareNode(t *testing.T) {
	db := graphdb.New()
	bare := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{cpg.PropName: "bare"})
	src := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{cpg.PropName: "src", cpg.PropIsSource: true})
	mustRel(t, db, cpg.RelCall, src, bare, graphdb.Props{cpg.PropPollutedPosition: []int{0, 0}})

	// Without the override the seed fails validation.
	if _, err := Find(db, Options{SinkNodes: []graphdb.ID{bare}}); err == nil {
		t.Fatal("bare sink without SinkTC must error")
	}

	// With it, both engines search from the bare node; the override is
	// normalized ([1,0,1] → [0,1]) before Formula 4 applies.
	res, _ := bothEngines(t, db, Options{
		MaxDepth: 4, SinkNodes: []graphdb.ID{bare}, SinkTC: []int{1, 0, 1},
	})
	if len(res.Chains) != 1 || res.Chains[0].Names[0] != "src" {
		t.Fatalf("chains = %+v, want src→bare", res.Chains)
	}
	if got := res.Chains[0].TCs[len(res.Chains[0].TCs)-1]; !reflect.DeepEqual(got, TC{0, 1}) {
		t.Errorf("seed TC = %v, want normalized [0 1]", got)
	}
	// SinkType is empty (the node has none), not an error.
	if res.Chains[0].SinkType != "" {
		t.Errorf("sink type = %q, want empty", res.Chains[0].SinkType)
	}
}

// TestNormalizeDoesNotMutateBacking is the regression test for the
// copy-on-write fix: normalize() used to sort its receiver in place,
// corrupting property slices owned by a shared (possibly frozen) store
// when two TCs aliased one backing array.
func TestNormalizeDoesNotMutateBacking(t *testing.T) {
	backing := []int{3, 1, 2, 1}
	a := TC(backing[:3]) // [3 1 2]
	b := TC(backing[1:]) // [1 2 1]

	na := a.normalize()
	nb := b.normalize()

	if !reflect.DeepEqual(backing, []int{3, 1, 2, 1}) {
		t.Fatalf("normalize mutated the shared backing array: %v", backing)
	}
	if !reflect.DeepEqual(na, TC{1, 2, 3}) || !reflect.DeepEqual(nb, TC{1, 2}) {
		t.Errorf("normalize results: %v, %v", na, nb)
	}

	// Already-normal input comes back as-is (no pointless copy).
	c := TC{0, 2, 5}
	if nc := c.normalize(); &nc[0] != &c[0] {
		t.Error("normalize copied an already-normal TC")
	}
}

// TestBadSinkSeedsError covers the two sink cases where the index's seed
// resolver and the oracle's store-backed one word their errors
// differently: a SinkNodes entry the graph does not hold, and a sink
// whose TRIGGER_CONDITION is not an []int (the index compiles no TC for
// it). Find and FindIndex must both return an error naming the sink —
// never panic, never search — whether the sink is passed explicitly or
// picked up by the default IS_SINK scan.
func TestBadSinkSeedsError(t *testing.T) {
	db := graphdb.New()
	good := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{
		cpg.PropName: "good", cpg.PropIsSink: true, cpg.PropTriggerCondition: []int{0},
	})
	stringTC := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{
		cpg.PropName: "stringTC", cpg.PropIsSink: true, cpg.PropTriggerCondition: "0",
	})
	floatsTC := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{
		cpg.PropName: "floatsTC", cpg.PropIsSink: true, cpg.PropTriggerCondition: []float64{0},
	})
	src := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{cpg.PropName: "src", cpg.PropIsSource: true})
	mustRel(t, db, cpg.RelCall, src, good, graphdb.Props{cpg.PropPollutedPosition: []int{0}})
	const absent graphdb.ID = 1 << 20
	db.Freeze()

	engines := map[string]func(Options) (*Result, error){
		"Find":      func(o Options) (*Result, error) { return Find(db, o) },
		"FindIndex": func(o Options) (*Result, error) { return FindIndex(searchindex.For(db), o) },
	}
	cases := []struct {
		name  string
		sinks []graphdb.ID // nil: default IS_SINK scan
		bad   graphdb.ID
	}{
		{"absent-from-index", []graphdb.ID{good, absent}, absent},
		{"string-TC", []graphdb.ID{good, stringTC}, stringTC},
		{"float-slice-TC", []graphdb.ID{floatsTC}, floatsTC},
		{"default-scan", nil, stringTC}, // first bad sink in node order
	}
	for _, c := range cases {
		for name, find := range engines {
			res, err := find(Options{SinkNodes: c.sinks})
			if err == nil {
				t.Errorf("%s/%s: no error (result %+v)", c.name, name, res)
				continue
			}
			if want := fmt.Sprintf("sink node %d has no %s", c.bad, cpg.PropTriggerCondition); !strings.Contains(err.Error(), want) {
				t.Errorf("%s/%s: error %q, want it to say %q", c.name, name, err, want)
			}
			if res != nil {
				t.Errorf("%s/%s: error with a non-nil result", c.name, name)
			}
		}
	}
	// The good sink alone still searches.
	if res, err := Find(db, Options{SinkNodes: []graphdb.ID{good}}); err != nil || len(res.Chains) != 1 {
		t.Fatalf("good sink: %v, %v", res, err)
	}
}
