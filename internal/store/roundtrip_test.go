package store_test

// Round-trip invariants over the real evaluation corpus: saving a built
// CPG and loading it back must leave Cypher-lite queries, path-finder
// searches, and graph statistics byte-identical to the freshly built
// graph — the correctness contract that lets tabby-server answer for the
// pipeline. The full sweep covers every Table IX component plus the
// Spring scene (skipped under -short, like the core determinism sweep).

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/cypher"
	"tabby/internal/graphdb"
	"tabby/internal/javasrc"
	"tabby/internal/store"
)

// probeQueries is the query battery compared between fresh and loaded
// graphs; it touches label scans, FindNodes lookups, property filters,
// variable-length path expansion, aggregation, and the CALL procedures.
var probeQueries = []string{
	`MATCH (m:Method {IS_SINK: true}) RETURN m.NAME, m.SINK_TYPE`,
	`MATCH (m:Method {IS_SOURCE: true}) RETURN m.NAME LIMIT 25`,
	`MATCH (m:Method) RETURN m.IS_SINK, COUNT(*)`,
	`MATCH (c:Class)-[:HAS]->(m:Method {IS_SINK: true}) RETURN c.NAME, m.METHOD_NAME`,
	`CALL tabby.findGadgetChains(12)`,
	`CALL tabby.sinks()`,
	`CALL tabby.sources()`,
}

// queryDump renders the battery against one store; byte-equal output
// means every row, column, and ordering survived.
func queryDump(t *testing.T, g *store.Snapshot) string {
	t.Helper()
	var buf bytes.Buffer
	st := g.DB.Stats()
	fmt.Fprintf(&buf, "stats: %+v\n", st)
	for _, q := range probeQueries {
		res, err := cypher.RunAny(g.DB, q)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		fmt.Fprintf(&buf, "query> %s\n%s\n", q, res.Format())
	}
	return buf.String()
}

func roundTrip(t *testing.T, name string, archives []javasrc.ArchiveSource) {
	t.Helper()
	engine := core.New(core.Options{Workers: 1})
	rep, err := engine.AnalyzeSources(archives)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := engine.SaveSnapshot(&buf, rep, name, "round-trip corpus"); err != nil {
		t.Fatal(err)
	}
	snap, err := core.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// 1. Graph-level equality: the loaded store exports the same nodes
	//    and rels as the fresh one.
	if !reflect.DeepEqual(snap.DB.Export(), rep.Graph.DB.Export()) {
		t.Fatal("loaded graph export differs from fresh build")
	}

	// 2. Query-level equality: the formatted output of the probe battery
	//    is byte-identical.
	fresh := queryDump(t, &store.Snapshot{DB: rep.Graph.DB})
	loaded := queryDump(t, snap)
	if fresh != loaded {
		t.Errorf("query battery differs between fresh and loaded graph\nfresh:\n%s\nloaded:\n%s", fresh, loaded)
	}

	// 3. Search-level equality: the path finder over the loaded store
	//    reproduces the pipeline's chains exactly, and stays identical at
	//    every worker count.
	base, truncated, err := engine.FindChainsIn(snap.DB)
	if err != nil {
		t.Fatal(err)
	}
	if truncated != rep.Truncated {
		t.Errorf("truncated = %v on loaded store, %v fresh", truncated, rep.Truncated)
	}
	if !reflect.DeepEqual(base, rep.Chains) {
		t.Errorf("chains differ on loaded store\n got %+v\nwant %+v", base, rep.Chains)
	}
	for _, workers := range []int{2, 4} {
		w := core.New(core.Options{Workers: workers})
		got, _, err := w.FindChainsIn(snap.DB)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: chains on loaded snapshot differ from sequential", workers)
		}
	}

	// 4. Metadata: the snapshot carried the builder's counters.
	if snap.Meta.Stats != rep.Graph.Stats {
		t.Errorf("meta stats = %+v, want %+v", snap.Meta.Stats, rep.Graph.Stats)
	}
	if rep.Graph.Taint != nil && snap.Meta.TotalCalls != rep.Graph.Taint.TotalCalls {
		t.Errorf("meta total calls = %d, want %d", snap.Meta.TotalCalls, rep.Graph.Taint.TotalCalls)
	}

	// 5. Lookups: FindNodes, a label scan, returns the same ID list in the
	//    same (ascending) order as a brute-force filter over AllNodeIDs,
	//    on the fresh graph and on the loaded one.
	for _, g := range []struct {
		name string
		db   *graphdb.DB
	}{{"fresh", rep.Graph.DB}, {"loaded", snap.DB}} {
		for _, p := range findProbes(g.db) {
			var want []graphdb.ID
			for _, id := range g.db.AllNodeIDs() {
				n := g.db.Node(id)
				if v, ok := n.Props[p.prop]; ok && n.HasLabel(p.label) && v == p.value {
					want = append(want, id)
				}
			}
			if got := g.db.FindNodes(p.label, p.prop, p.value); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: FindNodes(%s, %s, %#v) = %v, want %v", g.name, p.label, p.prop, p.value, got, want)
			}
		}
	}
}

// TestRoundTripURLDNS always runs: the modeled runtime alone is the
// cheapest corpus with chains.
func TestRoundTripURLDNS(t *testing.T) {
	roundTrip(t, "urldns", []javasrc.ArchiveSource{corpus.RT()})
}

// TestRoundTripAllComponents sweeps every Table IX component plus the
// Spring scene.
func TestRoundTripAllComponents(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus round-trip sweep")
	}
	for _, comp := range corpus.Components() {
		comp := comp
		t.Run("component/"+comp.Name, func(t *testing.T) {
			roundTrip(t, comp.Name, append([]javasrc.ArchiveSource{corpus.RT()}, comp.Archives...))
		})
	}
	spring, err := corpus.SceneByName("Spring")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("scene/Spring", func(t *testing.T) {
		roundTrip(t, "Spring", append([]javasrc.ArchiveSource{corpus.RT()}, spring.Archives...))
	})
}

type findProbe struct {
	label, prop string
	value       any
}

// findProbes samples the lookups to check: both flag values of Method
// IS_SINK and IS_SOURCE, every 25th Method and Class NAME, and a NAME no
// node carries.
func findProbes(db *graphdb.DB) []findProbe {
	probes := []findProbe{
		{"Method", "IS_SINK", true}, {"Method", "IS_SINK", false},
		{"Method", "IS_SOURCE", true}, {"Method", "IS_SOURCE", false},
		{"Method", "NAME", "no.such.Klass#nope()"},
	}
	for _, label := range []string{"Method", "Class"} {
		for i, id := range db.NodesByLabel(label) {
			if v, ok := db.NodeProp(id, "NAME"); ok && i%25 == 0 {
				probes = append(probes, findProbe{label, "NAME", v})
			}
		}
	}
	return probes
}
