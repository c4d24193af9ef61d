package core

import (
	"strings"
	"testing"

	"tabby/internal/corpus"
	"tabby/internal/cpg"
	"tabby/internal/cypher"
	"tabby/internal/graphdb"
	"tabby/internal/javasrc"
	"tabby/internal/sinks"
)

// TestCypherOverBuiltCPG runs researcher-style queries over a real CPG.
func TestCypherOverBuiltCPG(t *testing.T) {
	engine := New(Options{})
	rep, err := engine.AnalyzeSources([]javasrc.ArchiveSource{corpus.RT()})
	if err != nil {
		t.Fatal(err)
	}
	db := rep.Graph.DB

	res, err := cypher.Run(db, `MATCH (m:Method {IS_SINK: true}) RETURN COUNT(*)`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].(int); n == 0 {
		t.Error("no sinks visible to cypher")
	}

	res, err = cypher.Run(db, `MATCH (c:Class {NAME: "java.util.HashMap"})-[:HAS]->(m:Method) RETURN m.METHOD_NAME`)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, row := range res.Rows {
		if s, ok := row[0].(string); ok {
			found[s] = true
		}
	}
	if !found["readObject"] || !found["hash"] {
		t.Errorf("HashMap methods via cypher = %v", found)
	}

	// The URLDNS backbone as a single variable-length query.
	res, err = cypher.Run(db, `MATCH (src:Method {IS_SOURCE: true})-[:CALL*1..3]->(h:Method {METHOD_NAME: "hashCode"}) RETURN src.NAME, h.NAME`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("variable-length query over CPG found nothing")
	}
}

// TestXStreamSourcesWidenDetection: with the XStream mechanism, a
// non-serializable class whose toString fires a sink becomes a chain head
// even without implementing Serializable.
func TestXStreamSourcesWidenDetection(t *testing.T) {
	src := javasrc.ArchiveSource{Name: "x.jar", Files: []javasrc.File{{Name: "x.java", Source: `
package x;
public class Renderer {
    public String template;
    public String toString() {
        java.lang.Process p = java.lang.Runtime.getRuntime().exec(this.template);
        return this.template;
    }
}
`}}}

	native := New(Options{})
	repNative, err := native.AnalyzeSources([]javasrc.ArchiveSource{corpus.RT(), src})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range repNative.Chains {
		if strings.HasPrefix(c.Names[0], "x.Renderer#toString") {
			t.Fatal("native mechanism must not treat toString as a source")
		}
	}

	xstream := New(Options{Sources: sinks.XStreamSources()})
	repX, err := xstream.AnalyzeSources([]javasrc.ArchiveSource{corpus.RT(), src})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range repX.Chains {
		if strings.HasPrefix(c.Names[0], "x.Renderer#toString") {
			found = true
		}
	}
	if !found {
		t.Fatal("XStream mechanism must accept the toString-rooted chain")
	}
}

// TestChainWellFormedness is a structural property check over every
// chain found in the runtime corpus: source first, sink last, and every
// consecutive pair connected by a CALL (callee→caller reversed) or ALIAS
// relationship in the graph.
func TestChainWellFormedness(t *testing.T) {
	engine := New(Options{})
	rep, err := engine.AnalyzeSources([]javasrc.ArchiveSource{corpus.RT()})
	if err != nil {
		t.Fatal(err)
	}
	db := rep.Graph.DB
	connected := func(a, b graphdb.ID) bool {
		// Forward CALL a→b, or ALIAS either way.
		for _, rid := range db.Rels(a, graphdb.DirOut, cpg.RelCall) {
			if db.Rel(rid).End == b {
				return true
			}
		}
		for _, rid := range db.Rels(a, graphdb.DirBoth, cpg.RelAlias) {
			if db.Rel(rid).Other(a) == b {
				return true
			}
		}
		return false
	}
	for _, c := range rep.Chains {
		if len(c.Nodes) < 2 {
			t.Fatalf("degenerate chain %v", c.Names)
		}
		if v, _ := db.NodeProp(c.Nodes[0], cpg.PropIsSource); v != true {
			t.Errorf("chain head not a source: %s", c.Names[0])
		}
		if v, _ := db.NodeProp(c.Nodes[len(c.Nodes)-1], cpg.PropIsSink); v != true {
			t.Errorf("chain tail not a sink: %s", c.Names[len(c.Names)-1])
		}
		for i := 0; i+1 < len(c.Nodes); i++ {
			if !connected(c.Nodes[i], c.Nodes[i+1]) {
				t.Errorf("chain gap between %s and %s", c.Names[i], c.Names[i+1])
			}
		}
		if len(c.TCs) != len(c.Nodes) {
			t.Errorf("TC trace length mismatch: %d vs %d", len(c.TCs), len(c.Nodes))
		}
	}
}
