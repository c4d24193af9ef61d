package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"tabby/internal/backend"
	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/javasrc"
	"tabby/internal/searchindex"
	"tabby/internal/store"
)

// equivalenceQueries exercises every execution route a backend can
// take: index-planned streams, aggregates and ORDER BY (plan Run),
// property residuals that force the generic store, procedures and
// EXPLAIN (full materialization), and the interpreter fallback.
var equivalenceQueries = []string{
	`MATCH (m:Method) RETURN COUNT(*)`,
	`MATCH (m:Method {IS_SINK: true}) RETURN m.NAME, m.SINK_TYPE`,
	`MATCH (m:Method {IS_SOURCE: true}) RETURN m.NAME LIMIT 10`,
	`MATCH (m:Method) WHERE m.NAME CONTAINS "readObject" RETURN m.NAME ORDER BY m.NAME`,
	`MATCH (a:Method)-[:CALL]->(b:Method) WHERE b.IS_SINK = true RETURN a.NAME, b.NAME`,
	`MATCH (c:Class)-[:HAS]->(m:Method) WHERE m.IS_SINK = true RETURN c.NAME, m.NAME`,
	`MATCH (c:Class)-[:EXTEND]->(p:Class) RETURN p.NAME, COUNT(c) ORDER BY COUNT(c) DESC LIMIT 10`,
	`MATCH (a)-[:ALIAS]-(b) RETURN a.NAME, b.NAME LIMIT 40`,
	`MATCH (m:Method) WHERE m.IS_SOURCE = true OR m.IS_SINK = true RETURN COUNT(*)`,
	`MATCH (a:Method)-[:CALL*1..2]->(b:Method {IS_SINK: true}) RETURN b.NAME LIMIT 5`,
	`EXPLAIN MATCH (m:Method {IS_SINK: true}) RETURN m.NAME`,
	`CALL tabby.sinks`,
	`CALL tabby.sources`,
	`MATCH (m:Method {IS_SINK: true}) RETURN m.NAME SKIP 2 LIMIT 3`,
	`MATCH (m:Method) RETURN DISTINCT m.SINK_TYPE`,
}

// equivalenceChains covers seed selection by default sinks, by type, by
// name (including the no-match error path), and source filtering — at
// both search worker counts.
func equivalenceChains(workers int) []map[string]any {
	return []map[string]any{
		{"graph": "g", "max_depth": 12, "workers": workers},
		{"graph": "g", "max_depth": 12, "workers": workers, "sink_type": "EXEC"},
		{"graph": "g", "max_depth": 12, "workers": workers, "sink_type": "JNDI"},
		{"graph": "g", "max_depth": 10, "workers": workers, "source_names": []string{"readObject"}},
		{"graph": "g", "max_depth": 12, "workers": workers, "sink_names": []string{"com.nosuch.Klass#nope()"}},
	}
}

// TestBackendsAnswerIdenticallyOnCorpus pins the two storage backends
// against each other over every Table IX component plus the Spring
// scene: the same snapshot served heap-resident (upload path) and as a
// zero-copy mmap view must produce byte-identical /v1/query and
// /v1/chains responses — status codes, rows, rendered text, and error
// bodies — with CPGs built and searches run at workers 1 and 2.
func TestBackendsAnswerIdenticallyOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus backend equivalence sweep")
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

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				engine := core.New(core.Options{Workers: workers})
				rep, err := engine.AnalyzeSources(sc.archives)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(t.TempDir(), "g.tsnap")
				f, err := os.Create(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := engine.SaveSnapshot(f, rep, "g", sc.name); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}

				// Heap side: the pre-backend read path — full parse, Registry.Add.
				memSrv := New(Options{Workers: workers})
				defer memSrv.Close()
				snap, err := store.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := memSrv.Registry().Add("g", snap); err != nil {
					t.Fatal(err)
				}
				// Mmap side: the tabby-server file path — zero-copy when the
				// host supports it.
				mmapSrv := New(Options{Workers: workers})
				defer mmapSrv.Close()
				if _, err := mmapSrv.LoadSnapshotFile(path); err != nil {
					t.Fatal(err)
				}
				be, err := mmapSrv.Registry().Get("g")
				if err != nil {
					t.Fatal(err)
				}
				if searchindex.LayoutSupported() && be.Kind() != backend.KindMmap {
					t.Fatalf("snapshot file opened as %q, want %q", be.Kind(), backend.KindMmap)
				}

				memTS := httptest.NewServer(memSrv.Handler())
				mmapTS := httptest.NewServer(mmapSrv.Handler())

				for _, query := range equivalenceQueries {
					req := map[string]any{"graph": "g", "query": query}
					memCode, memBody := postJSON(t, memTS.URL+"/v1/query", req)
					mmapCode, mmapBody := postJSON(t, mmapTS.URL+"/v1/query", req)
					if memCode != mmapCode || !bytes.Equal(memBody, mmapBody) {
						t.Errorf("workers=%d query %q diverged:\nmem  %d: %s\nmmap %d: %s",
							workers, query, memCode, memBody, mmapCode, mmapBody)
					}
				}
				for _, req := range equivalenceChains(workers) {
					memCode, memBody := postJSON(t, memTS.URL+"/v1/chains", req)
					mmapCode, mmapBody := postJSON(t, mmapTS.URL+"/v1/chains", req)
					if memCode != mmapCode || !bytes.Equal(memBody, mmapBody) {
						t.Errorf("workers=%d chains %v diverged:\nmem  %d: %s\nmmap %d: %s",
							workers, req, memCode, memBody, mmapCode, mmapBody)
					}
				}

				memTS.Close()
				mmapTS.Close()
			}
		})
	}
}

// TestExplainStaysOnIndex: EXPLAIN plans from the compiled index alone,
// so every form of it — a planned MATCH, an interpreter fallback and a
// procedure call — answers over an mmap view without parsing the
// snapshot, byte-identical to the heap backend.
func TestExplainStaysOnIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.tsnap")
	if err := store.WriteFile(path, rtSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	memSrv := New(Options{Workers: 1})
	t.Cleanup(memSrv.Close)
	snap, err := store.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := memSrv.Registry().Add("rt", snap); err != nil {
		t.Fatal(err)
	}
	mmapSrv := New(Options{Workers: 1})
	t.Cleanup(mmapSrv.Close)
	if _, err := mmapSrv.LoadSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	memTS := httptest.NewServer(memSrv.Handler())
	defer memTS.Close()
	mmapTS := httptest.NewServer(mmapSrv.Handler())
	defer mmapTS.Close()

	for query, want := range map[string]string{
		`EXPLAIN MATCH (a:Method)-[:CALL]->(b:Method) WHERE b.IS_SINK = true RETURN a.NAME, b.NAME`: "plan: indexed",
		`EXPLAIN MATCH (a:Method)-[:CALL*1..2]->(b:Method {IS_SINK: true}) RETURN b.NAME`:           "plan: interpreter —",
		`EXPLAIN CALL tabby.sinks()`: "plan: procedure call",
	} {
		req := map[string]any{"graph": "rt", "query": query}
		memCode, memBody := postJSON(t, memTS.URL+"/v1/query", req)
		mmapCode, mmapBody := postJSON(t, mmapTS.URL+"/v1/query", req)
		if memCode != http.StatusOK || mmapCode != memCode || !bytes.Equal(memBody, mmapBody) {
			t.Errorf("%q diverged:\nmem  %d: %s\nmmap %d: %s", query, memCode, memBody, mmapCode, mmapBody)
		}
		if !bytes.Contains(mmapBody, []byte(want)) {
			t.Errorf("%q: plan %s lacks %q", query, mmapBody, want)
		}
	}
	be, err := mmapSrv.Registry().Get("rt")
	if err != nil {
		t.Fatal(err)
	}
	if searchindex.LayoutSupported() && (be.Kind() != backend.KindMmap || be.Loaded()) {
		t.Errorf("after EXPLAIN: backend %q loaded=%v, want an unloaded %q view", be.Kind(), be.Loaded(), backend.KindMmap)
	}
}
