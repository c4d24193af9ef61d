package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/javasrc"
	"tabby/internal/searchindex"
	"tabby/internal/store"
)

// rtSnapshot builds the URLDNS (modeled runtime) snapshot through the
// real save/load path, so server tests exercise exactly what
// tabby-server serves after `tabby -save`.
func rtSnapshot(t *testing.T) *store.Snapshot {
	t.Helper()
	engine := core.New(core.Options{Workers: 1})
	rep, err := engine.AnalyzeSources([]javasrc.ArchiveSource{corpus.RT()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := engine.SaveSnapshot(&buf, rep, "rt", "modeled runtime"); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{Workers: 1})
	t.Cleanup(s.Close)
	if _, err := s.Registry().Add("rt", rtSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// tryPostJSON is the goroutine-safe request helper (no *testing.T, so
// the concurrency test can use it off the test goroutine).
func tryPostJSON(url string, body any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	return tryPostRaw(url, data)
}

// tryPostRaw POSTs body as it is and returns the status and response.
func tryPostRaw(url string, body []byte) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	code, out, err := tryPostJSON(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestGraphsAndStatsEndpoints(t *testing.T) {
	_, ts := newTestServer(t)

	code, body := getJSON(t, ts.URL+"/v1/graphs")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/graphs = %d: %s", code, body)
	}
	var graphs graphsResponse
	if err := json.Unmarshal(body, &graphs); err != nil {
		t.Fatal(err)
	}
	if len(graphs.Graphs) != 1 || graphs.Graphs[0].ID != "rt" {
		t.Errorf("graphs = %+v", graphs.Graphs)
	}
	if graphs.Graphs[0].Nodes == 0 || graphs.Graphs[0].Rels == 0 {
		t.Errorf("graph info missing sizes: %+v", graphs.Graphs[0])
	}

	code, body = getJSON(t, ts.URL+"/v1/graphs/rt/stats")
	if code != http.StatusOK {
		t.Fatalf("GET stats = %d: %s", code, body)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Meta.Name != "rt" || st.Nodes == 0 || len(st.NodesByType) == 0 {
		t.Errorf("stats = %+v", st)
	}

	if code, _ = getJSON(t, ts.URL+"/v1/graphs/nope/stats"); code != http.StatusNotFound {
		t.Errorf("stats of unknown graph = %d, want 404", code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	code, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"graph": "rt",
		"query": `MATCH (m:Method {IS_SINK: true}) RETURN m.NAME LIMIT 3`,
	})
	if code != http.StatusOK {
		t.Fatalf("query = %d: %s", code, body)
	}
	var res queryResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || len(res.Rows) != 3 || !strings.Contains(res.Text, "m.NAME") {
		t.Errorf("query response = %+v", res)
	}

	for name, req := range map[string]map[string]any{
		"unknown graph": {"graph": "nope", "query": "MATCH (m) RETURN m"},
		"missing graph": {"query": "MATCH (m) RETURN m"},
		"empty query":   {"graph": "rt"},
		"bad query":     {"graph": "rt", "query": "NOT CYPHER"},
	} {
		code, body := postJSON(t, ts.URL+"/v1/query", req)
		if code == http.StatusOK {
			t.Errorf("%s: got 200: %s", name, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error response not JSON: %s", name, body)
		}
	}

	// Unknown fields are rejected so typos don't silently select defaults.
	if code, _ := postJSON(t, ts.URL+"/v1/query", map[string]any{"graph": "rt", "qerry": "x"}); code != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400", code)
	}
}

// TestQueryRowCap pins the MaxQueryRows contract: responses are cut off
// at the cap with truncated=true, queries that fit underneath it report
// truncated=false, and the default cap is high enough that ordinary
// queries never see it.
func TestQueryRowCap(t *testing.T) {
	s := New(Options{Workers: 1, MaxQueryRows: 2})
	t.Cleanup(s.Close)
	if _, err := s.Registry().Add("rt", rtSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	query := func(q string) queryResponse {
		t.Helper()
		code, body := postJSON(t, ts.URL+"/v1/query", map[string]any{"graph": "rt", "query": q})
		if code != http.StatusOK {
			t.Fatalf("query %q = %d: %s", q, code, body)
		}
		var res queryResponse
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	// The modeled runtime has far more than 2 methods.
	over := query(`MATCH (m:Method) RETURN m.NAME`)
	if !over.Truncated || len(over.Rows) != 2 {
		t.Errorf("over-cap: truncated=%v rows=%d, want true/2", over.Truncated, len(over.Rows))
	}
	if !strings.Contains(over.Text, "m.NAME") {
		t.Errorf("over-cap text lost header: %q", over.Text)
	}

	under := query(`MATCH (m:Method) RETURN m.NAME LIMIT 2`)
	if under.Truncated || len(under.Rows) != 2 {
		t.Errorf("at-cap: truncated=%v rows=%d, want false/2", under.Truncated, len(under.Rows))
	}

	agg := query(`MATCH (m:Method) RETURN COUNT(*)`)
	if agg.Truncated || len(agg.Rows) != 1 {
		t.Errorf("aggregate: truncated=%v rows=%d, want false/1", agg.Truncated, len(agg.Rows))
	}

	// Procedure results flow through the same cap.
	proc := query(`CALL tabby.sinks()`)
	if !proc.Truncated || len(proc.Rows) != 2 {
		t.Errorf("procedure: truncated=%v rows=%d, want true/2", proc.Truncated, len(proc.Rows))
	}
}

func TestChainsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	code, body := postJSON(t, ts.URL+"/v1/chains", map[string]any{"graph": "rt"})
	if code != http.StatusOK {
		t.Fatalf("chains = %d: %s", code, body)
	}
	var res chainsResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Chains) == 0 {
		t.Fatal("no chains on the URLDNS corpus")
	}
	for _, c := range res.Chains {
		if len(c.Names) == 0 || len(c.Names) != len(c.Nodes) || c.SinkType == "" {
			t.Errorf("malformed chain %+v", c)
		}
	}

	// Restricting to the SSRF sink type keeps only matching chains.
	code, body = postJSON(t, ts.URL+"/v1/chains", map[string]any{"graph": "rt", "sink_type": "SSRF"})
	if code != http.StatusOK {
		t.Fatalf("chains sink_type = %d: %s", code, body)
	}
	var ssrf chainsResponse
	if err := json.Unmarshal(body, &ssrf); err != nil {
		t.Fatal(err)
	}
	for _, c := range ssrf.Chains {
		if c.SinkType != "SSRF" {
			t.Errorf("sink_type filter leaked %q chain", c.SinkType)
		}
	}

	// Seeding from a named method with a TC override — the researcher
	// workflow for methods that are not registered sinks.
	code, body = postJSON(t, ts.URL+"/v1/chains", map[string]any{
		"graph":      "rt",
		"sink_names": []string{"getByName"},
		"tc":         []int{1},
	})
	if code != http.StatusOK {
		t.Fatalf("chains sink_names = %d: %s", code, body)
	}

	code, body = postJSON(t, ts.URL+"/v1/chains", map[string]any{
		"graph":      "rt",
		"sink_names": []string{"noSuchMethodAnywhere"},
	})
	if code != http.StatusBadRequest {
		t.Errorf("unknown sink name = %d: %s", code, body)
	}
}

// analyzeReq builds a minimal upload request; source varies the corpus
// (and therefore the result fingerprint) per test.
func analyzeReq(name string, wait bool) map[string]any {
	return map[string]any{
		"name": name,
		"wait": wait,
		"files": []map[string]string{{
			"name": "Job.java",
			"source": `
package app;
public class Job implements java.io.Serializable {
    public String cmd;
    private void readObject(java.io.ObjectInputStream in) {
        java.lang.Process p = java.lang.Runtime.getRuntime().exec(this.cmd);
    }
}
`,
		}},
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	s, ts := newTestServer(t)

	req := analyzeReq("uploaded", true)
	code, body := postJSON(t, ts.URL+"/v1/analyze", req)
	if code != http.StatusOK {
		t.Fatalf("analyze = %d: %s", code, body)
	}
	var res jobJSON
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != "done" || res.Graph != "uploaded" || res.Stats == nil || res.Stats.MethodNodes == 0 || res.Chains == 0 {
		t.Errorf("analyze response = %+v", res)
	}

	// The new graph is immediately queryable.
	code, body = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"graph": "uploaded",
		"query": `MATCH (m:Method {METHOD_NAME: "readObject"}) RETURN m.NAME`,
	})
	if code != http.StatusOK {
		t.Fatalf("query uploaded = %d: %s", code, body)
	}
	if !bytes.Contains(body, []byte("app.Job#readObject")) {
		t.Errorf("uploaded graph missing app method: %s", body)
	}

	// Re-uploading the identical corpus under the same name is not a
	// conflict any more: it resolves instantly from the result cache to
	// the existing graph, without building anything.
	builds := s.Builds()
	code, body = postJSON(t, ts.URL+"/v1/analyze", req)
	if code != http.StatusOK {
		t.Fatalf("repeat analyze = %d: %s", code, body)
	}
	var repeat jobJSON
	if err := json.Unmarshal(body, &repeat); err != nil {
		t.Fatal(err)
	}
	if repeat.Status != "done" || repeat.Graph != "uploaded" || !repeat.ResultCached {
		t.Errorf("repeat analyze = %+v, want done/result_cached", repeat)
	}
	if got := s.Builds(); got != builds {
		t.Errorf("repeat upload built again (%d builds, was %d)", got, builds)
	}

	// A *different* corpus under a taken name still conflicts.
	diff := analyzeReq("uploaded", true)
	diff["files"] = []map[string]string{{"name": "Other.java", "source": "package app; public class Other {}"}}
	if code, _ := postJSON(t, ts.URL+"/v1/analyze", diff); code != http.StatusConflict {
		t.Errorf("conflicting analyze = %d, want 409", code)
	}
	// Missing name / files are rejected.
	if code, _ := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"files": []map[string]string{}}); code != http.StatusBadRequest {
		t.Errorf("missing name = %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"name": "empty"}); code != http.StatusBadRequest {
		t.Errorf("missing files = %d, want 400", code)
	}
}

// TestAnalyzeBodyMemo pins the repeat-upload memo: a byte-identical
// repeat of a built body resolves from its raw-bytes digest without a
// build, a body that differs only in field order still resolves from
// the fingerprint-keyed result cache, and evicting the graph forgets
// the digest, so the same bytes build again.
func TestAnalyzeBodyMemo(t *testing.T) {
	s := New(Options{Workers: 1, MaxGraphs: 1})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	post := func(raw []byte) jobJSON {
		t.Helper()
		body, err := postOK(ts.URL+"/v1/analyze", raw)
		if err != nil {
			t.Fatal(err)
		}
		var j jobJSON
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		return j
	}
	req := analyzeReq("memo", true)
	raw := mustMarshal(t, req)
	if first := post(raw); first.Status != "done" || first.ResultCached {
		t.Fatalf("first upload = %+v, want a build", first)
	}
	builds := s.Builds()

	// Byte-identical repeat: resolved by digest, nothing built.
	repeat := post(raw)
	s.jobs.mu.Lock()
	_, memoized := s.jobs.bodies[sha256.Sum256(raw)]
	s.jobs.mu.Unlock()
	if !memoized {
		t.Fatal("a built body's digest is not remembered")
	}
	if !repeat.ResultCached || s.Builds() != builds {
		t.Fatalf("byte-identical repeat = %+v after %d builds (was %d)", repeat, s.Builds(), builds)
	}

	// Re-ordered fields: other bytes, same corpus — the decode path
	// resolves it by fingerprint to the same job JSON.
	reordered := mustMarshal(t, struct {
		Wait  bool   `json:"wait"`
		Files any    `json:"files"`
		Name  string `json:"name"`
	}{true, req["files"], "memo"})
	if bytes.Equal(reordered, raw) {
		t.Fatal("re-ordered body is byte-identical")
	}
	viaFP := post(reordered)
	if s.Builds() != builds {
		t.Errorf("re-ordered body built again")
	}
	repeat.ID, viaFP.ID = "", ""
	if !reflect.DeepEqual(repeat, viaFP) {
		t.Errorf("digest-resolved job %+v != fingerprint-resolved job %+v", repeat, viaFP)
	}

	// Evict "memo" by building another graph (MaxGraphs 1): the memo
	// entries go with its result, so the same bytes build again.
	if other := post(mustMarshal(t, analyzeReq("other", true))); other.ResultCached {
		t.Fatalf("other upload = %+v, want a build", other)
	}
	s.jobs.mu.Lock()
	left := len(s.jobs.bodies)
	s.jobs.mu.Unlock()
	if left != 1 {
		t.Errorf("%d body digests remembered after eviction, want only the new graph's", left)
	}
	builds = s.Builds()
	if again := post(raw); again.ResultCached || s.Builds() != builds+1 {
		t.Errorf("repeat after eviction = %+v with %d builds (was %d), want a fresh build", again, s.Builds(), builds)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestConcurrentRequestsAreIdentical hammers /v1/query and /v1/chains
// from many goroutines (run under -race via `make check`): every
// response must be byte-identical to the sequential baseline, because
// the stores are frozen and the search is deterministic.
func TestConcurrentRequestsAreIdentical(t *testing.T) {
	_, ts := newTestServer(t)

	queryReq := map[string]any{
		"graph": "rt",
		"query": `MATCH (m:Method {IS_SINK: true}) RETURN m.NAME, m.SINK_TYPE`,
	}
	chainsReq := map[string]any{"graph": "rt", "workers": 2}

	codeQ, baseQuery := postJSON(t, ts.URL+"/v1/query", queryReq)
	codeC, baseChains := postJSON(t, ts.URL+"/v1/chains", chainsReq)
	if codeQ != http.StatusOK || codeC != http.StatusOK {
		t.Fatalf("baseline status %d/%d", codeQ, codeC)
	}

	const goroutines = 12
	const iterations = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				code, got, err := tryPostJSON(ts.URL+"/v1/query", queryReq)
				if err != nil || code != http.StatusOK || !bytes.Equal(got, baseQuery) {
					errs <- fmt.Errorf("goroutine %d iter %d: query response diverged (status %d, err %v)", g, i, code, err)
					return
				}
				code, got, err = tryPostJSON(ts.URL+"/v1/chains", chainsReq)
				if err != nil || code != http.StatusOK || !bytes.Equal(got, baseChains) {
					errs <- fmt.Errorf("goroutine %d iter %d: chains response diverged (status %d, err %v)", g, i, code, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestChainsReusesCompiledIndex pins the index-caching contract the
// server relies on: the first /v1/chains request may compile the search
// index for the (frozen) snapshot store, and every later request must
// reuse that exact compiled artifact — no rebuild, same pointer.
func TestChainsReusesCompiledIndex(t *testing.T) {
	s, ts := newTestServer(t)

	req := map[string]any{"graph": "rt"}
	if code, body := postJSON(t, ts.URL+"/v1/chains", req); code != http.StatusOK {
		t.Fatalf("first chains = %d: %s", code, body)
	}

	be, err := s.Registry().Get("rt")
	if err != nil {
		t.Fatal("rt snapshot missing from registry")
	}
	db, err := be.DB()
	if err != nil {
		t.Fatal(err)
	}
	ix := searchindex.For(db) // cached by the first request
	builds := searchindex.Builds()

	if code, body := postJSON(t, ts.URL+"/v1/chains", req); code != http.StatusOK {
		t.Fatalf("second chains = %d: %s", code, body)
	}
	if got := searchindex.Builds(); got != builds {
		t.Errorf("second request recompiled the index (%d builds, was %d)", got, builds)
	}
	if searchindex.For(db) != ix {
		t.Error("second request replaced the cached index")
	}
}

func TestLoadSnapshotFile(t *testing.T) {
	s := New(Options{})
	t.Cleanup(s.Close)
	snap := rtSnapshot(t)
	path := t.TempDir() + "/rt.tsnap"
	if err := store.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	id, err := s.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if id != "rt" {
		t.Errorf("id = %q, want %q (the snapshot's stored name)", id, "rt")
	}
	if _, err := s.LoadSnapshotFile(t.TempDir() + "/missing.tsnap"); err == nil {
		t.Error("missing snapshot file must error")
	}
}
