package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// stallServer builds a server whose analyze builds block until release
// is closed — the instrument for every "while a build is running"
// assertion. Jobs whose name contains "boom" panic instead, exercising
// the worker's panic confinement.
func stallServer(t *testing.T, opts Options, release <-chan struct{}) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	t.Cleanup(s.Close)
	s.jobs.buildHook = func(j *job) {
		if strings.Contains(j.name, "boom") {
			panic("injected build panic")
		}
		if release != nil {
			<-release
		}
	}
	if _, err := s.Registry().Add("rt", rtSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// pollJob fetches a job until cond holds (or times out).
func pollJob(t *testing.T, url, id string, cond func(jobJSON) bool) jobJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := getJSON(t, url+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s = %d: %s", id, code, body)
		}
		var j jobJSON
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		if cond(j) {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %+v", id, j)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobLifecycle pins the async contract: submission answers 202
// with a job id and Location header while the build runs elsewhere;
// polling walks queued/running to done; the finished job names a
// servable graph; and the job list includes it.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	data, _ := json.Marshal(analyzeReq("lifecycle", false))
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	var sub jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("analyze submit = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+sub.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, sub.ID)
	}
	if sub.ID == "" || (sub.Status != "queued" && sub.Status != "running") {
		t.Fatalf("submission = %+v", sub)
	}

	done := pollJob(t, ts.URL, sub.ID, func(j jobJSON) bool { return j.Status == "done" || j.Status == "failed" })
	if done.Status != "done" || done.Graph != "lifecycle" || done.Chains == 0 || done.Stats == nil {
		t.Fatalf("finished job = %+v", done)
	}

	// The graph the job names is servable.
	code, body := postJSON(t, ts.URL+"/v1/chains", map[string]any{"graph": done.Graph})
	if code != http.StatusOK {
		t.Fatalf("chains on job result = %d: %s", code, body)
	}

	// The job list carries it, and unknown ids 404.
	code, body = getJSON(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK || !strings.Contains(string(body), `"`+sub.ID+`"`) {
		t.Errorf("GET /v1/jobs = %d: %s", code, body)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", code)
	}
}

// TestAnalyzeDoesNotBlockQueries is the serving SLO in miniature: with
// a build stalled mid-flight on the only analyze worker, /v1/query and
// /v1/chains must answer normally.
func TestAnalyzeDoesNotBlockQueries(t *testing.T) {
	release := make(chan struct{})
	_, ts := stallServer(t, Options{Workers: 1}, release)

	code, body := postJSON(t, ts.URL+"/v1/analyze", analyzeReq("stalled", false))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var sub jobJSON
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, sub.ID, func(j jobJSON) bool { return j.Status == "running" })

	// The build is now provably in flight and will stay there until
	// released; the read path must be unaffected.
	code, body = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"graph": "rt", "query": `MATCH (m:Method {IS_SINK: true}) RETURN m.NAME LIMIT 3`,
	})
	if code != http.StatusOK {
		t.Errorf("query during build = %d: %s", code, body)
	}
	code, body = postJSON(t, ts.URL+"/v1/chains", map[string]any{"graph": "rt"})
	if code != http.StatusOK {
		t.Errorf("chains during build = %d: %s", code, body)
	}
	if j, ok := pollStatus(t, ts.URL, sub.ID); !ok || j != "running" {
		t.Errorf("job status after queries = %q, want still running", j)
	}

	close(release)
	pollJob(t, ts.URL, sub.ID, func(j jobJSON) bool { return j.Status == "done" })
}

// pollStatus reads one job's current status without waiting.
func pollStatus(t *testing.T, url, id string) (string, bool) {
	t.Helper()
	code, body := getJSON(t, url+"/v1/jobs/"+id)
	if code != http.StatusOK {
		return "", false
	}
	var j jobJSON
	if err := json.Unmarshal(body, &j); err != nil {
		return "", false
	}
	return j.Status, true
}

// TestConcurrentIdenticalAnalyzesBuildOnce pins singleflight: N
// concurrent identical submissions perform exactly one build; everyone
// gets the same finished graph.
func TestConcurrentIdenticalAnalyzesBuildOnce(t *testing.T) {
	release := make(chan struct{})
	s, ts := stallServer(t, Options{Workers: 1}, release)

	const submitters = 8
	var wg sync.WaitGroup
	results := make([]jobJSON, submitters)
	errs := make(chan error, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, err := tryPostJSON(ts.URL+"/v1/analyze", analyzeReq("shared", true))
			if err != nil || code != http.StatusOK {
				errs <- fmt.Errorf("submitter %d: %d %s (%v)", i, code, body, err)
				return
			}
			if err := json.Unmarshal(body, &results[i]); err != nil {
				errs <- err
			}
		}(i)
	}

	// Release the stalled build only once every submission has either
	// coalesced into it or resolved from its result; then the waiters
	// drain.
	deadline := time.Now().Add(30 * time.Second)
	for {
		s.jobs.mu.Lock()
		merged := s.jobs.coalescedN + s.jobs.resultHits
		s.jobs.mu.Unlock()
		if merged >= submitters-1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i, r := range results {
		if r.Status != "done" || r.Graph != "shared" {
			t.Errorf("submitter %d got %+v", i, r)
		}
	}
	if got := s.Builds(); got != 1 {
		t.Errorf("%d concurrent identical submissions ran %d builds, want exactly 1", submitters, got)
	}
	// And the shared cache saw exactly one cold compile: a second,
	// different corpus reuses the runtime's artifacts.
	code, body := postJSON(t, ts.URL+"/v1/analyze", analyzeReq("shared2", true))
	if code != http.StatusOK {
		t.Fatalf("followup analyze = %d: %s", code, body)
	}
	var followup jobJSON
	if err := json.Unmarshal(body, &followup); err != nil {
		t.Fatal(err)
	}
	if followup.Cache == nil || followup.Cache.ParseHits == 0 {
		t.Errorf("followup build reused nothing: %+v", followup.Cache)
	}
}

// TestAnalyzeQueueOverflow pins the 429 backpressure contract: with
// the build worker stalled and a one-slot queue, a third distinct build is
// rejected, and the rejection is counted.
func TestAnalyzeQueueOverflow(t *testing.T) {
	release := make(chan struct{})
	_, ts := stallServer(t, Options{Workers: 1, AnalyzeQueue: 1}, release)
	defer close(release)

	code, body := postJSON(t, ts.URL+"/v1/analyze", analyzeReq("q1", false))
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", code, body)
	}
	var first jobJSON
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	// Wait until the worker owns q1, so q2 occupies the queue's only slot.
	pollJob(t, ts.URL, first.ID, func(j jobJSON) bool { return j.Status == "running" })

	q2 := analyzeReq("q2", false)
	q2["max_depth"] = 11 // distinct fingerprint, no coalescing
	if code, body := postJSON(t, ts.URL+"/v1/analyze", q2); code != http.StatusAccepted {
		t.Fatalf("second submit = %d: %s", code, body)
	}
	q3 := analyzeReq("q3", false)
	q3["max_depth"] = 10
	code, body = postJSON(t, ts.URL+"/v1/analyze", q3)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429: %s", code, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "queue full") {
		t.Errorf("429 body = %s", body)
	}

	code, body = getJSON(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", code)
	}
	var st serverStatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Jobs.Rejected != 1 || st.Jobs.QueueCap != 1 {
		t.Errorf("job stats = %+v, want rejected=1 queue_cap=1", st.Jobs)
	}
}

// TestFailedAndPanickingBuilds: a build that errors surfaces the error
// on the failed job; a build that panics fails its job with the panic
// message and the worker survives to run the next build.
func TestFailedAndPanickingBuilds(t *testing.T) {
	_, ts := stallServer(t, Options{Workers: 1}, nil)

	bad := map[string]any{
		"name": "broken",
		"wait": true,
		"files": []map[string]string{{
			"name":   "Broken.java",
			"source": "this is not java at all %%%",
		}},
	}
	code, body := postJSON(t, ts.URL+"/v1/analyze", bad)
	if code != http.StatusOK {
		t.Fatalf("failed analyze = %d: %s", code, body)
	}
	var failed jobJSON
	if err := json.Unmarshal(body, &failed); err != nil {
		t.Fatal(err)
	}
	if failed.Status != "failed" || !strings.Contains(failed.Error, "analyze failed") {
		t.Errorf("failed job = %+v", failed)
	}
	// The name was released: the registry never saw the graph.
	if code, _ := postJSON(t, ts.URL+"/v1/chains", map[string]any{"graph": "broken"}); code != http.StatusNotFound {
		t.Errorf("failed build registered a graph anyway (chains = %d)", code)
	}

	// Panic confinement: the hook panics for this name.
	code, body = postJSON(t, ts.URL+"/v1/analyze", analyzeReq("boom", true))
	if code != http.StatusOK {
		t.Fatalf("panicking analyze = %d: %s", code, body)
	}
	var panicked jobJSON
	if err := json.Unmarshal(body, &panicked); err != nil {
		t.Fatal(err)
	}
	if panicked.Status != "failed" || !strings.Contains(panicked.Error, "panicked") {
		t.Errorf("panicked job = %+v", panicked)
	}

	// The (sole) worker survived both: a healthy build still completes.
	code, body = postJSON(t, ts.URL+"/v1/analyze", analyzeReq("healthy", true))
	if code != http.StatusOK {
		t.Fatalf("post-panic analyze = %d: %s", code, body)
	}
	var ok jobJSON
	if err := json.Unmarshal(body, &ok); err != nil {
		t.Fatal(err)
	}
	if ok.Status != "done" || ok.Graph != "healthy" {
		t.Errorf("post-panic job = %+v", ok)
	}
}
