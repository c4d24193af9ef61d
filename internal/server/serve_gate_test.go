package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"tabby/internal/backend"
	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/javasrc"
	"tabby/internal/searchindex"
	"tabby/internal/store"
)

// gateConcurrency is how many requests the serve gate keeps in flight.
// Modest on purpose: the gate runs at GOMAXPROCS=1, where deep
// pipelines only measure scheduler queueing.
const gateConcurrency = 4

// TestServeGate is the gate behind `make bench-serve`: at GOMAXPROCS=1,
// over the whole Table IX component corpus,
//
//   - a repeat upload of an unchanged corpus (120 requests, 4 in flight)
//     must resolve at p50 at least 10x faster than a build (3 distinct
//     names, one at a time), and the repeats must build nothing;
//   - on every storage backend, cached /v1/query and /v1/chains bodies
//     must be byte-identical to cold (cache-disabled) ones, and the
//     cached p50 must not be slower than the cold p50 (heap backend);
//   - the response cache must hit at least half the cached requests.
//
// The thresholds are on latency percentiles under concurrency, which
// testing.Benchmark's mean per op cannot express, so the gate keeps its
// own request populations. Wall-clock assertions are load-sensitive, so
// the gate only arms when TABBY_BENCH_GATE is set.
func TestServeGate(t *testing.T) {
	if os.Getenv("TABBY_BENCH_GATE") == "" {
		t.Skip("set TABBY_BENCH_GATE=1 (make bench-serve) to run the timing gate")
	}
	const runs = 3
	var archives []javasrc.ArchiveSource
	for _, c := range corpus.Components() {
		archives = append(archives, c.Archives...)
	}

	// Analyze path: builds under distinct names (distinct fingerprints,
	// each a real build; the shared analysis cache warms across them),
	// then concurrent repeat uploads of the first body.
	s := New(Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var first []byte
	var buildLats []int64
	for i := 0; i < runs; i++ {
		body := gateAnalyzeBody(t, archives, fmt.Sprintf("serve-gate-%d", i))
		if i == 0 {
			first = body
		}
		t0 := time.Now()
		if err := gatePostAnalyze(ts.URL, body); err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		buildLats = append(buildLats, time.Since(t0).Nanoseconds())
	}
	repeatLats := fire(t, runs*40, func() error { return gatePostAnalyze(ts.URL, first) })
	build, repeat := p50(buildLats), p50(repeatLats)
	t.Logf("analyze: build p50 %v, repeat p50 %v (%.1fx), %d builds",
		time.Duration(build), time.Duration(repeat), float64(build)/float64(repeat), s.Builds())
	if got := s.Builds(); got != runs {
		t.Errorf("builds = %d, want exactly the %d distinct-name builds", got, runs)
	}
	if speedup := float64(build) / float64(repeat); speedup < 10 {
		t.Errorf("repeat-upload speedup %.1fx, gate requires >= 10x (build %dns, repeat %dns)", speedup, build, repeat)
	}

	// Read path: cold (cache off) vs cached, on every backend.
	path := filepath.Join(t.TempDir(), "g.tsnap")
	gateWriteSnapshot(t, append([]javasrc.ArchiveSource{corpus.RT()}, archives...), path)
	kinds := []string{backend.KindMem}
	if searchindex.LayoutSupported() {
		kinds = append(kinds, backend.KindMmap)
	}
	for _, kind := range kinds {
		_, coldURL := gateReadServer(t, kind, path, -1)
		warm, warmURL := gateReadServer(t, kind, path, 0)
		for _, op := range []struct {
			name string
			req  map[string]any
		}{
			{"query", map[string]any{"graph": "g", "query": `MATCH (m:Method) WHERE m.IS_SINK = true AND m.SINK_TYPE = "EXEC" RETURN m.NAME`}},
			{"chains", map[string]any{"graph": "g", "max_depth": 12, "workers": 1}},
		} {
			body := mustMarshal(t, op.req)
			post := func(url string) ([]byte, error) { return postOK(url+"/v1/"+op.name, body) }
			coldBody, err := post(coldURL)
			if err != nil {
				t.Fatal(err)
			}
			coldLats := fire(t, runs*40, func() error { _, err := post(coldURL); return err })
			// One request warms the cache; the hit must equal the
			// uncached body byte for byte.
			warmBody, err := post(warmURL)
			if err != nil {
				t.Fatal(err)
			}
			cachedBody, err := post(warmURL)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(coldBody, warmBody) || !bytes.Equal(coldBody, cachedBody) {
				t.Errorf("%s on %s: a cached response body diverged from its cold twin", op.name, kind)
			}
			cachedLats := fire(t, runs*40, func() error { _, err := post(warmURL); return err })
			cold, cached := p50(coldLats), p50(cachedLats)
			t.Logf("%s on %s: cold p50 %v, cached p50 %v", op.name, kind, time.Duration(cold), time.Duration(cached))
			// Both backends cache identically; the heap one is gated.
			if kind == backend.KindMem && cached > cold {
				t.Errorf("cached %s p50 is slower than cold: speedup %.2fx", op.name, float64(cold)/float64(cached))
			}
		}
		if kind == backend.KindMem {
			st := warm.resp.stats()
			var hits, misses int64
			for _, v := range st.Hits {
				hits += v
			}
			for _, v := range st.Misses {
				misses += v
			}
			if rate := float64(hits) / float64(max(hits+misses, 1)); rate < 0.5 {
				t.Errorf("response-cache hit rate %.2f, want >= 0.5 over the cached populations", rate)
			}
		}
	}
}

// gateAnalyzeBody marshals the corpus into a wait-mode /v1/analyze
// request under the given graph name.
func gateAnalyzeBody(t *testing.T, archives []javasrc.ArchiveSource, name string) []byte {
	var files []analyzeFile
	for _, ar := range archives {
		for _, f := range ar.Files {
			files = append(files, analyzeFile{Name: f.Name, Source: f.Source})
		}
	}
	return mustMarshal(t, map[string]any{"name": name, "files": files, "wait": true, "workers": 1})
}

// gatePostAnalyze fires one analyze request and checks the job finished.
func gatePostAnalyze(url string, body []byte) error {
	raw, err := postOK(url+"/v1/analyze", body)
	if err != nil {
		return err
	}
	var j jobJSON
	if err := json.Unmarshal(raw, &j); err != nil {
		return err
	}
	if j.Status != "done" {
		return fmt.Errorf("job ended %q: %s", j.Status, j.Error)
	}
	return nil
}

// postOK POSTs raw bytes and returns the response body, erroring on any
// status but 200.
func postOK(url string, body []byte) ([]byte, error) {
	code, out, err := tryPostRaw(url, body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s = %d: %s", url, code, out)
	}
	return out, nil
}

// gateWriteSnapshot builds the corpus graph once and saves it through
// the production snapshot path.
func gateWriteSnapshot(t *testing.T, archives []javasrc.ArchiveSource, path string) {
	engine := core.New(core.Options{Workers: 1})
	rep, err := engine.AnalyzeSources(archives)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.SaveSnapshot(f, rep, "g", "serve gate"); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// gateReadServer starts a server fronting the snapshot as graph "g" on
// the requested backend with the given response-cache budget.
func gateReadServer(t *testing.T, kind, path string, cacheBytes int64) (*Server, string) {
	s := New(Options{Workers: 1, RespCacheBytes: cacheBytes})
	t.Cleanup(s.Close)
	if kind == backend.KindMem {
		snap, err := store.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Registry().Add("g", snap); err != nil {
			t.Fatal(err)
		}
	} else if _, err := s.LoadSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// fire runs n requests with gateConcurrency in flight and returns each
// request's latency in nanoseconds. Like testing.Benchmark, it collects
// garbage first, so a GC cycle owed to earlier work does not land in
// the measured population.
func fire(t *testing.T, n int, req func() error) []int64 {
	runtime.GC()
	lats := make([]int64, n)
	errs := make(chan error, gateConcurrency)
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < gateConcurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= n {
					return
				}
				t0 := time.Now()
				if err := req(); err != nil {
					errs <- err
					return
				}
				lats[k] = time.Since(t0).Nanoseconds()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return lats
}

// p50 returns the nearest-rank median of lats.
func p50(lats []int64) int64 {
	sorted := append([]int64(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}
