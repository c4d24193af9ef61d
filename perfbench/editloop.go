package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/cpg"
	"tabby/internal/javasrc"
	"tabby/internal/jimple"
	"tabby/internal/pathfinder"
	"tabby/internal/searchindex"
	"tabby/internal/server"
	"tabby/internal/taint"
)

// editPlanSize is how many seeded edits one run cycles through. The
// server's caches never evict, so a bounded set of edits keeps the
// memory they hold bounded too.
const editPlanSize = 16

// nameRing is how many graph names the uploads cycle through: one more
// than the registry holds, so a name comes round again only after its
// graph was evicted (a name still registered is refused with 409).
// Unique names would make every file's fingerprint new — the archive is
// named after the graph — and grow the server's never-evicting compile
// cache by about 30 MB per upload.
const nameRing = server.DefaultMaxGraphs + 1

// analyzeFile and analyzeReq are the /v1/analyze wire format.
type analyzeFile struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

type analyzeReq struct {
	Name    string        `json:"name"`
	Files   []analyzeFile `json:"files"`
	Wait    bool          `json:"wait"`
	Workers int           `json:"workers"`
}

// jobOut is the part of the finished job the benchmark reads.
type jobOut struct {
	Status    string `json:"status"`
	Graph     string `json:"graph"`
	Error     string `json:"error"`
	ElapsedMs int64  `json:"elapsed_ms"`
	Cache     *struct {
		Files         int    `json:"files"`
		ParseHits     int    `json:"parse_hits"`
		BodyHits      int    `json:"body_hits"`
		TaintComps    int    `json:"taint_components"`
		TaintCompHits int    `json:"taint_component_hits"`
		GraphReuse    string `json:"graph_reuse"`
	} `json:"cache"`
}

// edit is one generated upload: a unique graph name and the corpus with
// one dead local inserted.
type edit struct {
	name  string
	files []javasrc.File
	body  []byte
}

func makeEdit(seed int64, i int, base []javasrc.File, plan []editSite) (edit, error) {
	e := edit{name: fmt.Sprintf("edit-%d-%d", seed, i%nameRing), files: applyEdit(base, plan[i%len(plan)], i%len(plan))}
	req := analyzeReq{Name: e.name, Wait: true, Workers: workers}
	for _, f := range e.files {
		req.Files = append(req.Files, analyzeFile{Name: f.Name, Source: f.Source})
	}
	var err error
	e.body, err = json.Marshal(req)
	return e, err
}

// upload runs one edit-loop operation over HTTP: analyze with wait, then
// the unfiltered chains of the new graph, checked against the oracle.
func upload(t *opTrace, ls *liveServer, r *run, e edit) (jobOut, error) {
	var job jobOut
	var raw, body []byte
	var err error
	t.do("http.analyze", func() { raw, err = ls.post("/v1/analyze", e.body) })
	if err != nil {
		return job, err
	}
	if err := json.Unmarshal(raw, &job); err != nil {
		return job, fmt.Errorf("decode job: %w", err)
	}
	if job.Status != "done" || job.Graph != e.name {
		return job, fmt.Errorf("job ended %q on graph %q: %s", job.Status, job.Graph, job.Error)
	}
	t.do("http.chains", func() {
		body, err = ls.post("/v1/chains", []byte(fmt.Sprintf(`{"graph":%q,"workers":%d}`, e.name, workers)))
	})
	if err != nil {
		return job, err
	}
	return job, r.orc.checkChainsBody(chainFilter{}, body)
}

// editLoop is a researcher's edit-and-reanalyze loop through the real
// server: each operation uploads the whole corpus as one archive with
// one seeded dead-local edit, waits for the build, then reads the new
// graph's chains. Graph names cycle through nameRing, and the chains
// read finishes before the next upload, since the registry keeps only
// eight graphs.
func editLoop(r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	base := uploadFiles()
	plan, err := editPlan(rng, base, editPlanSize)
	if err != nil {
		return err
	}
	r.note("input: one archive of %d files + RT, %d seeded edit sites (each compiles)", len(base), len(plan))

	var ls *liveServer
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		e, err := makeEdit(r.seed, 0, base, plan)
		if err != nil {
			return err
		}
		if ls != nil {
			ls.close()
		}
		t0 := time.Now()
		ls, err = startServer(server.New(server.Options{Workers: workers}))
		if err != nil {
			return err
		}
		_, err = upload(nil, ls, r, e)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			r.attempt("setup upload "+e.name, err)
		}
	}
	defer ls.close()
	r.set("setup_s", median(setups))

	// The replay's own cache, fed the same uploads as the server's.
	var replay *core.AnalysisCache
	if r.trace {
		replay = core.NewAnalysisCache()
		e, err := makeEdit(r.seed, 0, base, plan)
		if err != nil {
			return err
		}
		if _, err := replayEdit(nil, r.orc, replay, e); err != nil {
			return fmt.Errorf("replay warm-up: %w", err)
		}
	}

	var lats, traced, untraced, jobMs, parseHit, bodyHit, compHit, residual, httpMinusJob, replayParse, expansions []float64
	reused := 0
	var last *cpg.Graph
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops := 0
	for time.Since(start) < r.seconds {
		ops++
		e, err := makeEdit(r.seed, ops, base, plan)
		if err != nil {
			return err
		}
		var t *opTrace
		if r.trace && ops%2 == 0 {
			t = r.rec.begin(ops, "op")
		}
		t0 := time.Now()
		var job jobOut
		job, err = upload(t, ls, r, e)
		lat := time.Since(t0)
		r.attempt("upload "+e.name, err)
		if err != nil {
			t.end()
			continue
		}
		lats = append(lats, ms(lat))
		jobMs = append(jobMs, float64(job.ElapsedMs))
		if c := job.Cache; c != nil {
			parseHit = append(parseHit, ratio(float64(c.ParseHits), float64(c.Files)))
			bodyHit = append(bodyHit, ratio(float64(c.BodyHits), float64(c.Files)))
			compHit = append(compHit, ratio(float64(c.TaintCompHits), float64(c.TaintComps)))
			if c.GraphReuse == "delta" || c.GraphReuse == "unchanged" {
				reused++
			}
		}
		if !r.trace {
			continue
		}
		if t == nil {
			untraced = append(untraced, ms(lat))
		} else {
			traced = append(traced, ms(lat))
		}
		// The replay runs on every operation so its cache sees the same
		// upload sequence as the server's; only traced operations record it.
		var rp *replayOut
		t.do("replay", func() { rp, err = replayEdit(t, r.orc, replay, e) })
		t.end()
		r.attempt("replay "+e.name, err)
		if err == nil && t != nil {
			residual = append(residual, ms(lat)-ms(rp.layers))
			httpMinusJob = append(httpMinusJob, ms(lat)-float64(job.ElapsedMs))
			replayParse = append(replayParse, rp.parse)
			expansions = append(expansions, float64(rp.found.Expansions))
			last = rp.g
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	r.set("op_p50_ms", median(lats))
	r.set("ops_per_s", float64(ops)/elapsed.Seconds())
	r.latencyLine("edit_p50_ms", lats)
	r.latencyLine("server.job_ms", jobMs)
	r.note("edit ops/s %.3f over %.1f s (%d ops); median parse hits %.3f, body hits %.3f, taint component hits %.3f; %d of %d graphs reused by delta",
		float64(ops)/elapsed.Seconds(), elapsed.Seconds(), ops, median(parseHit), median(bodyHit), median(compHit), reused, len(lats))
	if err := ls.stats(r); err != nil {
		return err
	}
	if r.trace {
		sums := r.rec.summarize()
		layerTimes(r, sums)
		memPerOp(r, before, after, ops)
		r.set("javasrc.parse_hit_ratio", median(parseHit))
		r.set("javasrc.body_hit_ratio", median(bodyHit))
		r.set("taint.component_hit_ratio", median(compHit))
		r.set("cpg.graph_reuse_delta_share", ratio(float64(reused), float64(len(lats))))
		r.set("server.job_ms", median(jobMs))
		r.set("server.residual_ms", median(residual))
		r.set("pathfinder.expansions", median(expansions))
		if last != nil {
			st := last.DB.Stats()
			r.set("graphdb.nodes", float64(st.Nodes))
			r.set("graphdb.rels", float64(st.Rels))
			r.set("cpg.pruned_call_ratio", ratio(float64(last.Taint.PrunedCalls), float64(last.Taint.TotalCalls)))
		}
		r.note("server.residual_ms = HTTP operation minus the replayed layer calls: p50 %.3f ms (n=%d); HTTP operation minus the job's elapsed_ms: p50 %.3f ms; replay cache parse hits %.3f",
			median(residual), len(residual), median(httpMinusJob), median(replayParse))
		overhead(r, traced, untraced)
	}
	return nil
}

// replayOut is what one in-process replay of an edit produced.
type replayOut struct {
	g      *cpg.Graph
	found  *pathfinder.Result
	layers time.Duration // summed duration of the replayed layer calls
	parse  float64       // the replay cache's parse hit ratio
}

// replayEdit repeats, in process, the layer calls the server makes for
// one upload: the result fingerprint, the cached compile, the cached
// controllability analysis, graph assembly, index compilation, the
// job's chain search and the /v1/chains search. Archives are named the
// way the analyze handler names them: RT first, then <name>.jar. It
// checks the chains it finds against the oracle.
func replayEdit(t *opTrace, orc *oracle, cache *core.AnalysisCache, e edit) (*replayOut, error) {
	archives := []javasrc.ArchiveSource{corpus.RT(), {Name: e.name + ".jar", Files: e.files}}
	eng := core.New(core.Options{Workers: workers})
	out := &replayOut{}
	timed := func(name string, f func()) {
		t0 := time.Now()
		t.do(name, f)
		out.layers += time.Since(t0)
	}
	var (
		prog *jimple.Program
		res  *taint.Result
		err  error
	)
	timed("core.fingerprint", func() { eng.ResultFingerprint(archives) })
	var cst javasrc.CompileStats
	timed("javasrc.compile", func() {
		prog, cst, err = javasrc.CompileArchivesCached(archives, javasrc.CompileOptions{Workers: workers}, cache.Compile)
	})
	if err != nil {
		return nil, err
	}
	out.parse = ratio(float64(cst.ParseHits), float64(cst.Files))
	timed("taint.analyze", func() { res, _, err = taint.AnalyzeWithCache(prog, taint.Options{Workers: workers}, cache.Summaries) })
	if err != nil {
		return nil, err
	}
	timed("cpg.build", func() { out.g, err = cpg.BuildWithResult(prog, res, cpg.Options{Workers: workers}) })
	if err != nil {
		return nil, err
	}
	var ix *searchindex.Index
	timed("searchindex.compile", func() { ix = searchindex.For(out.g.DB) })
	// The job's own search, then the one behind the /v1/chains read.
	timed("pathfinder.find", func() { out.found, err = pathfinder.Find(out.g.DB, pathfinder.Options{Workers: workers}) })
	if err != nil {
		return nil, err
	}
	timed("pathfinder.find", func() { out.found, err = pathfinder.FindIndex(ix, pathfinder.Options{Workers: workers}) })
	if err != nil {
		return nil, err
	}
	return out, orc.checkChains(chainFilter{}, toChainOut(out.found.Chains), out.found.Truncated)
}
