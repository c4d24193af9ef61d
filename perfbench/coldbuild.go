package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tabby/internal/core"
	"tabby/internal/cpg"
	"tabby/internal/javasrc"
	"tabby/internal/jimple"
	"tabby/internal/pathfinder"
	"tabby/internal/searchindex"
	"tabby/internal/taint"
)

// coldBuild runs core.New(..).AnalyzeSources back to back on a fresh
// engine with no AnalysisCache: the Table VIII path. The seed permutes
// archive and file order.
func coldBuild(r *run) error {
	archives := shuffledCorpus(rand.New(rand.NewSource(r.seed)))
	files, size := corpusSize(archives)
	r.note("input: %d archives, %d files, %d bytes, seeded archive and file order", len(archives), files, size)

	analyze := func() (*core.Report, error) {
		return core.New(core.Options{Workers: workers}).AnalyzeSources(archives)
	}
	check := func(rep *core.Report) error {
		return r.orc.checkChains(chainFilter{}, toChainOut(rep.Chains), rep.Truncated)
	}

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		rep, err := analyze()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("warm-up analysis: %w", err)
		}
		if err := check(rep); err != nil {
			r.attempt("warm-up analysis", err)
		}
	}
	r.set("setup_s", median(setups))

	var lats, traced, expansions []float64
	var last *cpg.Graph
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops := 0
	for time.Since(start) < r.seconds {
		ops++
		t0 := time.Now()
		if r.trace && ops%2 == 0 {
			t := r.rec.begin(ops, "op")
			g, res, err := replayBuild(t, archives)
			t.end()
			lat := time.Since(t0)
			traced = append(traced, ms(lat))
			if err == nil {
				err = r.orc.checkChains(chainFilter{}, toChainOut(res.Chains), res.Truncated)
				expansions = append(expansions, float64(res.Expansions))
				last = g
			}
			r.attempt(fmt.Sprintf("traced build %d", ops), err)
			continue
		}
		rep, err := analyze()
		lat := time.Since(t0)
		if err == nil {
			err = check(rep)
		}
		r.attempt(fmt.Sprintf("build %d", ops), err)
		lats = append(lats, ms(lat))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	r.set("op_p50_ms", median(lats))
	r.set("ops_per_s", float64(ops)/elapsed.Seconds())
	r.latencyLine("build_p50_ms", lats)
	r.note("build ops/s %.3f over %.1f s (%d ops)", float64(ops)/elapsed.Seconds(), elapsed.Seconds(), ops)
	if r.trace {
		sums := r.rec.summarize()
		layerTimes(r, sums)
		memPerOp(r, before, after, ops)
		r.set("pathfinder.expansions", median(expansions))
		if last != nil {
			st := last.DB.Stats()
			r.set("graphdb.nodes", float64(st.Nodes))
			r.set("graphdb.rels", float64(st.Rels))
			r.set("cpg.pruned_call_ratio", ratio(float64(last.Taint.PrunedCalls), float64(last.Taint.TotalCalls)))
		}
		overhead(r, traced, lats)
	}
	return nil
}

// replayBuild runs the same public calls core.Engine.AnalyzeSources
// makes, each inside a span: compile, controllability analysis, graph
// assembly, index compilation and chain search.
func replayBuild(t *opTrace, archives []javasrc.ArchiveSource) (*cpg.Graph, *pathfinder.Result, error) {
	var p *jimple.Program
	var err error
	t.do("javasrc.compile", func() { p, err = javasrc.CompileArchivesOpts(archives, javasrc.CompileOptions{Workers: workers}) })
	if err != nil {
		return nil, nil, err
	}
	var res *taint.Result
	t.do("taint.analyze", func() { res, err = taint.Analyze(p, taint.Options{Workers: workers}) })
	if err != nil {
		return nil, nil, err
	}
	var g *cpg.Graph
	t.do("cpg.build", func() { g, err = cpg.BuildWithResult(p, res, cpg.Options{Workers: workers}) })
	if err != nil {
		return nil, nil, err
	}
	t.do("searchindex.compile", func() { searchindex.For(g.DB) })
	var found *pathfinder.Result
	t.do("pathfinder.find", func() { found, err = pathfinder.Find(g.DB, pathfinder.Options{Workers: workers}) })
	return g, found, err
}

// toChainOut reduces engine chains to what the oracle reads.
func toChainOut(chains []pathfinder.Chain) []chainOut {
	out := make([]chainOut, len(chains))
	for i, c := range chains {
		out[i] = chainOut{Names: c.Names, SinkType: c.SinkType}
	}
	return out
}
