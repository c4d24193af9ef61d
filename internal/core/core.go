// Package core is the Tabby engine: the end-to-end pipeline of Fig. 2 —
// semantic information extraction (javasrc), code property graph
// construction with controllability analysis (cpg/taint), storage in the
// embedded graph database (graphdb), and gadget-chain finding
// (pathfinder). It is the public API used by cmd/ and examples/.
package core

import (
	"fmt"
	"io"
	"time"

	"tabby/internal/cpg"
	"tabby/internal/graphdb"
	"tabby/internal/javasrc"
	"tabby/internal/jimple"
	"tabby/internal/parallel"
	"tabby/internal/pathfinder"
	"tabby/internal/profiling"
	"tabby/internal/searchindex"
	"tabby/internal/sinks"
	"tabby/internal/store"
	"tabby/internal/taint"
)

// Options configures an Engine.
type Options struct {
	// Sinks is the sink registry; nil means the default 38-sink set
	// (Table VII).
	Sinks *sinks.Registry
	// Sources recognizes deserialization entry points; the zero value
	// means the native-mechanism defaults.
	Sources sinks.SourceConfig
	// MaxDepth bounds chain length in methods (Algorithm 3); zero means
	// the pathfinder default (12).
	MaxDepth int
	// MaxChains caps reported chains; zero means the default.
	MaxChains int
	// VisitBudget caps search expansions; zero means the default.
	VisitBudget int
	// KeepPrunedCalls retains all-∞ CALL edges (MCG ablation mode).
	KeepPrunedCalls bool
	// TaintOptions tunes the controllability analysis.
	TaintOptions taint.Options
	// Workers bounds concurrency in every pipeline stage (compile,
	// controllability analysis, CPG assembly, path search). Zero selects
	// runtime.GOMAXPROCS(0); 1 runs the exact sequential path. Output is
	// identical at every setting.
	Workers int
	// SerializationDispatch enables the serialization-aware analysis
	// mode: the CPG gains a virtual deserialization driver wired by
	// DISPATCH edges to every hierarchy-derived JVM callback (readObject/
	// readResolve/readExternal of Serializable classes, and
	// InvocationHandler.invoke), and the path search accepts those
	// dispatch targets as chain entry points — so chains entering through
	// nested callbacks are found without hand-declared sources. Off by
	// default; with it off, output is byte-identical to a pipeline
	// without the pass.
	SerializationDispatch bool
}

// Engine runs the Tabby pipeline.
type Engine struct {
	opts Options
}

// New creates an engine. The zero Options value selects all defaults.
func New(opts Options) *Engine { return &Engine{opts: opts} }

// Timings records wall-clock per pipeline stage; the Table VIII and
// Table X experiments report these.
type Timings struct {
	Compile  time.Duration // semantic information extraction
	BuildCPG time.Duration // controllability analysis + graph assembly
	Search   time.Duration // gadget chain finding
	// Workers is the resolved worker count the run used, so per-stage
	// speedups can be attributed when comparing runs.
	Workers int
	// Cache reports per-layer reuse when the run went through
	// AnalyzeIncremental; nil on cold AnalyzeSources runs.
	Cache *CacheStats
}

// Report is the engine's output.
type Report struct {
	Graph     *cpg.Graph
	Chains    []pathfinder.Chain
	Truncated bool
	Timings   Timings
}

// AnalyzeSources compiles the archives and runs the full pipeline.
func (e *Engine) AnalyzeSources(archives []javasrc.ArchiveSource) (*Report, error) {
	start := time.Now()
	var prog *jimple.Program
	var err error
	profiling.Stage("compile", func() {
		prog, err = javasrc.CompileArchivesOpts(archives, javasrc.CompileOptions{Workers: e.opts.Workers})
	})
	if err != nil {
		return nil, fmt.Errorf("tabby: compile: %w", err)
	}
	compileTime := time.Since(start)
	rep, err := e.AnalyzeProgram(prog)
	if err != nil {
		return nil, err
	}
	rep.Timings.Compile = compileTime
	return rep, nil
}

// AnalyzeProgram builds the CPG for an already-extracted program and
// searches it for gadget chains.
func (e *Engine) AnalyzeProgram(prog *jimple.Program) (*Report, error) {
	g, buildTime, err := e.BuildCPG(prog)
	if err != nil {
		return nil, err
	}
	chains, truncated, searchTime, err := e.FindChains(g)
	if err != nil {
		return nil, err
	}
	return &Report{
		Graph:     g,
		Chains:    chains,
		Truncated: truncated,
		Timings: Timings{
			BuildCPG: buildTime,
			Search:   searchTime,
			Workers:  parallel.Resolve(e.opts.Workers),
		},
	}, nil
}

// BuildCPG runs extraction + controllability analysis + graph assembly,
// returning the graph and its build time.
func (e *Engine) BuildCPG(prog *jimple.Program) (*cpg.Graph, time.Duration, error) {
	start := time.Now()
	g, err := cpg.Build(prog, cpg.Options{
		Sinks:                 e.opts.Sinks,
		Sources:               e.opts.Sources,
		Taint:                 e.opts.TaintOptions,
		KeepPrunedCalls:       e.opts.KeepPrunedCalls,
		Workers:               e.opts.Workers,
		SerializationDispatch: e.opts.SerializationDispatch,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("tabby: build cpg: %w", err)
	}
	// Warm the compiled search index while the graph is hot in cache, so
	// its one-time compilation cost lands in the build stage rather than
	// inside the first search's timing.
	profiling.Stage("cpg", func() { searchindex.For(g.DB) })
	return g, time.Since(start), nil
}

// FindChains runs the path finder over a built graph.
func (e *Engine) FindChains(g *cpg.Graph) (chains []pathfinder.Chain, truncated bool, elapsed time.Duration, err error) {
	start := time.Now()
	var res *pathfinder.Result
	profiling.Stage("search", func() {
		res, err = pathfinder.Find(g.DB, pathfinder.Options{
			MaxDepth:        e.opts.MaxDepth,
			MaxChains:       e.opts.MaxChains,
			VisitBudget:     e.opts.VisitBudget,
			DispatchSources: e.opts.SerializationDispatch,
			Workers:         e.opts.Workers,
		})
	})
	if err != nil {
		return nil, false, 0, fmt.Errorf("tabby: find chains: %w", err)
	}
	return res.Chains, res.Truncated, time.Since(start), nil
}

// SaveSnapshot persists a finished analysis to w in the versioned binary
// snapshot format of internal/store: the full graph, the sink/source
// registry state the engine used, and the analysis counters. The
// snapshot can be re-served later by LoadSnapshot, cmd/tabby-query
// -snapshot, or cmd/tabby-server without recompiling the corpus.
func (e *Engine) SaveSnapshot(w io.Writer, rep *Report, name, corpus string) error {
	snap, err := e.SnapshotFor(rep, name, corpus)
	if err != nil {
		return err
	}
	return store.Write(w, snap)
}

// SnapshotFor assembles the snapshot of a finished analysis: the graph,
// the sink/source registry state the engine used (the defaults when the
// options leave them unset), and the analysis counters. SaveSnapshot
// encodes it; the server registers it directly.
func (e *Engine) SnapshotFor(rep *Report, name, corpus string) (*store.Snapshot, error) {
	if rep == nil || rep.Graph == nil {
		return nil, fmt.Errorf("tabby: save snapshot: nil report")
	}
	reg := e.opts.Sinks
	if reg == nil {
		reg = sinks.Default()
	}
	src := e.opts.Sources
	if len(src.MethodNames) == 0 {
		src = sinks.DefaultSources()
	}
	meta := store.Meta{Name: name, Corpus: corpus, Stats: rep.Graph.Stats}
	if rep.Graph.Taint != nil {
		meta.TotalCalls = rep.Graph.Taint.TotalCalls
		meta.PrunedCalls = rep.Graph.Taint.PrunedCalls
	}
	return &store.Snapshot{
		Meta:    meta,
		DB:      rep.Graph.DB,
		Sinks:   reg,
		Sources: src,
	}, nil
}

// LoadSnapshot reads a snapshot written by SaveSnapshot. The returned
// store is frozen (read-only) and safe for concurrent querying; run
// searches over it with FindChainsIn or queries with package cypher.
func LoadSnapshot(r io.Reader) (*store.Snapshot, error) {
	return store.Read(r)
}

// FindChainsIn runs the path finder against an arbitrary store —
// typically one loaded from a snapshot rather than freshly built. The
// engine's depth/chain/budget/worker options apply exactly as in
// FindChains, so a loaded snapshot yields byte-identical results.
func (e *Engine) FindChainsIn(db *graphdb.DB) (chains []pathfinder.Chain, truncated bool, err error) {
	var res *pathfinder.Result
	profiling.Stage("search", func() {
		res, err = pathfinder.Find(db, pathfinder.Options{
			MaxDepth:        e.opts.MaxDepth,
			MaxChains:       e.opts.MaxChains,
			VisitBudget:     e.opts.VisitBudget,
			DispatchSources: e.opts.SerializationDispatch,
			Workers:         e.opts.Workers,
		})
	})
	if err != nil {
		return nil, false, fmt.Errorf("tabby: find chains: %w", err)
	}
	return res.Chains, res.Truncated, nil
}

// FindChainsBetween searches from explicit sink nodes with a custom
// source filter — the researcher-driven RQ4 workflow.
func (e *Engine) FindChainsBetween(g *cpg.Graph, sinkNodes []graphdb.ID, sourceFilter func(*graphdb.DB, graphdb.ID) bool) ([]pathfinder.Chain, error) {
	res, err := pathfinder.Find(g.DB, pathfinder.Options{
		MaxDepth:        e.opts.MaxDepth,
		MaxChains:       e.opts.MaxChains,
		VisitBudget:     e.opts.VisitBudget,
		SinkNodes:       sinkNodes,
		SourceFilter:    sourceFilter,
		DispatchSources: e.opts.SerializationDispatch,
		Workers:         e.opts.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("tabby: find chains: %w", err)
	}
	return res.Chains, nil
}
