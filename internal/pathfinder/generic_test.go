package pathfinder

import (
	"fmt"

	"tabby/internal/cpg"
	"tabby/internal/graphdb"
	"tabby/internal/parallel"
)

// This file keeps the original traversal engine — the one that walks the
// generic property store relationship by relationship — as the
// executable oracle for the compiled-index engine. It pays graphdb's full
// read costs on every expansion (a lock acquisition and slice allocation
// in Rels, a deep property-map clone in Rel, repeated any→[]int
// assertions), which is why production search runs on the index instead.
// It lives in a _test.go file so it ships in no binary: the equivalence
// suites (edgecases_test.go, equivalence_test.go) pin Find's chains,
// order and truncation to it, and BenchmarkFindGeneric reports its cost
// next to BenchmarkFindIndexed. FindGeneric is exported so the external
// pathfinder_test package can reach it too.

// FindGeneric runs the same search as Find directly against the generic
// property store, without the compiled index or dead-state memoization.
// Chains, their order, and truncation match Find whenever the visit
// budget is not exhausted.
func FindGeneric(db *graphdb.DB, opts Options) (*Result, error) {
	opts.applyDefaults()
	seeds, err := collectSeeds(db, opts)
	if err != nil {
		return nil, err
	}
	budget := &visitBudget{limit: int64(opts.VisitBudget)}
	outs := parallel.Map(opts.Workers, seeds, func(_ int, s seed) sinkSearch {
		f := &finder{db: db, opts: opts, budget: budget, seen: make(map[string]bool), srcWant: sourceNameSet(opts)}
		f.dfs([]graphdb.ID{s.sink}, map[graphdb.ID]bool{s.sink: true}, []TC{s.tc}, []string{""}, s.sinkType)
		return sinkSearch{chains: f.chains, stopped: f.stopped}
	})
	return merge(outs, opts, budget), nil
}

type finder struct {
	db      *graphdb.DB
	opts    Options
	budget  *visitBudget
	chains  []Chain
	seen    map[string]bool
	srcWant map[string]bool // SourceMethodNames lookup; nil when unused
	stopped bool
}

// isSource is the Evaluator's source test.
func (f *finder) isSource(node graphdb.ID) bool {
	if f.opts.DispatchSources && len(f.db.Rels(node, graphdb.DirIn, cpg.RelDispatch)) > 0 {
		return true
	}
	if f.srcWant != nil {
		v, _ := f.db.NodeProp(node, cpg.PropMethodName)
		name, _ := v.(string)
		return f.srcWant[name]
	}
	if f.opts.SourceFilter != nil {
		return f.opts.SourceFilter(f.db, node)
	}
	v, ok := f.db.NodeProp(node, cpg.PropIsSource)
	b, _ := v.(bool)
	return ok && b
}

// dfs explores backwards from the sink. path[0] is the sink; the last
// element is the current frontier node. tcs and kinds parallel path
// (kinds[i] is the edge type between path[i] and path[i-1]; kinds[0] is
// unused).
func (f *finder) dfs(path []graphdb.ID, onPath map[graphdb.ID]bool, tcs []TC, kinds []string, sinkType string) {
	if f.stopped {
		return
	}
	node := path[len(path)-1]
	tc := tcs[len(tcs)-1]

	// Evaluator (Algorithm 3): a source node terminates the path as a
	// gadget chain. Every remaining requirement is satisfiable there: the
	// receiver is the deserialized (attacker-built) object and the
	// parameters are framework-supplied deserialization state (the
	// ObjectInputStream of Fig. 1), all attacker-derived.
	if len(path) > 1 && f.isSource(node) {
		f.record(path, tcs, kinds, sinkType)
		return
	}
	if len(path) >= f.opts.MaxDepth {
		return
	}

	// Expander (Algorithm 2), CALL case: walk to callers of this node.
	for _, relID := range f.db.Rels(node, graphdb.DirIn, cpg.RelCall) {
		if f.spendBudget() {
			return
		}
		rel := f.db.Rel(relID)
		caller := rel.Start
		if onPath[caller] {
			continue
		}
		ppProp, ok := rel.Props[cpg.PropPollutedPosition]
		if !ok {
			continue
		}
		pp, ok := ppProp.([]int)
		if !ok {
			continue
		}
		next, ok := traverse(tc, pp)
		if !ok {
			continue // Expander rejected: a required position became ∞
		}
		f.step(path, onPath, tcs, kinds, caller, next, cpg.RelCall, sinkType)
	}

	// Expander, ALIAS case: TC passes through unchanged, both directions
	// (override → declaration and declaration → override).
	for _, relID := range f.db.Rels(node, graphdb.DirBoth, cpg.RelAlias) {
		if f.spendBudget() {
			return
		}
		rel := f.db.Rel(relID)
		other := rel.Other(node)
		if onPath[other] {
			continue
		}
		f.step(path, onPath, tcs, kinds, other, tc, cpg.RelAlias, sinkType)
	}
}

func (f *finder) step(path []graphdb.ID, onPath map[graphdb.ID]bool, tcs []TC, kinds []string, next graphdb.ID, nextTC TC, kind string, sinkType string) {
	onPath[next] = true
	f.dfs(append(path, next), onPath, append(tcs, nextTC), append(kinds, kind), sinkType)
	delete(onPath, next)
}

// spendBudget draws one expansion from the shared pool; true stops this
// sink's search (own or any worker's budget exhaustion, or the per-sink
// MaxChains latch set by record).
func (f *finder) spendBudget() bool {
	if f.budget.spend() {
		f.stopped = true
	}
	return f.stopped
}

// record reverses the sink-rooted path into source-first order and
// deduplicates.
func (f *finder) record(path []graphdb.ID, tcs []TC, kinds []string, sinkType string) {
	n := len(path)
	chain := Chain{
		Nodes:    make([]graphdb.ID, n),
		Names:    make([]string, n),
		TCs:      make([]TC, n),
		Edges:    make([]string, n-1),
		SinkType: sinkType,
	}
	for i := 0; i < n; i++ {
		chain.Nodes[i] = path[n-1-i]
		chain.TCs[i] = append(TC(nil), tcs[n-1-i]...)
		if v, ok := f.db.NodeProp(path[n-1-i], cpg.PropName); ok {
			if s, ok := v.(string); ok {
				chain.Names[i] = s
			}
		}
		if i < n-1 {
			chain.Edges[i] = kinds[n-1-i]
		}
	}
	key := chain.Key()
	if f.seen[key] {
		return
	}
	f.seen[key] = true
	f.chains = append(f.chains, chain)
	if len(f.chains) >= f.opts.MaxChains {
		f.stopped = true
	}
}

// collectSeeds is the oracle's seed resolver: collectSeedsIndex's
// contract, read from the property store instead of the index.
func collectSeeds(db *graphdb.DB, opts Options) ([]seed, error) {
	sinks := opts.SinkNodes
	if sinks == nil {
		sinks = db.FindNodes(cpg.LabelMethod, cpg.PropIsSink, true)
	}
	seeds := make([]seed, len(sinks))
	for i, sink := range sinks {
		var tc TC
		if opts.SinkTC != nil {
			tc = append(TC(nil), opts.SinkTC...).normalize()
		} else {
			tcProp, ok := db.NodeProp(sink, cpg.PropTriggerCondition)
			if !ok {
				return nil, fmt.Errorf("pathfinder: sink node %d has no %s", sink, cpg.PropTriggerCondition)
			}
			tcInts, ok := tcProp.([]int)
			if !ok {
				return nil, fmt.Errorf("pathfinder: sink node %d %s has type %T", sink, cpg.PropTriggerCondition, tcProp)
			}
			// Copy before normalizing: the prop slice belongs to the store,
			// and concurrent searches over a shared (frozen) store must not
			// sort it in place.
			tc = append(TC(nil), tcInts...).normalize()
		}
		sinkType, _ := db.NodeProp(sink, cpg.PropSinkType)
		st, _ := sinkType.(string)
		seeds[i] = seed{sink: sink, tc: tc, sinkType: st}
	}
	return seeds, nil
}

// traverse implements Formula 4: TC_next = {PP[x] | x ∈ TC}. The second
// return is false when any required position is uncontrollable (∞),
// which rejects the edge (Algorithm 2 lines 4–7).
func traverse(tc TC, pp []int) (TC, bool) {
	next := make(TC, 0, len(tc))
	for _, x := range tc {
		if x < 0 || x >= len(pp) {
			return nil, false // position not bound at this call: treat as ∞
		}
		w := pp[x]
		if w < 0 {
			return nil, false // ∞
		}
		next = append(next, w)
	}
	return next.normalize(), true
}
