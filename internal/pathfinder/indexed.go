package pathfinder

import (
	"tabby/internal/cpg"
	"tabby/internal/graphdb"
	"tabby/internal/searchindex"
)

// indexedFinder is the per-seed state of the compiled-index engine. Its
// steady-state DFS touches no locks and allocates nothing: the path and
// its Trigger_Conditions live in reusable int32 stacks, path membership
// is one bitset, every derived TC is interned into a finder-local pool
// (so comparing TCs is comparing refs), and subsearches proven dead are
// memoized by (node, TC ref) so re-converging walks skip them outright.
//
// Memoization is sound because path exclusion can only ever *block*
// expansions, never enable them: a (node, TC, remaining-depth) state that
// found no source with NO context-dependent interference is dead in every
// later context with the same or less depth to spend. A subsearch is
// therefore cached only when it is "clean-dead" — it found nothing AND
// was never tainted by an on-path collision skip, a budget stop, or the
// MaxChains latch. Depth cutoffs are not taint: the memo is keyed on the
// depth remaining (a state proven dead with R levels left is skipped only
// when ≤R levels are left), which makes the cutoff context-free.
type indexedFinder struct {
	ix     *searchindex.Index
	opts   Options
	budget *visitBudget

	maxDepth int
	sinkType string

	onPath []uint64 // node-index bitset of the current path
	path   []int32  // sink-rooted node stack (node indexes)
	tcRefs []int32  // parallel TC pool refs
	kinds  []int8   // parallel edge kinds: kinds[j] is the edge between path[j] and path[j-1]; kinds[0] unused

	pool    searchindex.IntPool // finder-local: seed + derived TCs
	scratch []int32             // reused by traverseInto
	memo    map[uint64]int32    // (node, TC ref) -> max remaining depth proven dead
	srcWant map[string]bool     // SourceMethodNames lookup; nil when unused

	chains  []Chain
	seen    map[string]bool
	stopped bool
}

func newIndexedFinder(ix *searchindex.Index, opts Options, budget *visitBudget) *indexedFinder {
	return &indexedFinder{
		ix:       ix,
		opts:     opts,
		budget:   budget,
		maxDepth: opts.MaxDepth,
		onPath:   make([]uint64, (ix.NumNodes()+63)/64),
		memo:     make(map[uint64]int32),
		seen:     make(map[string]bool),
		srcWant:  sourceNameSet(opts),
	}
}

// search runs the backwards DFS from one validated sink seed.
func (f *indexedFinder) search(s seed) sinkSearch {
	v := f.ix.IdxOf(s.sink)
	if v < 0 {
		// Caller-supplied sink ID that is not a node (possible only with a
		// SinkTC override, which skips property validation): no edges and
		// no source there, i.e. nothing.
		return sinkSearch{}
	}
	f.scratch = f.scratch[:0]
	for _, x := range s.tc { // already normalized by collectSeedsIndex
		f.scratch = append(f.scratch, int32(x))
	}
	ref := f.pool.Intern(f.scratch)
	f.sinkType = s.sinkType
	f.setBit(v)
	f.path = append(f.path[:0], v)
	f.tcRefs = append(f.tcRefs[:0], ref)
	f.kinds = append(f.kinds[:0], 0)
	f.dfs(v, ref)
	return sinkSearch{chains: f.chains, stopped: f.stopped}
}

// dfs explores backwards from f.path's top node v, which carries
// Trigger_Condition tcRef. It reports whether the subtree recorded any
// chain and whether its exploration was tainted by context-dependent
// interference (on-path collision, budget stop, MaxChains latch); only
// untainted, chain-free subtrees are memoized as dead.
func (f *indexedFinder) dfs(v, tcRef int32) (found, tainted bool) {
	if f.stopped {
		return false, true
	}
	depth := len(f.path)

	// Evaluator (Algorithm 3): a source node terminates the path as a
	// gadget chain.
	if depth > 1 && f.isSource(v) {
		f.record()
		return true, false
	}
	if depth >= f.maxDepth {
		return false, false
	}

	remaining := int32(f.maxDepth - depth)
	key := uint64(uint32(v))<<32 | uint64(uint32(tcRef))
	if dead, ok := f.memo[key]; ok && dead >= remaining {
		return false, false
	}

	// Expander (Algorithm 2), CALL case: walk to callers of this node.
	// Budget is spent per edge slot before any rejection — including the
	// PP-less edges the index keeps with ref -1 — so expansion accounting
	// matches the generic-store oracle (generic_test.go) edge for edge.
	lo, hi := f.ix.CallRange(v)
	for e := lo; e < hi; e++ {
		if f.spendBudget() {
			return found, true
		}
		caller, ppRef := f.ix.CallEdge(e)
		if f.onPathBit(caller) {
			tainted = true
			continue
		}
		if ppRef < 0 {
			continue
		}
		next, ok := f.traverseInto(tcRef, ppRef)
		if !ok {
			continue // Expander rejected: a required position became ∞
		}
		fnd, tnt := f.step(caller, next, stepCall)
		found = found || fnd
		tainted = tainted || tnt
	}

	// Expander, ALIAS case: TC passes through unchanged, both directions.
	lo, hi = f.ix.AliasRange(v)
	for e := lo; e < hi; e++ {
		if f.spendBudget() {
			return found, true
		}
		other := f.ix.AliasTarget(e)
		if f.onPathBit(other) {
			tainted = true
			continue
		}
		fnd, tnt := f.step(other, tcRef, stepAlias)
		found = found || fnd
		tainted = tainted || tnt
	}

	if !found && !tainted && f.memo[key] < remaining {
		f.memo[key] = remaining
	}
	return found, tainted
}

// Edge kinds the DFS steps across, indexing stepRel.
const (
	stepCall int8 = iota
	stepAlias
)

var stepRel = [...]string{cpg.RelCall, cpg.RelAlias}

func (f *indexedFinder) step(next, tcRef int32, kind int8) (found, tainted bool) {
	f.setBit(next)
	f.path = append(f.path, next)
	f.tcRefs = append(f.tcRefs, tcRef)
	f.kinds = append(f.kinds, kind)
	found, tainted = f.dfs(next, tcRef)
	f.path = f.path[:len(f.path)-1]
	f.tcRefs = f.tcRefs[:len(f.tcRefs)-1]
	f.kinds = f.kinds[:len(f.kinds)-1]
	f.clearBit(next)
	return found, tainted
}

// traverseInto is Formula 4 over interned arrays: TC_next = {PP[x] | x ∈
// TC}, built sorted and deduped directly into f.scratch, then interned.
// The tc slice aliases the pool buffer, which Intern may grow; it is
// fully consumed before Intern runs (and a stale slice would still hold
// valid content — the buffer is append-only).
func (f *indexedFinder) traverseInto(tcRef, ppRef int32) (int32, bool) {
	tc := f.pool.Get(tcRef)
	pp := f.ix.Ints(ppRef)
	f.scratch = f.scratch[:0]
	for _, x := range tc {
		if x < 0 || int(x) >= len(pp) {
			return -1, false // position not bound at this call: treat as ∞
		}
		w := pp[x]
		if w < 0 {
			return -1, false // ∞
		}
		f.scratch = insertSorted(f.scratch, w)
	}
	return f.pool.Intern(f.scratch), true
}

// insertSorted inserts v into the ascending run dst, dropping duplicates.
// TCs are tiny (call positions), so insertion beats a sort call.
func insertSorted(dst []int32, v int32) []int32 {
	i := len(dst)
	for i > 0 && dst[i-1] > v {
		i--
	}
	if i > 0 && dst[i-1] == v {
		return dst
	}
	dst = append(dst, 0)
	copy(dst[i+1:], dst[i:])
	dst[i] = v
	return dst
}

// isSource is the Evaluator's source test. SourceMethodNames resolves
// against the index's METHOD_NAME column (no store access — works on
// mmap-viewed indexes); the callback-based SourceFilter needs the
// property store and is kept for embedders.
func (f *indexedFinder) isSource(v int32) bool {
	if f.opts.DispatchSources && f.ix.IsDispatchTarget(v) {
		return true
	}
	if f.srcWant != nil {
		return f.srcWant[f.ix.MethodName(v)]
	}
	if f.opts.SourceFilter != nil {
		return f.opts.SourceFilter(f.ix.DB(), f.ix.IDOf(v))
	}
	return f.ix.IsSource(v)
}

// spendBudget draws one expansion from the shared pool; true stops this
// sink's search.
func (f *indexedFinder) spendBudget() bool {
	if f.budget.spend() {
		f.stopped = true
	}
	return f.stopped
}

func (f *indexedFinder) onPathBit(v int32) bool {
	return f.onPath[v>>6]&(1<<(uint(v)&63)) != 0
}

func (f *indexedFinder) setBit(v int32) {
	f.onPath[v>>6] |= 1 << (uint(v) & 63)
}

func (f *indexedFinder) clearBit(v int32) {
	f.onPath[v>>6] &^= 1 << (uint(v) & 63)
}

// record materializes the current sink-rooted path into a source-first
// Chain and deduplicates it. This is the cold path (chains are rare
// relative to expansions), so it allocates freely.
func (f *indexedFinder) record() {
	n := len(f.path)
	chain := Chain{
		Nodes:    make([]graphdb.ID, n),
		Names:    make([]string, n),
		TCs:      make([]TC, n),
		Edges:    make([]string, n-1),
		SinkType: f.sinkType,
	}
	for i := 0; i < n; i++ {
		v := f.path[n-1-i]
		chain.Nodes[i] = f.ix.IDOf(v)
		chain.Names[i] = f.ix.Name(v)
		ints := f.pool.Get(f.tcRefs[n-1-i])
		tc := make(TC, len(ints))
		for j, x := range ints {
			tc[j] = int(x)
		}
		chain.TCs[i] = tc
		if i < n-1 {
			// The edge between Nodes[i] and Nodes[i+1] is the one the DFS
			// pushed path[n-1-i] across.
			chain.Edges[i] = stepRel[f.kinds[n-1-i]]
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
