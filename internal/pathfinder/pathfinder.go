// Package pathfinder is the reproduction of the tabby-path-finder Neo4j
// plugin (paper §III-D): a depth-first traversal that starts at sink
// methods and walks the CPG *backwards* — against CALL edges and across
// ALIAS edges — propagating the Trigger_Condition through each edge's
// Polluted_Position (Formula 4, Algorithms 2 and 3) until it reaches a
// deserialization source method.
//
// The search runs against the compiled search index (package
// searchindex): lock-free CSR adjacency, bitset path membership,
// reusable stacks, interned Trigger_Conditions, and (node, TC)-state
// memoization of proven-dead subsearches. FindIndex searches an index
// directly (including one viewed out of an mmap'd snapshot); Find is
// FindIndex over the index cached on a live store.
//
// The original engine, which walked the generic property store edge by
// edge, survives only in this package's tests as the executable oracle:
// the equivalence suites pin FindIndex's chains, order, and truncation
// to it on the full corpus.
package pathfinder

import (
	"fmt"
	bits64 "math/bits"
	"sort"
	"strings"
	"sync/atomic"

	"tabby/internal/cpg"
	"tabby/internal/graphdb"
	"tabby/internal/parallel"
	"tabby/internal/searchindex"
)

// TC is a Trigger_Condition: the set of call positions (0 = receiver,
// i = argument i) that must be attacker-controllable.
type TC []int

// normalize returns the positions sorted and deduped. It never mutates
// the receiver or its backing array: an already-normal TC is returned
// as-is, anything else is copied first (TCs routinely alias property
// slices owned by a shared, possibly frozen store).
func (tc TC) normalize() TC {
	if len(tc) <= 1 {
		return tc
	}
	inOrder := true
	for i := 1; i < len(tc); i++ {
		if tc[i] <= tc[i-1] {
			inOrder = false
			break
		}
	}
	if inOrder {
		return tc
	}
	out := make(TC, len(tc))
	copy(out, tc)
	sort.Ints(out)
	w := 1
	for _, v := range out[1:] {
		if v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// receiverOnly reports whether every requirement sits on position 0 — the
// success condition at a source method, whose receiver is the
// deserialized (attacker-built) object.
func (tc TC) receiverOnly() bool {
	for _, v := range tc {
		if v != 0 {
			return false
		}
	}
	return true
}

// String renders e.g. "[0,2]".
func (tc TC) String() string {
	parts := make([]string, len(tc))
	for i, v := range tc {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Chain is one discovered gadget chain, source first (the presentation
// order of Table I).
type Chain struct {
	// Nodes are method node IDs, source → … → sink.
	Nodes []graphdb.ID
	// Names are the corresponding method NAME properties.
	Names []string
	// SinkType is the sink's SINK_TYPE property (EXEC, JNDI, …).
	SinkType string
	// TCs[i] is the Trigger_Condition required at Nodes[i] (same order as
	// Nodes); TCs[len-1] is the sink's own TC.
	TCs []TC
	// Edges[i] is the relationship type the search stepped across between
	// Nodes[i] and Nodes[i+1] — CALL or ALIAS (DISPATCH edges seed entry
	// points but are never traversed). len(Edges) == len(Nodes)-1.
	Edges []string
}

// Key returns a stable identity for deduplication.
func (c Chain) Key() string { return strings.Join(c.Names, " -> ") }

// String renders the chain one frame per line, like Table I.
func (c Chain) String() string {
	var sb strings.Builder
	for i, name := range c.Names {
		switch i {
		case 0:
			sb.WriteString("(source)")
		case len(c.Names) - 1:
			sb.WriteString("(sink)")
		}
		sb.WriteString(name)
		if i < len(c.Names)-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// Options tunes the search.
type Options struct {
	// MaxDepth is the maximum path length in nodes (Algorithm 3's depth);
	// zero means the default of 12.
	MaxDepth int
	// MaxChains caps the number of reported chains; zero means 10000.
	MaxChains int
	// VisitBudget caps total edge expansions as an explosion guard; zero
	// means 2,000,000.
	VisitBudget int
	// SinkNodes restricts the search to these sink nodes; nil means every
	// node tagged IS_SINK.
	SinkNodes []graphdb.ID
	// SourceFilter, when non-nil, decides whether a node terminates a
	// chain; nil accepts any node tagged IS_SOURCE.
	SourceFilter func(db *graphdb.DB, node graphdb.ID) bool
	// SourceMethodNames, when non-empty, accepts exactly the nodes whose
	// METHOD_NAME is one of these values (nodes without a string-typed
	// METHOD_NAME read as ""). It takes precedence over SourceFilter and
	// is resolved against the compiled index's METHOD_NAME column, so it
	// works on database-free (mmap-viewed) indexes where a SourceFilter
	// callback would have no store to read.
	SourceMethodNames []string
	// DispatchSources additionally accepts any node with an incoming
	// DISPATCH edge as a chain source, OR-ed with the other source tests —
	// the serialization-aware mode: entry points derived by the
	// serialization-dispatch pass terminate chains without being tagged
	// IS_SOURCE. No effect on graphs built without the pass.
	DispatchSources bool
	// SinkTC, when non-nil, overrides the Trigger_Condition of every
	// selected sink seed — the researcher-driven "suppose this position
	// were the dangerous one" workflow (RQ4) on stored graphs, which are
	// immutable and so cannot have their TRIGGER_CONDITION properties
	// rewritten. It also allows seeding from nodes that carry no
	// TRIGGER_CONDITION at all. Positions are normalized before use.
	SinkTC []int
	// Workers bounds how many sink seeds are searched concurrently. Zero
	// selects runtime.GOMAXPROCS(0); 1 runs the exact sequential path.
	// Results are merged in sink order then per-sink discovery order, so
	// chains, their order, and MaxChains truncation are identical at
	// every worker count as long as the visit budget is not exhausted
	// (an exhausted budget stops workers at a racy cut-off; Truncated
	// reports it either way).
	Workers int
}

const (
	defaultMaxDepth    = 12
	defaultMaxChains   = 10000
	defaultVisitBudget = 2_000_000
)

func (opts *Options) applyDefaults() {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = defaultMaxDepth
	}
	if opts.MaxChains <= 0 {
		opts.MaxChains = defaultMaxChains
	}
	if opts.VisitBudget <= 0 {
		opts.VisitBudget = defaultVisitBudget
	}
}

// Result is the outcome of a Find run.
type Result struct {
	Chains []Chain
	// Truncated is true when a cap (MaxChains/VisitBudget) stopped the
	// search early.
	Truncated bool
	// Expansions counts edge traversals performed. Subsearches proven
	// dead are skipped without being re-expanded, so they do not count.
	Expansions int
}

// seed is one validated sink to search from.
type seed struct {
	sink     graphdb.ID
	tc       TC
	sinkType string
}

// sinkSearch is what one per-seed finder hands to the canonical merge.
type sinkSearch struct {
	chains  []Chain
	stopped bool
}

// merge combines per-sink results canonically: sink order, then per-sink
// discovery order, deduplicated, truncated at MaxChains.
func merge(outs []sinkSearch, opts Options, budget *visitBudget) *Result {
	res := &Result{Expansions: int(budget.used.Load())}
	seen := make(map[string]bool)
	for _, f := range outs {
		for _, chain := range f.chains {
			if seen[chain.Key()] {
				continue
			}
			if len(res.Chains) >= opts.MaxChains {
				res.Truncated = true
				break
			}
			seen[chain.Key()] = true
			res.Chains = append(res.Chains, chain)
		}
		if len(res.Chains) >= opts.MaxChains || f.stopped {
			res.Truncated = true
		}
	}
	if budget.blown.Load() {
		res.Truncated = true
	}
	return res
}

// Find runs the gadget-chain search over a built CPG database: FindIndex
// over the store's compiled search index (built lazily and cached on the
// store; see searchindex.For).
func Find(db *graphdb.DB, opts Options) (*Result, error) {
	return FindIndex(searchindex.For(db), opts)
}

// FindIndex runs the gadget-chain search over a compiled search index,
// resolving sink seeds from the index's columns. Each seed is searched
// independently (concurrently when Options.Workers allows) against a
// shared visit budget; per-sink results are merged in sink order,
// deduplicated, and truncated at MaxChains, so the output is canonical
// regardless of completion order. An index viewed out of an mmap'd
// snapshot has no backing database (DB() is nil); every option except
// the callback-based SourceFilter — use SourceMethodNames instead —
// works on it identically.
func FindIndex(ix *searchindex.Index, opts Options) (*Result, error) {
	opts.applyDefaults()
	if opts.SourceFilter != nil && len(opts.SourceMethodNames) == 0 && ix.DB() == nil {
		return nil, fmt.Errorf("pathfinder: SourceFilter needs a backing store, which this index does not carry (use SourceMethodNames)")
	}
	seeds, err := collectSeedsIndex(ix, opts)
	if err != nil {
		return nil, err
	}
	budget := &visitBudget{limit: int64(opts.VisitBudget)}
	outs := parallel.Map(opts.Workers, seeds, func(_ int, s seed) sinkSearch {
		f := newIndexedFinder(ix, opts, budget)
		return f.search(s)
	})
	return merge(outs, opts, budget), nil
}

// sourceNameSet builds the SourceMethodNames lookup (nil when unused).
func sourceNameSet(opts Options) map[string]bool {
	if len(opts.SourceMethodNames) == 0 {
		return nil
	}
	want := make(map[string]bool, len(opts.SourceMethodNames))
	for _, n := range opts.SourceMethodNames {
		want[n] = true
	}
	return want
}

// collectSeedsIndex resolves and validates every sink seed up front, so
// a bad sink is reported deterministically (first in sink order) before
// any worker starts. The default sink set is every Method node with its
// IS_SINK bit set, in ascending node order (which is ascending store-ID
// order — the same order the property store yields). Trigger_Conditions
// come from the index's interned TC column, already normalized at
// compile time; a sink the index does not hold, or whose
// TRIGGER_CONDITION is not an []int, has no TC there and is rejected.
func collectSeedsIndex(ix *searchindex.Index, opts Options) ([]seed, error) {
	var seeds []seed
	addSeed := func(sink graphdb.ID, v int32) error {
		var tc TC
		if opts.SinkTC != nil {
			tc = append(TC(nil), opts.SinkTC...).normalize()
		} else {
			ref := int32(-1)
			if v >= 0 {
				ref = ix.TCRef(v)
			}
			if ref < 0 {
				return fmt.Errorf("pathfinder: sink node %d has no %s", sink, cpg.PropTriggerCondition)
			}
			for _, x := range ix.Ints(ref) {
				tc = append(tc, int(x))
			}
		}
		st := ""
		if v >= 0 {
			st = ix.SinkType(v)
		}
		seeds = append(seeds, seed{sink: sink, tc: tc, sinkType: st})
		return nil
	}
	if opts.SinkNodes != nil {
		for _, sink := range opts.SinkNodes {
			if err := addSeed(sink, ix.IdxOf(sink)); err != nil {
				return nil, err
			}
		}
		return seeds, nil
	}
	method := ix.LabelBits(cpg.LabelMethod)
	for _, v := range andBitsets(method, ix.SinkBits(), ix.NumNodes()) {
		if err := addSeed(ix.IDOf(v), v); err != nil {
			return nil, err
		}
	}
	return seeds, nil
}

// andBitsets returns the node indexes set in both bitsets, ascending.
// A nil a means "no nodes" (label absent), matching LabelBits.
func andBitsets(a, b []uint64, n int) []int32 {
	var out []int32
	if a == nil || b == nil {
		return out
	}
	for w := 0; w < len(a) && w < len(b); w++ {
		bits := a[w] & b[w]
		for bits != 0 {
			v := int32(w<<6) + int32(bits64.TrailingZeros64(bits))
			if int(v) >= n {
				break
			}
			out = append(out, v)
			bits &= bits - 1
		}
	}
	return out
}

// visitBudget is the shared expansion counter: every worker draws from
// the same pool, so total work is bounded exactly as in the sequential
// search.
type visitBudget struct {
	limit int64
	used  atomic.Int64
	blown atomic.Bool
}

// spend consumes one expansion; true means the search must stop.
func (b *visitBudget) spend() bool {
	if b.used.Add(1) > b.limit {
		b.blown.Store(true)
		return true
	}
	return b.blown.Load()
}
