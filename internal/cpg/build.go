package cpg

import (
	"fmt"

	"tabby/internal/edges"
	"tabby/internal/graphdb"
	"tabby/internal/java"
	"tabby/internal/jimple"
	"tabby/internal/parallel"
	"tabby/internal/profiling"
	"tabby/internal/sinks"
	"tabby/internal/sortutil"
	"tabby/internal/taint"
)

// Options configures CPG construction.
type Options struct {
	// Sinks is the sink registry used to tag sink method nodes. Nil means
	// the default 38-sink registry.
	Sinks *sinks.Registry
	// Sources recognizes deserialization entry points. The zero value
	// means the default native-mechanism sources.
	Sources sinks.SourceConfig
	// Taint tunes the controllability analysis.
	Taint taint.Options
	// KeepPrunedCalls stores all-∞ CALL edges too (tagged by an all -1
	// POLLUTED_POSITION), turning the PCG back into the raw MCG. Used for
	// ablation benchmarks; the paper's pipeline drops them.
	KeepPrunedCalls bool
	// Workers bounds the concurrency of property/edge precomputation and
	// is forwarded to the controllability analysis when its own Workers
	// field is unset. Zero selects runtime.GOMAXPROCS(0); 1 runs the
	// exact sequential path. Graph contents and IDs are identical at
	// every setting: precomputation runs concurrently but every node and
	// relationship is materialized through one batch filled in
	// deterministic order.
	Workers int
	// SerializationDispatch enables the serialization-dispatch pass: a
	// virtual deserialization-driver method wired by DISPATCH edges to
	// every hierarchy-derived JVM deserialization callback (readObject/
	// readResolve/readExternal of Serializable classes and
	// InvocationHandler.invoke). The pass runs last, so with the gate off
	// the graph is byte-identical to a build without the pass.
	SerializationDispatch bool
}

// Stats counts what Build produced; the Table VIII experiment reports
// these next to wall-clock time.
type Stats struct {
	ClassNodes     int
	MethodNodes    int
	ExtendEdges    int
	InterfaceEdges int
	HasEdges       int
	CallEdges      int
	PrunedCalls    int
	AliasEdges     int
}

// TotalEdges sums every relationship the build created.
func (s Stats) TotalEdges() int {
	return s.ExtendEdges + s.InterfaceEdges + s.HasEdges + s.CallEdges + s.AliasEdges
}

// Graph is a built code property graph plus the lookup tables that tie it
// back to the analyzed program.
type Graph struct {
	DB      *graphdb.DB
	Program *jimple.Program
	Taint   *taint.Result
	Stats   Stats
	// DispatchEdges counts the DISPATCH edges the serialization pass
	// synthesized (0 with the pass disabled). Kept out of Stats, whose
	// rendering is pinned by the cold-build golden.
	DispatchEdges int

	classNode  map[string]graphdb.ID
	methodNode map[java.MethodKey]graphdb.ID
	methodKey  map[graphdb.ID]java.MethodKey
}

// ClassNode returns the node ID for the class name (0 when absent).
func (g *Graph) ClassNode(name string) graphdb.ID { return g.classNode[name] }

// MethodNode returns the node ID for the method key (0 when absent).
func (g *Graph) MethodNode(key java.MethodKey) graphdb.ID { return g.methodNode[key] }

// MethodKeyOf returns the method key of a method node ID.
func (g *Graph) MethodKeyOf(id graphdb.ID) (java.MethodKey, bool) {
	k, ok := g.methodKey[id]
	return k, ok
}

// MethodCount returns the number of method nodes.
func (g *Graph) MethodCount() int { return len(g.methodNode) }

// SinkNodes returns every method node tagged IS_SINK, in ID order.
func (g *Graph) SinkNodes() []graphdb.ID {
	return g.DB.FindNodes(LabelMethod, PropIsSink, true)
}

// SourceNodes returns every method node tagged IS_SOURCE, in ID order.
func (g *Graph) SourceNodes() []graphdb.ID {
	return g.DB.FindNodes(LabelMethod, PropIsSource, true)
}

// Build runs the full pipeline of §III-B: controllability analysis, then
// ORG + PCG + MAG assembly into a fresh graph database.
//
// With Workers > 1 the expensive per-element work — hierarchy walks,
// source/sink matching, Action rendering, callee resolution, alias
// lookup — is precomputed concurrently (class-property precomputation
// even overlaps the controllability analysis itself, which does not need
// it), while materialization stays a single deterministic batch fill so
// node and relationship IDs never depend on the worker count.
func Build(prog *jimple.Program, opts Options) (*Graph, error) {
	opts = normalizeOptions(opts)
	workers := parallel.Resolve(opts.Workers)
	b := newBuilder(prog, opts)

	if workers > 1 {
		// Class properties depend only on the hierarchy, so their
		// precomputation overlaps the controllability analysis.
		done := make(chan error, 1)
		go func() {
			profiling.Stage("taint", func() {
				res, err := taint.Analyze(prog, opts.Taint)
				b.g.Taint = res
				done <- err
			})
		}()
		profiling.Stage("cpg", b.precomputeClassProps)
		if err := <-done; err != nil {
			return nil, fmt.Errorf("cpg: %w", err)
		}
	} else {
		var res *taint.Result
		var err error
		profiling.Stage("taint", func() { res, err = taint.Analyze(prog, opts.Taint) })
		if err != nil {
			return nil, fmt.Errorf("cpg: %w", err)
		}
		b.g.Taint = res
		b.precomputeClassProps()
	}
	return b.finish()
}

// BuildWithResult assembles the graph from an already-computed
// controllability result. The incremental pipeline uses it so a full graph
// rebuild (the fallback when a delta is unsound) still reuses cached
// method summaries instead of re-running the fixpoints. The graph is
// byte-identical to Build's: assembly is deterministic given (prog, res).
func BuildWithResult(prog *jimple.Program, res *taint.Result, opts Options) (*Graph, error) {
	opts = normalizeOptions(opts)
	b := newBuilder(prog, opts)
	b.g.Taint = res
	b.precomputeClassProps()
	return b.finish()
}

func normalizeOptions(opts Options) Options {
	if opts.Sinks == nil {
		opts.Sinks = sinks.Default()
	}
	if len(opts.Sources.MethodNames) == 0 {
		opts.Sources = sinks.DefaultSources()
	}
	if opts.Taint.Workers == 0 {
		opts.Taint.Workers = opts.Workers
	}
	return opts
}

func newBuilder(prog *jimple.Program, opts Options) *builder {
	g := &Graph{
		DB:         graphdb.New(),
		Program:    prog,
		classNode:  make(map[string]graphdb.ID),
		methodNode: make(map[java.MethodKey]graphdb.ID),
		methodKey:  make(map[graphdb.ID]java.MethodKey),
	}
	return &builder{g: g, opts: opts, batch: g.DB.NewBatch()}
}

func (b *builder) finish() (*Graph, error) {
	var err error
	profiling.Stage("cpg", func() {
		b.precomputeMethodWork()
		if err = b.buildORG(); err != nil {
			err = fmt.Errorf("cpg: ORG: %w", err)
			return
		}
		var counts edges.Counts
		for _, pass := range edges.Pipeline(b.opts.SerializationDispatch) {
			if perr := pass.Synthesize(b, &counts); perr != nil {
				err = fmt.Errorf("cpg: %s: %w", pass.Name(), perr)
				return
			}
		}
		b.g.Stats.CallEdges = counts.CallEdges
		b.g.Stats.PrunedCalls = counts.PrunedCalls
		b.g.Stats.AliasEdges = counts.AliasEdges
		b.g.DispatchEdges = counts.DispatchEdges
		if err = b.batch.Flush(); err != nil {
			err = fmt.Errorf("cpg: flush: %w", err)
		}
	})
	if err != nil {
		return nil, err
	}
	return b.g, nil
}

// Shared label slices: batch creations transfer ownership without
// copying, and graphdb never mutates a node's label slice.
var (
	classLabels  = []string{LabelClass}
	methodLabels = []string{LabelMethod}
)

type builder struct {
	g     *Graph
	opts  Options
	batch *graphdb.Batch

	classProps  map[string]graphdb.Props
	methodProps map[java.MethodKey]graphdb.Props
	// callTargets mirrors Taint.Calls: the resolved callee for each edge
	// of each caller (nil → phantom). aliasSupers holds each declared
	// method's MAG targets.
	callTargets map[java.MethodKey][]*java.Method
	aliasSupers map[java.MethodKey][]*java.Method
	// nodeByIID indexes method nodes by the method key's process-wide
	// intern id (internal/intern), so the PCG/MAG passes — which revisit
	// every method once per call/alias edge — resolve nodes with a slice
	// index instead of a string-keyed map probe. 0 means "no node yet"
	// (graphdb IDs start at 1).
	nodeByIID []graphdb.ID
}

// precomputeClassProps fills classProps for every known class
// concurrently. Only reads the (immutable) hierarchy.
func (b *builder) precomputeClassProps() {
	names := b.g.Program.Hierarchy.SortedClassNames()
	props := parallel.Map(b.opts.Workers, names, func(_ int, name string) graphdb.Props {
		return b.computeClassProps(name)
	})
	b.classProps = make(map[string]graphdb.Props, len(names))
	for i, name := range names {
		b.classProps[name] = props[i]
	}
}

// precomputeMethodWork fills methodProps, callTargets, and aliasSupers
// concurrently. Needs the taint result (for Action strings), so it runs
// after the analysis joins.
func (b *builder) precomputeMethodWork() {
	h := b.g.Program.Hierarchy

	var methods []*java.Method
	for _, name := range h.SortedClassNames() {
		c := h.Class(name)
		for _, key := range c.SortedMethodKeys() {
			if m := h.MethodByKey(key); m != nil {
				methods = append(methods, m)
			}
		}
	}
	type methodWork struct {
		props  graphdb.Props
		supers []*java.Method
	}
	work := parallel.Map(b.opts.Workers, methods, func(_ int, m *java.Method) methodWork {
		return methodWork{props: b.computeMethodProps(m), supers: h.AliasSupers(m)}
	})
	b.methodProps = make(map[java.MethodKey]graphdb.Props, len(methods))
	b.aliasSupers = make(map[java.MethodKey][]*java.Method, len(methods))
	for i, m := range methods {
		b.methodProps[m.Key()] = work[i].props
		b.aliasSupers[m.Key()] = work[i].supers
	}

	callers := sortutil.SortedKeys(b.g.Taint.Calls)
	targets := parallel.Map(b.opts.Workers, callers, func(_ int, key java.MethodKey) []*java.Method {
		calls := b.g.Taint.Calls[key]
		out := make([]*java.Method, len(calls))
		for i, call := range calls {
			out[i] = h.ResolveMethod(call.CalleeClass, call.CalleeSub)
		}
		return out
	})
	b.callTargets = make(map[java.MethodKey][]*java.Method, len(callers))
	for i, key := range callers {
		b.callTargets[key] = targets[i]
	}
}

// buildORG creates class and method nodes with EXTEND/INTERFACE/HAS edges
// (§III-B2 "Object Relationship Graph Extraction").
func (b *builder) buildORG() error {
	h := b.g.Program.Hierarchy
	for _, name := range h.SortedClassNames() {
		b.classNodeFor(name)
	}
	// Edges in a second pass so every endpoint exists.
	for _, name := range h.SortedClassNames() {
		c := h.Class(name)
		from := b.g.classNode[name]
		if c.Super != "" {
			b.batch.CreateRel(RelExtend, from, b.classNodeFor(c.Super), nil)
			b.g.Stats.ExtendEdges++
		}
		for _, iface := range c.Interfaces {
			b.batch.CreateRel(RelInterface, from, b.classNodeFor(iface), nil)
			b.g.Stats.InterfaceEdges++
		}
		for _, key := range c.SortedMethodKeys() {
			m := h.MethodByKey(key)
			if m == nil {
				return fmt.Errorf("method %s vanished", key)
			}
			if _, err := b.methodNodeFor(m); err != nil {
				return err
			}
		}
	}
	return nil
}

// computeClassProps builds the property map of one class node.
func (b *builder) computeClassProps(name string) graphdb.Props {
	h := b.g.Program.Hierarchy
	c := h.Class(name)
	props := graphdb.Props{PropName: name}
	if c != nil {
		props[PropIsInterface] = c.IsInterface()
		props[PropSuper] = c.Super
		props[PropIsSerializable] = h.IsSerializable(name)
		props[PropArchive] = c.Archive
		props[PropIsPhantom] = c.Phantom
	} else {
		props[PropIsPhantom] = true
	}
	return props
}

func (b *builder) classNodeFor(name string) graphdb.ID {
	if id, ok := b.g.classNode[name]; ok {
		return id
	}
	props, ok := b.classProps[name]
	if !ok {
		props = b.computeClassProps(name)
	}
	// Props are computed fresh per class and never touched after this
	// point, so the batch takes them un-cloned.
	id := b.batch.CreateNodeOwned(classLabels, props)
	b.g.classNode[name] = id
	b.g.Stats.ClassNodes++
	return id
}

// computeMethodProps builds the property map of one method node: the
// source/sink tags, Trigger_Condition, and Action summary.
func (b *builder) computeMethodProps(m *java.Method) graphdb.Props {
	h := b.g.Program.Hierarchy
	key := m.Key()
	props := graphdb.Props{
		PropName:           string(key),
		PropClass:          m.ClassName,
		PropMethodName:     m.Name,
		PropSubSignature:   m.SubSignature(),
		PropParamCount:     len(m.Params),
		PropIsStatic:       m.IsStatic(),
		PropIsAbstract:     m.IsAbstract(),
		PropIsSerializable: h.IsSerializable(m.ClassName),
		PropHasBody:        b.g.Program.Body(key) != nil,
	}
	props[PropIsSource] = b.opts.Sources.IsSource(h, m)
	if s, ok := b.opts.Sinks.Match(h, m.ClassName, m.Name); ok {
		props[PropIsSink] = true
		props[PropSinkType] = string(s.Type)
		props[PropTriggerCondition] = append([]int(nil), s.TC...)
	} else {
		props[PropIsSink] = false
	}
	if act, ok := b.g.Taint.Actions[key]; ok {
		props[PropAction] = act.String()
	}
	return props
}

// methodNodeFor creates (once) the node for a declared method, tagging
// source/sink status, the Trigger_Condition and the Action summary, and
// linking it to its class with HAS.
func (b *builder) methodNodeFor(m *java.Method) (graphdb.ID, error) {
	iid := m.InternID()
	if int(iid) < len(b.nodeByIID) {
		if id := b.nodeByIID[iid]; id != 0 {
			return id, nil
		}
	}
	key := m.Key()
	if id, ok := b.g.methodNode[key]; ok {
		// Same key reached through a distinct phantom Method value; cache
		// its intern id too so the next edge takes the fast path.
		b.recordIID(iid, id)
		return id, nil
	}
	props, ok := b.methodProps[key]
	if !ok { // phantom callee discovered during PCG assembly
		props = b.computeMethodProps(m)
	}
	id := b.batch.CreateNodeOwned(methodLabels, props)
	b.g.methodNode[key] = id
	b.g.methodKey[id] = key
	b.recordIID(iid, id)
	b.g.Stats.MethodNodes++
	b.batch.CreateRel(RelHas, b.classNodeFor(m.ClassName), id, nil)
	b.g.Stats.HasEdges++
	return id, nil
}

func (b *builder) recordIID(iid int32, id graphdb.ID) {
	for int(iid) >= len(b.nodeByIID) {
		grown := make([]graphdb.ID, int(iid)+1+len(b.nodeByIID)/2)
		copy(grown, b.nodeByIID)
		b.nodeByIID = grown
	}
	b.nodeByIID[iid] = id
}

// phantomMethodFor materializes a node for a callee that resolves to no
// declared method (phantom classes, unmodelled library methods), so call
// edges never dangle — the same policy Soot applies to phantom methods.
func (b *builder) phantomMethodFor(class, sub string) (graphdb.ID, error) {
	_, name, params, err := java.SplitMethodKey(java.MethodKey("#" + sub))
	if err != nil {
		return 0, fmt.Errorf("phantom callee %s#%s: %w", class, sub, err)
	}
	m := &java.Method{
		ClassName: class,
		Name:      name,
		Params:    params,
		Return:    java.ObjectType,
		Modifiers: java.ModPublic | java.ModAbstract,
	}
	return b.methodNodeFor(m)
}

// The builder is the edges.Host of the synthesis pipeline: passes reach
// node materialization and the precomputed resolution tables through
// these methods, while ownership of batch order stays here.

// Hierarchy implements edges.Host.
func (b *builder) Hierarchy() *java.Hierarchy { return b.g.Program.Hierarchy }

// Calls implements edges.Host.
func (b *builder) Calls() map[java.MethodKey][]taint.CallEdge { return b.g.Taint.Calls }

// Batch implements edges.Host.
func (b *builder) Batch() *graphdb.Batch { return b.batch }

// KeepPrunedCalls implements edges.Host.
func (b *builder) KeepPrunedCalls() bool { return b.opts.KeepPrunedCalls }

// MethodNode implements edges.Host.
func (b *builder) MethodNode(m *java.Method) (graphdb.ID, error) { return b.methodNodeFor(m) }

// PhantomNode implements edges.Host.
func (b *builder) PhantomNode(class, sub string) (graphdb.ID, error) {
	return b.phantomMethodFor(class, sub)
}

// NodeByKey implements edges.Host.
func (b *builder) NodeByKey(key java.MethodKey) (graphdb.ID, bool) {
	id, ok := b.g.methodNode[key]
	return id, ok
}

// ResolvedCallees implements edges.Host.
func (b *builder) ResolvedCallees(caller java.MethodKey) []*java.Method {
	return b.callTargets[caller]
}

// AliasTargets implements edges.Host.
func (b *builder) AliasTargets(m *java.Method) []*java.Method {
	if supers, ok := b.aliasSupers[m.Key()]; ok {
		return supers
	}
	return b.g.Program.Hierarchy.AliasSupers(m)
}
