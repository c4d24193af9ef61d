package taint

import (
	"fmt"
	"sort"
	"sync"

	"tabby/internal/cfg"
	"tabby/internal/java"
	"tabby/internal/jimple"
	"tabby/internal/parallel"
	"tabby/internal/sortutil"
)

// CallEdge is one method-call site discovered by the analysis, annotated
// with its Polluted_Position. Pruned edges (all-∞ PP) are recorded for
// statistics but excluded from the Precise Call Graph (§III-C).
type CallEdge struct {
	Caller      java.MethodKey
	CalleeClass string // statically referenced class
	CalleeSub   string // callee sub-signature
	Kind        jimple.InvokeKind
	PP          PP
	StmtIndex   int
	Pruned      bool
}

// Callee returns the statically referenced callee method key.
func (e CallEdge) Callee() java.MethodKey {
	return java.MethodKey(e.CalleeClass + "#" + e.CalleeSub)
}

// Result holds everything the controllability analysis computed.
type Result struct {
	// Actions maps each analyzed method to its summary (Table III).
	Actions map[java.MethodKey]Action
	// Calls maps each caller to its call edges in statement order.
	Calls map[java.MethodKey][]CallEdge
	// TotalCalls and PrunedCalls summarize the pruning effectiveness.
	TotalCalls  int
	PrunedCalls int
}

// Options tunes the analysis.
type Options struct {
	// MaxIterations bounds the per-method dataflow iterations as a safety
	// valve. Zero means the default (64 passes).
	MaxIterations int
	// DisableInterprocedural replaces every callee summary with the
	// optimistic default ("parameters keep their controllability") — the
	// ablation of §III-C's claim that interprocedural Action analysis is
	// what keeps the false-positive rate down. Tools without it "default
	// to [the value] not changing (still controllable)".
	DisableInterprocedural bool
	// Workers bounds the number of concurrent per-method analyses inside
	// one scheduling wave. Zero selects runtime.GOMAXPROCS(0); 1 runs
	// the exact sequential path. Output is identical at every setting.
	Workers int
}

const defaultMaxIterations = 64

// Analyze runs the controllability points-to analysis (Algorithm 1) over
// every method body in the program.
//
// Scheduling: the method-call dependency graph is condensed into
// strongly connected components (Tarjan) and the per-method fixpoints
// run bottom-up in reverse-topological waves — every summary a method
// consults was memoized in an earlier wave, and independent components
// within one wave are analyzed concurrently (Options.Workers). Inside a
// cyclic component the paper's cache-as-cycle-breaker applies: a member
// whose analysis is in progress summarizes as the identity Action.
func Analyze(prog *jimple.Program, opts Options) (*Result, error) {
	res, _, err := AnalyzeWithCache(prog, opts, nil)
	return res, err
}

// AnalyzeWithCache is Analyze with an optional cross-run summary cache.
// Components whose cone fingerprint hits the cache are installed into the
// result without running their fixpoints; everything else is analyzed as
// usual and inserted afterwards. Because a hit requires the component's
// entire dependency cone to be unchanged, the Result is byte-identical to
// what a cacheless run would produce. A nil cache makes this exactly
// Analyze.
func AnalyzeWithCache(prog *jimple.Program, opts Options, cache *SummaryCache) (*Result, CacheStats, error) {
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = defaultMaxIterations
	}
	keys := sortutil.SortedKeys(prog.Bodies)
	dep := buildDepGraph(prog, opts, keys)
	succs := func(i int) []int { return dep.succs[i] }
	comps, compOf := parallel.SCCs(len(keys), succs)
	waves := parallel.Waves(comps, compOf, succs)

	a := &analyzer{
		prog:      prog,
		opts:      opts,
		dep:       dep,
		compOf:    compOf,
		summaries: make([]*summary, len(keys)),
		calls:     make([][]CallEdge, len(keys)),
		synth:     make(map[synthKey]*summary),
	}
	stats := CacheStats{Components: len(comps)}
	var coneFPs []string
	cachedComp := make([]bool, len(comps))
	if cache != nil {
		coneFPs = coneFingerprints(prog, opts, keys, dep, comps, compOf, cache)
		for ci, fp := range coneFPs {
			ms, ok := cache.lookup(fp)
			if !ok {
				continue
			}
			// A hit's members must all resolve to current body indices;
			// anything else (fingerprint collision) is treated as a miss.
			idxs := make([]int, len(ms))
			valid := true
			for i, m := range ms {
				idx, ok := dep.indexOf[m.Key]
				if !ok {
					valid = false
					break
				}
				idxs[i] = idx
			}
			if !valid {
				continue
			}
			cachedComp[ci] = true
			stats.ComponentHits++
			stats.MethodsReused += len(ms)
			// Installing before the waves run is safe: only dependents read
			// these entries, and they are all scheduled in later waves.
			for i, m := range ms {
				a.summaries[idxs[i]] = &summary{act: m.Action, plan: buildPlan(m.Action)}
				a.calls[idxs[i]] = m.Calls
			}
		}
	}
	stats.MethodsAnalyzed = len(keys) - stats.MethodsReused

	for _, wave := range waves {
		pending := wave
		if stats.ComponentHits > 0 {
			pending = make([]int, 0, len(wave))
			for _, c := range wave {
				if !cachedComp[c] {
					pending = append(pending, c)
				}
			}
		}
		// Runners write their summaries directly into the analyzer's
		// slices at their own component's indices: distinct components own
		// distinct indices, and cross-component reads only ever target
		// earlier waves, ordered by the wave barrier below.
		runners := parallel.Map(opts.Workers, pending, func(_ int, comp int) *sccRunner {
			r := &sccRunner{a: a, comp: comp, inProgress: make(map[int]bool)}
			r.run(comps[comp])
			return r
		})
		for _, r := range runners {
			if r.err != nil {
				return nil, stats, r.err
			}
		}
	}

	if cache != nil {
		for ci, members := range comps {
			if cachedComp[ci] {
				continue
			}
			ms := make([]MethodSummary, 0, len(members))
			for _, m := range members {
				ms = append(ms, MethodSummary{Key: keys[m], Action: a.summaries[m].act, Calls: a.calls[m]})
			}
			cache.put(coneFPs[ci], ms)
		}
	}

	res := &Result{
		Actions: make(map[java.MethodKey]Action, len(keys)),
		Calls:   make(map[java.MethodKey][]CallEdge, len(keys)),
	}
	for i, k := range keys {
		res.Actions[k] = a.summaries[i].act
		res.Calls[k] = a.calls[i]
		for _, c := range a.calls[i] {
			res.TotalCalls++
			if c.Pruned {
				res.PrunedCalls++
			}
		}
	}
	return res, stats, nil
}

// summary is one method's memoized Action plus its pre-compiled
// application plan. Summaries are written once (under their owner's wave)
// and read-only afterwards.
type summary struct {
	act  Action
	plan *actionPlan
}

// actionPlan is an Action flattened for the invoke transfer: the non-return
// slots in the exact two-phase application order (whole-slot rebinds before
// field updates, each group sorted by rendered slot name) with their callee
// origins, plus the return-slot origin. Compiling the plan once per
// memoized Action removes the per-call-site map allocation and sort.
type actionPlan struct {
	slots     []Slot
	origins   []Origin
	retOrigin Origin
	hasRet    bool
}

func buildPlan(act Action) *actionPlan {
	p := &actionPlan{}
	p.retOrigin, p.hasRet = act[SlotReturnValue]
	slots := make([]Slot, 0, len(act))
	for s := range act {
		if s.Kind != SlotReturn {
			slots = append(slots, s)
		}
	}
	sort.Slice(slots, func(i, j int) bool {
		a, b := slots[i], slots[j]
		if (a.Field == "") != (b.Field == "") {
			return a.Field == ""
		}
		return a.String() < b.String()
	})
	p.slots = slots
	p.origins = make([]Origin, len(slots))
	for i, s := range slots {
		p.origins[i] = act[s]
	}
	return p
}

// synthKey identifies a synthetic summary: the identity Action (dynamic
// invokes, in-progress cycle members) or the optimistic one (unresolvable
// callees, interprocedural ablation) for a given arity.
type synthKey struct {
	optimistic bool
	n          int
	static     bool
}

// analyzer holds the cross-wave state: memoized summaries and call edges
// of every completed component, indexed by body index (dep.keys order).
type analyzer struct {
	prog      *jimple.Program
	opts      Options
	dep       *depGraph
	compOf    []int
	summaries []*summary
	calls     [][]CallEdge

	synthMu sync.RWMutex
	synth   map[synthKey]*summary

	scratch sync.Pool // *methodScratch
}

func (a *analyzer) getScratch() *methodScratch {
	if v := a.scratch.Get(); v != nil {
		return v.(*methodScratch)
	}
	return &methodScratch{ct: newCellTable()}
}

func (a *analyzer) putScratch(ms *methodScratch) {
	ms.sites = nil
	a.scratch.Put(ms)
}

// synthSummary returns the shared identity/optimistic summary for the
// arity. The Actions are never mutated, so one instance serves every call
// site of the same shape.
func (a *analyzer) synthSummary(optimistic bool, n int, static bool) *summary {
	k := synthKey{optimistic: optimistic, n: n, static: static}
	a.synthMu.RLock()
	s := a.synth[k]
	a.synthMu.RUnlock()
	if s != nil {
		return s
	}
	var act Action
	if optimistic {
		act = OptimisticAction(n, static)
	} else {
		act = IdentityAction(n, static)
	}
	s = &summary{act: act, plan: buildPlan(act)}
	a.synthMu.Lock()
	if prev := a.synth[k]; prev != nil {
		s = prev
	} else {
		a.synth[k] = s
	}
	a.synthMu.Unlock()
	return s
}

// methodScratch is the per-method-analysis working set: the cell table,
// pooled environments, the RPO worklist heap, and the per-statement edge
// buffers. One analysis owns one scratch exclusively; recursive analyses
// inside a cyclic component acquire their own from the analyzer pool.
type methodScratch struct {
	ct    *cellTable
	pool  envPool
	sites []callSite

	inStates []env
	visited  []bool
	rpoPos   []int
	queued   []bool
	heap     []int
	siteAt   []int32
	edges    []CallEdge
	hasEdge  []bool

	args   []Origin
	mapped []Origin
}

func growBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// prepare sizes every per-statement buffer for the body and indexes its
// call sites by statement.
func (ms *methodScratch) prepare(body *jimple.Body, numStmts int, sites []callSite) {
	ms.ct.reset(body)
	ms.sites = sites
	n := numStmts
	if len(body.Stmts) > n {
		n = len(body.Stmts)
	}
	if cap(ms.inStates) < n {
		ms.inStates = make([]env, n)
	} else {
		ms.inStates = ms.inStates[:n]
		clear(ms.inStates)
	}
	ms.visited = growBools(ms.visited, n)
	ms.queued = growBools(ms.queued, n)
	ms.hasEdge = growBools(ms.hasEdge, n)
	if cap(ms.rpoPos) < n {
		ms.rpoPos = make([]int, n)
	} else {
		ms.rpoPos = ms.rpoPos[:n]
	}
	if cap(ms.siteAt) < n {
		ms.siteAt = make([]int32, n)
	} else {
		ms.siteAt = ms.siteAt[:n]
	}
	for i := range ms.siteAt {
		ms.siteAt[i] = -1
	}
	if cap(ms.edges) < n {
		ms.edges = make([]CallEdge, n)
	} else {
		ms.edges = ms.edges[:n]
	}
	ms.heap = ms.heap[:0]
	for si := range sites {
		ms.siteAt[sites[si].stmt] = int32(si)
	}
}

// push enqueues a node on the worklist heap keyed by RPO position.
func (ms *methodScratch) push(n int) {
	if ms.queued[n] {
		return
	}
	ms.queued[n] = true
	ms.heap = append(ms.heap, n)
	h, pos := ms.heap, ms.rpoPos
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if pos[h[p]] <= pos[h[i]] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// pop removes and returns the queued node earliest in RPO — the same node
// the previous linear-scan worklist selected, found in O(log n).
func (ms *methodScratch) pop() int {
	h, pos := ms.heap, ms.rpoPos
	n := h[0]
	last := len(h) - 1
	h[0] = h[last]
	ms.heap = h[:last]
	h = ms.heap
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && pos[h[l]] < pos[h[s]] {
			s = l
		}
		if r < len(h) && pos[h[r]] < pos[h[s]] {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	ms.queued[n] = false
	return n
}

// sccRunner analyzes the members of one strongly connected component,
// writing results directly into the analyzer's index-addressed slices.
type sccRunner struct {
	a          *analyzer
	comp       int
	inProgress map[int]bool
	err        error
}

// run analyzes every member; within a cyclic component the recursion
// below fills in the rest on demand.
func (r *sccRunner) run(members []int) {
	for _, idx := range members {
		if _, err := r.methodSummary(idx); err != nil {
			r.err = err
			return
		}
	}
}

// methodSummary returns the memoized summary for the method, running
// doMethodAnalysis on first use. A cycle back into a member whose
// analysis is in progress yields the identity summary, the paper's cache
// acting as its cycle-breaker.
func (r *sccRunner) methodSummary(idx int) (*summary, error) {
	if s := r.a.summaries[idx]; s != nil { // this component or an earlier wave
		return s, nil
	}
	body := r.a.dep.bodies[idx]
	if body == nil {
		return nil, fmt.Errorf("taint: no body for %s", r.a.dep.keys[idx])
	}
	static := body.Method.IsStatic()
	n := len(body.Method.Params)
	if r.a.compOf[idx] != r.comp {
		// Every out-of-component dependency is scheduled in an earlier
		// wave; missing means the dependency graph under-approximated.
		return nil, fmt.Errorf("taint: summary for %s not scheduled before its callers", r.a.dep.keys[idx])
	}
	if r.inProgress[idx] {
		return r.a.synthSummary(false, n, static), nil
	}
	r.inProgress[idx] = true
	defer delete(r.inProgress, idx)
	act, calls, err := r.doMethodAnalysis(idx)
	if err != nil {
		return nil, fmt.Errorf("taint: analyze %s: %w", r.a.dep.keys[idx], err)
	}
	s := &summary{act: act, plan: buildPlan(act)}
	r.a.summaries[idx] = s
	r.a.calls[idx] = calls
	return s, nil
}

// calleeSummary resolves the summary for a call: the resolved body's
// summary when available (site.target), an optimistic one for
// abstract/phantom callees, and the opaque identity for dynamic invokes.
func (r *sccRunner) calleeSummary(inv *jimple.InvokeExpr, target int32) (*summary, error) {
	static := inv.Kind == jimple.InvokeStatic
	n := len(inv.ParamTypes)
	if inv.Kind == jimple.InvokeDynamic {
		// Reflection/dynamic proxy: deliberately opaque (§V-B).
		return r.a.synthSummary(false, n, static), nil
	}
	if r.a.opts.DisableInterprocedural || target < 0 {
		return r.a.synthSummary(true, n, static), nil
	}
	return r.methodSummary(int(target))
}

// doMethodAnalysis runs the per-method dataflow of Algorithm 1 and
// assembles the method's Action plus its call edges.
func (r *sccRunner) doMethodAnalysis(idx int) (Action, []CallEdge, error) {
	body := r.a.dep.bodies[idx]
	graph, err := cfg.Build(body)
	if err != nil {
		return nil, nil, err
	}
	numStmts := graph.NumNodes()
	if numStmts == 0 {
		return IdentityAction(len(body.Method.Params), body.Method.IsStatic()), nil, nil
	}
	action := make(Action)

	ms := r.a.getScratch()
	defer r.a.putScratch(ms)
	ms.prepare(body, numStmts, r.a.dep.sites[idx])

	rpo := graph.ReversePostOrder()
	for i, n := range rpo {
		ms.rpoPos[n] = i
	}
	ms.visited[0] = true
	ms.inStates[0] = ms.pool.get(0)
	ms.push(0)

	iterations := 0
	maxVisits := r.a.opts.MaxIterations * numStmts
	for len(ms.heap) > 0 {
		if iterations++; iterations > maxVisits {
			// Safety valve: bail out with what we have rather than spin.
			break
		}
		node := ms.pop()
		out := ms.pool.copyOf(ms.inStates[node])
		out, err := r.transfer(ms, body, node, out, action)
		if err != nil {
			return nil, nil, err
		}
		for _, succ := range graph.Succs(node) {
			if !ms.visited[succ] {
				ms.visited[succ] = true
				ms.inStates[succ] = ms.pool.copyOf(out)
				ms.push(succ)
			} else if envJoin(&ms.inStates[succ], out) {
				ms.push(succ)
			}
		}
		ms.pool.put(out)
	}
	for i := 0; i < numStmts; i++ {
		if ms.visited[i] {
			ms.pool.put(ms.inStates[i])
			ms.inStates[i] = nil
		}
	}

	r.finishAction(body, action)
	count := 0
	for i := 0; i < numStmts; i++ {
		if ms.hasEdge[i] {
			count++
		}
	}
	var calls []CallEdge
	if count > 0 {
		calls = make([]CallEdge, 0, count)
		for i := 0; i < numStmts; i++ {
			if ms.hasEdge[i] {
				calls = append(calls, ms.edges[i])
			}
		}
	}
	return action, calls, nil
}

// finishAction fills in slots no return statement touched: a method with
// no reachable return (e.g. one that always throws) still reports the
// identity of this and unmodified params.
func (r *sccRunner) finishAction(body *jimple.Body, action Action) {
	if !body.Method.IsStatic() {
		if _, ok := action[SlotThisValue]; !ok {
			action[SlotThisValue] = This
		}
	} else if _, ok := action[SlotThisValue]; !ok {
		action[SlotThisValue] = Null
	}
	for i := range body.Method.Params {
		slot := FinalParam(i + 1)
		if _, ok := action[slot]; !ok {
			action[slot] = Param(i + 1)
		}
	}
	if _, ok := action[SlotReturnValue]; !ok {
		action[SlotReturnValue] = Null
	}
}

// transfer interprets one statement over the environment, recording call
// edges and Action contributions as side effects.
func (r *sccRunner) transfer(ms *methodScratch, body *jimple.Body, node int, e env, action Action) (env, error) {
	switch st := body.Stmts[node].(type) {
	case *jimple.IdentityStmt:
		switch rhs := st.RHS.(type) {
		case *jimple.ThisRef:
			ms.ct.setLocal(&e, st.Local, This)
		case *jimple.ParamRef:
			ms.ct.setLocal(&e, st.Local, Param(rhs.Index+1))
		}
	case *jimple.AssignStmt:
		if err := r.transferAssign(ms, body, node, st, &e); err != nil {
			return nil, err
		}
	case *jimple.InvokeStmt:
		if _, err := r.transferInvoke(ms, body, node, st.Invoke, &e); err != nil {
			return nil, err
		}
	case *jimple.ReturnStmt:
		r.recordReturn(ms, body, st, e, action)
	case *jimple.IfStmt, *jimple.GotoStmt, *jimple.SwitchStmt, *jimple.ThrowStmt, *jimple.NopStmt:
		// Conditions never transfer controllability (Table IV has no rule
		// for them); path-insensitivity here is exactly the source of the
		// paper's residual false positives (§IV-E).
	}
	return e, nil
}

func (r *sccRunner) transferAssign(ms *methodScratch, body *jimple.Body, node int, st *jimple.AssignStmt, e *env) error {
	var rhs Origin
	switch rv := st.RHS.(type) {
	case *jimple.InvokeExpr:
		ret, err := r.transferInvoke(ms, body, node, rv, e)
		if err != nil {
			return err
		}
		rhs = ret
	default:
		rhs = r.eval(ms, st.RHS, *e)
	}
	switch lhs := st.LHS.(type) {
	case *jimple.Local:
		ms.ct.setLocal(e, lhs, rhs)
		if src, ok := st.RHS.(*jimple.Local); ok {
			ms.ct.copyLocalFields(e, lhs, src)
		}
	case *jimple.FieldRef:
		if lhs.IsStatic() {
			envSet(e, ms.ct.ensure(staticCell(lhs.Class, lhs.Field)), rhs)
		} else {
			ms.ct.storeField(e, lhs.Base, lhs.Field, rhs)
		}
	case *jimple.ArrayRef:
		// Array elements share one pseudo-field "[]" (Table IV array rows).
		ms.ct.storeField(e, lhs.Base, "[]", rhs)
	default:
		return fmt.Errorf("unsupported assignment target %T", st.LHS)
	}
	return nil
}

// eval computes the origin of a non-invoke value (Table IV rows).
func (r *sccRunner) eval(ms *methodScratch, v jimple.Value, e env) Origin {
	switch val := v.(type) {
	case *jimple.Local:
		return ms.ct.localOrigin(e, val)
	case *jimple.ThisRef:
		return This
	case *jimple.ParamRef:
		return Param(val.Index + 1)
	case *jimple.CastExpr:
		return r.eval(ms, val.Op, e) // forced type conversion: b → a
	case *jimple.FieldRef:
		if val.IsStatic() {
			if c := ms.ct.lookup(staticCell(val.Class, val.Field)); c >= 0 {
				if o := e.at(c); o.Kind != 0 {
					return o
				}
			}
			return Null
		}
		return ms.ct.loadField(e, val.Base, val.Field)
	case *jimple.ArrayRef:
		return ms.ct.loadField(e, val.Base, "[]")
	case *jimple.BinopExpr:
		// String concatenation (Jimple's StringBuilder.append chains)
		// propagates taint: "cmd"+p is controllable when p is. Other
		// operators yield primitives, which are uncontrollable.
		if val.Op == jimple.OpAdd && val.Type().Equal(java.StringType) {
			return r.eval(ms, val.L, e).join(r.eval(ms, val.R, e))
		}
		return Null
	default:
		// new, constants, instanceof: uncontrollable.
		return Null
	}
}

// mapOrigin maps one callee-frame origin to the caller's frame (Fig. 5d):
// the in() function of Formula 2.
func (r *sccRunner) mapOrigin(ms *methodScratch, e env, inv *jimple.InvokeExpr, baseOrigin Origin, args []Origin, o Origin) Origin {
	switch o.Kind {
	case OriginNull:
		return Null
	case OriginThis:
		if inv.Base == nil {
			return Null
		}
		if o.Field != "" {
			return ms.ct.loadField(e, inv.Base, o.Field)
		}
		return baseOrigin
	case OriginParam:
		idx := o.Param - 1
		if idx < 0 || idx >= len(inv.Args) {
			return Null
		}
		if o.Field != "" {
			if argLocal, ok := inv.Args[idx].(*jimple.Local); ok {
				return ms.ct.loadField(e, argLocal, o.Field)
			}
			return Null
		}
		return args[idx]
	default:
		return Null
	}
}

// transferInvoke handles both call statement forms of Table IV: it
// computes the PP, records the call edge, applies the callee's Action via
// calc (Formula 2) and correct (Formula 3), and returns the origin of the
// call's return value.
func (r *sccRunner) transferInvoke(ms *methodScratch, body *jimple.Body, node int, inv *jimple.InvokeExpr, e *env) (Origin, error) {
	var baseOrigin Origin = Null
	if inv.Base != nil {
		baseOrigin = ms.ct.localOrigin(*e, inv.Base)
	}
	args := ms.args[:0]
	for _, arg := range inv.Args {
		args = append(args, r.eval(ms, arg, *e))
	}
	ms.args = args

	// Polluted_Position: receiver then arguments. Dynamic invokes record
	// no edge, so their PP is never materialized. On refixpoint visits the
	// edge's existing PP buffer is refilled in place — only this analysis
	// can see it until the method completes.
	var target int32 = -1
	if inv.Kind != jimple.InvokeDynamic {
		site := &ms.sites[ms.siteAt[node]]
		target = site.target
		var pp PP
		if ms.hasEdge[node] {
			pp = ms.edges[node].PP
		} else {
			pp = make(PP, 1+len(inv.Args))
		}
		pp[0] = baseOrigin.Weight()
		for i := range args {
			pp[i+1] = args[i].Weight()
		}
		ms.edges[node] = CallEdge{
			Caller:      body.Method.Key(),
			CalleeClass: inv.Class,
			CalleeSub:   site.sub,
			Kind:        inv.Kind,
			PP:          pp,
			StmtIndex:   node,
			Pruned:      pp.AllUncontrollable(),
		}
		ms.hasEdge[node] = true
	}

	sum, err := r.calleeSummary(inv, target)
	if err != nil {
		return Null, err
	}
	plan := sum.plan

	// calc (Formula 2): map every summarized origin to the caller frame
	// before any of them is applied — application mutates the env the
	// mapping reads.
	mapped := ms.mapped[:0]
	for _, o := range plan.origins {
		mapped = append(mapped, r.mapOrigin(ms, *e, inv, baseOrigin, args, o))
	}
	ms.mapped = mapped
	var ret Origin
	if plan.hasRet {
		ret = r.mapOrigin(ms, *e, inv, baseOrigin, args, plan.retOrigin)
	}

	// Polymorphic returns: a virtual/interface call on a controllable
	// receiver may dispatch to any override, so its reference-typed
	// return is at least as controllable as the receiver (the Fig. 1
	// pattern: valObj.toString() feeding exec). Primitive returns cannot
	// carry object graphs and stay as summarized.
	if (inv.Kind == jimple.InvokeVirtual || inv.Kind == jimple.InvokeInterface) &&
		inv.ReturnType.IsReference() && baseOrigin.Controllable() {
		ret = ret.join(baseOrigin)
	}

	// correct (Formula 3): fold the callee's effects back into the
	// caller's localMap — plan entries win over existing bindings. The
	// plan's order is the original two-phase sorted order: whole-slot
	// rebinds first (they destroy field cells), then field-level updates.
	for i, slot := range plan.slots {
		origin := mapped[i]
		switch slot.Kind {
		case SlotThis:
			if inv.Base == nil {
				continue
			}
			if slot.Field != "" {
				ms.ct.storeField(e, inv.Base, slot.Field, origin)
			} else {
				ms.ct.setLocal(e, inv.Base, origin)
			}
		case SlotParam:
			idx := slot.Param - 1
			if idx < 0 || idx >= len(inv.Args) {
				continue
			}
			argLocal, ok := inv.Args[idx].(*jimple.Local)
			if !ok {
				continue
			}
			if slot.Field != "" {
				ms.ct.storeField(e, argLocal, slot.Field, origin)
			} else {
				ms.ct.setLocal(e, argLocal, origin)
			}
		}
	}
	return ret, nil
}

// recordReturn folds one return statement into the method's Action
// (Algorithm 1 lines 5–7), joining with previously seen returns.
func (r *sccRunner) recordReturn(ms *methodScratch, body *jimple.Body, st *jimple.ReturnStmt, e env, action Action) {
	joinInto := func(slot Slot, o Origin) {
		if cur, ok := action[slot]; ok {
			action[slot] = cur.join(o)
		} else {
			action[slot] = o
		}
	}
	ct := ms.ct
	if st.Op != nil {
		joinInto(SlotReturnValue, r.eval(ms, st.Op, e))
	} else {
		joinInto(SlotReturnValue, Null)
	}
	if !body.Method.IsStatic() {
		joinInto(SlotThisValue, This)
		for _, c := range ct.thisFields {
			if v := e.at(c); v.Kind != 0 {
				joinInto(Slot{Kind: SlotThis, Field: ct.cells[c].name}, v)
			}
		}
	}
	for i, p := range body.Params {
		joinInto(FinalParam(i+1), ct.localOrigin(e, p))
		if i < len(ct.paramFields) {
			for _, c := range ct.paramFields[i] {
				if v := e.at(c); v.Kind != 0 {
					joinInto(Slot{Kind: SlotParam, Param: i + 1, Field: ct.cells[c].name}, v)
				}
			}
		}
	}
}
