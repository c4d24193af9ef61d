package searchindex

import (
	"reflect"
	"testing"

	"tabby/internal/cpg"
	"tabby/internal/graphdb"
)

// buildGraph assembles a small CPG-shaped store:
//
//	sink  — IS_SINK, TC [1,0,1] (normalizes to [0,1]), SINK_TYPE EXEC
//	mid   -CALL→ sink   PP [0,0]
//	src   -CALL→ mid    PP [0,0]   (IS_SOURCE)
//	alias -ALIAS→ mid
//	bare  -CALL→ sink   (no PP property)
func buildGraph(t *testing.T) (*graphdb.DB, map[string]graphdb.ID) {
	t.Helper()
	db := graphdb.New()
	ids := map[string]graphdb.ID{}
	node := func(name string, props graphdb.Props) {
		if props == nil {
			props = graphdb.Props{}
		}
		props[cpg.PropName] = name
		ids[name] = db.CreateNode([]string{cpg.LabelMethod}, props)
	}
	node("sink", graphdb.Props{
		cpg.PropIsSink:           true,
		cpg.PropSinkType:         "EXEC",
		cpg.PropTriggerCondition: []int{1, 0, 1},
	})
	node("mid", nil)
	node("src", graphdb.Props{cpg.PropIsSource: true})
	node("alias", nil)
	node("bare", nil)
	rel := func(typ, from, to string, props graphdb.Props) {
		if _, err := db.CreateRel(typ, ids[from], ids[to], props); err != nil {
			t.Fatal(err)
		}
	}
	rel(cpg.RelCall, "mid", "sink", graphdb.Props{cpg.PropPollutedPosition: []int{0, 0}})
	rel(cpg.RelCall, "src", "mid", graphdb.Props{cpg.PropPollutedPosition: []int{0, 0}})
	rel(cpg.RelAlias, "alias", "mid", nil)
	rel(cpg.RelCall, "bare", "sink", nil)
	return db, ids
}

func TestCompileLayout(t *testing.T) {
	db, ids := buildGraph(t)
	ix := Compile(db)

	if ix.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", ix.NumNodes())
	}
	// Dense renumbering is ascending store-ID order, round-trippable.
	for name, id := range ids {
		v := ix.IdxOf(id)
		if v < 0 || ix.IDOf(v) != id {
			t.Fatalf("renumbering broken for %s: idx %d, id %d", name, v, id)
		}
		if ix.Name(v) != name {
			t.Errorf("Name(%s) = %q", name, ix.Name(v))
		}
	}
	if ix.IdxOf(graphdb.ID(9999)) != -1 {
		t.Error("IdxOf(unknown) should be -1")
	}

	sink := ix.IdxOf(ids["sink"])
	mid := ix.IdxOf(ids["mid"])
	src := ix.IdxOf(ids["src"])
	alias := ix.IdxOf(ids["alias"])
	bare := ix.IdxOf(ids["bare"])

	if !ix.IsSink(sink) || ix.IsSink(mid) {
		t.Error("IS_SINK bitset wrong")
	}
	if !ix.IsSource(src) || ix.IsSource(sink) {
		t.Error("IS_SOURCE bitset wrong")
	}
	if ix.SinkType(sink) != "EXEC" || ix.SinkType(mid) != "" {
		t.Error("SINK_TYPE column wrong")
	}

	// TC column is normalized (sorted, deduped).
	if ref := ix.TCRef(sink); ref < 0 {
		t.Fatal("sink TC missing")
	} else if got := ix.Ints(ref); !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Errorf("sink TC = %v, want [0 1]", got)
	}
	if ix.TCRef(mid) != -1 {
		t.Error("mid must have no TC")
	}

	// Incoming CALL CSR at sink: mid then bare, in adjacency order; the
	// PP-less edge keeps its slot with ref -1 (expansion parity with the
	// generic traversal, which spends budget before rejecting it).
	lo, hi := ix.CallRange(sink)
	if hi-lo != 2 {
		t.Fatalf("sink call edges = %d, want 2", hi-lo)
	}
	c0, pp0 := ix.CallEdge(lo)
	c1, pp1 := ix.CallEdge(lo + 1)
	if c0 != mid || c1 != bare {
		t.Errorf("callers = %d,%d want %d,%d", c0, c1, mid, bare)
	}
	if pp0 < 0 || !reflect.DeepEqual(ix.Ints(pp0), []int32{0, 0}) {
		t.Errorf("edge PP = %v", ix.Ints(pp0))
	}
	if pp1 != -1 {
		t.Errorf("PP-less edge ref = %d, want -1", pp1)
	}

	// The two identical PP arrays intern to the same ref (stored once).
	lom, him := ix.CallRange(mid)
	if him-lom != 1 {
		t.Fatalf("mid call edges = %d, want 1", him-lom)
	}
	if _, ppm := ix.CallEdge(lom); ppm != pp0 {
		t.Errorf("identical PPs interned to distinct refs %d and %d", ppm, pp0)
	}

	// ALIAS CSR is bidirectional: visible from both endpoints.
	if lo, hi := ix.AliasRange(mid); hi-lo != 1 || ix.AliasTarget(lo) != alias {
		t.Errorf("mid alias neighbours wrong: range %d..%d", lo, hi)
	}
	if lo, hi := ix.AliasRange(alias); hi-lo != 1 || ix.AliasTarget(lo) != mid {
		t.Errorf("alias alias-neighbours wrong: range %d..%d", lo, hi)
	}

	st := ix.Stats()
	if st.Nodes != 5 || st.CallEdges != 3 || st.AliasSlots != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.InternedArrays < 2 { // [0 1] TC and [0 0] PP at least
		t.Errorf("interned arrays = %d", st.InternedArrays)
	}
}

func TestAliasSelfLoopTargetsSelf(t *testing.T) {
	db := graphdb.New()
	a := db.CreateNode([]string{cpg.LabelMethod}, graphdb.Props{cpg.PropName: "a"})
	if _, err := db.CreateRel(cpg.RelAlias, a, a, nil); err != nil {
		t.Fatal(err)
	}
	ix := Compile(db)
	v := ix.IdxOf(a)
	lo, hi := ix.AliasRange(v)
	// The self-loop occupies two slots (out + in), both resolving to the
	// node itself — exactly what Rels(DirBoth)+Other yields.
	if hi-lo != 2 {
		t.Fatalf("self-loop slots = %d, want 2", hi-lo)
	}
	for e := lo; e < hi; e++ {
		if ix.AliasTarget(e) != v {
			t.Errorf("self-loop target = %d, want %d", ix.AliasTarget(e), v)
		}
	}
}

func TestForCachesUntilMutation(t *testing.T) {
	db, ids := buildGraph(t)
	before := Builds()
	ix1 := For(db)
	ix2 := For(db)
	if ix1 != ix2 {
		t.Fatal("For rebuilt the index with no mutation")
	}
	if Builds() != before+1 {
		t.Fatalf("builds = %d, want %d", Builds(), before+1)
	}
	// A mutation invalidates the cached view.
	batch := db.NewBatch()
	batch.SetNodeProp(ids["mid"], cpg.PropIsSource, true)
	if err := batch.Flush(); err != nil {
		t.Fatal(err)
	}
	ix3 := For(db)
	if ix3 == ix1 {
		t.Fatal("For served a stale index after mutation")
	}
	if !ix3.IsSource(ix3.IdxOf(ids["mid"])) {
		t.Error("rebuilt index missing the new IS_SOURCE bit")
	}
	// Frozen stores cache forever.
	db.Freeze()
	if For(db) != For(db) {
		t.Fatal("frozen store index not cached")
	}
}

func TestIntPool(t *testing.T) {
	var p IntPool
	a := p.Intern([]int32{1, 2, 3})
	b := p.Intern([]int32{1, 2})
	c := p.Intern([]int32{1, 2, 3})
	empty := p.Intern(nil)
	if a != c {
		t.Errorf("identical arrays got refs %d and %d", a, c)
	}
	if a == b {
		t.Error("distinct arrays share a ref")
	}
	if !reflect.DeepEqual(p.Get(a), []int32{1, 2, 3}) || !reflect.DeepEqual(p.Get(b), []int32{1, 2}) {
		t.Errorf("Get round-trip failed: %v %v", p.Get(a), p.Get(b))
	}
	if len(p.Get(empty)) != 0 {
		t.Errorf("empty array Get = %v", p.Get(empty))
	}
	if p.Count() != 3 {
		t.Errorf("Count = %d, want 3", p.Count())
	}
	// Prefix safety: [1 2] must not collide with the prefix of [1 2 3].
	if got := p.Get(b); &got[0] == &p.Get(a)[0] && len(got) == 2 {
		// Sharing storage would be fine; sharing refs would not. Nothing
		// to assert beyond the ref inequality above.
		_ = got
	}
}

func TestAppendNormalized(t *testing.T) {
	cases := []struct {
		in   []int
		want []int32
	}{
		{nil, nil},
		{[]int{3, 1, 2, 1, 3}, []int32{1, 2, 3}},
		{[]int{0}, []int32{0}},
		{[]int{5, 4, 3, 2, 1}, []int32{1, 2, 3, 4, 5}},
		{[]int{2, 2, 2}, []int32{2}},
	}
	for _, c := range cases {
		got := appendNormalized(nil, c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("appendNormalized(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Appending after a base preserves the prefix.
	got := appendNormalized([]int32{9, 9}, []int{2, 1})
	if !reflect.DeepEqual(got, []int32{9, 9, 1, 2}) {
		t.Errorf("base-relative normalize = %v", got)
	}
}

func TestQuerySideView(t *testing.T) {
	db, ids := buildGraph(t)
	// Give one node a non-string NAME to exercise the presence bits, and
	// add parallel + reversed CALL edges to exercise sort/dedup.
	weird := db.CreateNode([]string{cpg.LabelClass}, graphdb.Props{cpg.PropName: 42})
	if _, err := db.CreateRel(cpg.RelCall, ids["mid"], ids["sink"], nil); err != nil {
		t.Fatal(err) // parallel edge mid-CALL->sink
	}
	if _, err := db.CreateRel(cpg.RelCall, ids["sink"], ids["mid"], nil); err != nil {
		t.Fatal(err) // reversed edge
	}
	ix := Compile(db)

	sink := ix.IdxOf(ids["sink"])
	mid := ix.IdxOf(ids["mid"])
	src := ix.IdxOf(ids["src"])
	alias := ix.IdxOf(ids["alias"])
	bare := ix.IdxOf(ids["bare"])
	wv := ix.IdxOf(weird)

	// Label bitsets: five Methods, one Class, nothing else.
	methods := ix.LabelBits(cpg.LabelMethod)
	classes := ix.LabelBits(cpg.LabelClass)
	if methods == nil || classes == nil {
		t.Fatal("label bitsets missing")
	}
	pop := func(bs []uint64) (n int) {
		for _, w := range bs {
			for ; w != 0; w &= w - 1 {
				n++
			}
		}
		return
	}
	if pop(methods) != 5 || pop(classes) != 1 {
		t.Errorf("label populations = %d methods, %d classes", pop(methods), pop(classes))
	}
	if classes[wv>>6]&(1<<(uint(wv)&63)) == 0 {
		t.Error("weird node missing from Class bitset")
	}
	if ix.LabelBits("NoSuchLabel") != nil {
		t.Error("unknown label should have nil bitset")
	}

	// Presence bits distinguish absent/non-string from string-typed.
	if !ix.HasName(sink) || ix.HasName(wv) {
		t.Errorf("HasName: sink=%v weird=%v", ix.HasName(sink), ix.HasName(wv))
	}
	if !ix.HasSinkType(sink) || ix.HasSinkType(mid) {
		t.Error("HasSinkType bits wrong")
	}
	if ix.SourceBits()[src>>6]&(1<<(uint(src)&63)) == 0 {
		t.Error("SourceBits missing src")
	}
	if ix.SinkBits()[sink>>6]&(1<<(uint(sink)&63)) == 0 {
		t.Error("SinkBits missing sink")
	}

	// RelTypes sorted ascending.
	if got := ix.RelTypes(); !reflect.DeepEqual(got, []string{cpg.RelAlias, cpg.RelCall}) {
		t.Errorf("RelTypes = %v", got)
	}

	// Sink's CALL in-neighbours: {mid, bare} sorted ascending with the
	// parallel mid edge deduped; out-neighbours: {mid} via the reversed
	// edge.
	want := []int32{mid, bare}
	if want[0] > want[1] {
		want[0], want[1] = want[1], want[0]
	}
	if got := ix.InNeighbors(cpg.RelCall, sink); !reflect.DeepEqual(got, want) {
		t.Errorf("sink CALL in = %v, want %v", got, want)
	}
	if got := ix.OutNeighbors(cpg.RelCall, sink); !reflect.DeepEqual(got, []int32{mid}) {
		t.Errorf("sink CALL out = %v", got)
	}
	// Mid's CALL out-neighbours dedupe the parallel edge to just {sink}.
	if got := ix.OutNeighbors(cpg.RelCall, mid); !reflect.DeepEqual(got, []int32{sink}) {
		t.Errorf("mid CALL out = %v", got)
	}
	// ALIAS is stored directionally here (the planner walks both rows for
	// its bidirectional semantics).
	if got := ix.OutNeighbors(cpg.RelAlias, alias); !reflect.DeepEqual(got, []int32{mid}) {
		t.Errorf("alias ALIAS out = %v", got)
	}
	if got := ix.InNeighbors(cpg.RelAlias, mid); !reflect.DeepEqual(got, []int32{alias}) {
		t.Errorf("mid ALIAS in = %v", got)
	}
	// Absent type / empty rows.
	if ix.OutNeighbors("NOPE", sink) != nil {
		t.Error("unknown type should yield nil")
	}
	if got := ix.OutNeighbors(cpg.RelCall, alias); len(got) != 0 {
		t.Errorf("alias CALL out = %v, want empty", got)
	}
	_ = bare
}
