package graphdb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestCreateAndFetch(t *testing.T) {
	db := New()
	id := db.CreateNode([]string{"Method"}, Props{"NAME": "a#m()", "PARAMS": 2})
	n := db.Node(id)
	if n == nil || !n.HasLabel("Method") || n.Props["NAME"] != "a#m()" {
		t.Fatalf("node round trip failed: %+v", n)
	}
	if n.HasLabel("Class") {
		t.Error("HasLabel false positive")
	}
	if db.Node(999) != nil {
		t.Error("unknown node must be nil")
	}
	// Snapshot isolation: mutating the returned props must not affect the
	// store.
	n.Props["NAME"] = "tampered"
	if got := db.Node(id).Props["NAME"]; got != "a#m()" {
		t.Errorf("store mutated through snapshot: %v", got)
	}
}

func TestCreateRelValidation(t *testing.T) {
	db := New()
	a := db.CreateNode([]string{"N"}, nil)
	if _, err := db.CreateRel("CALL", a, 42, nil); err == nil {
		t.Error("rel to unknown node must fail")
	}
	if _, err := db.CreateRel("CALL", 42, a, nil); err == nil {
		t.Error("rel from unknown node must fail")
	}
	b := db.CreateNode([]string{"N"}, nil)
	rid, err := db.CreateRel("CALL", a, b, Props{"PP": []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	r := db.Rel(rid)
	if r.Start != a || r.End != b || r.Type != "CALL" {
		t.Fatalf("rel round trip failed: %+v", r)
	}
	if got := r.Props["PP"].([]int); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("PP = %v", got)
	}
	if r.Other(a) != b || r.Other(b) != a {
		t.Error("Other misbehaves")
	}
}

func TestAdjacency(t *testing.T) {
	db := New()
	a := db.CreateNode([]string{"M"}, nil)
	b := db.CreateNode([]string{"M"}, nil)
	c := db.CreateNode([]string{"M"}, nil)
	mustRel(t, db, "CALL", a, b)
	mustRel(t, db, "CALL", c, b)
	mustRel(t, db, "ALIAS", b, c)

	if got := db.Rels(b, DirIn, "CALL"); len(got) != 2 {
		t.Errorf("Rels(b, in, CALL) = %v", got)
	}
	if got := db.Rels(b, DirOut, "ALIAS"); len(got) != 1 || db.Rel(got[0]).End != c {
		t.Errorf("Rels(b, out, ALIAS) = %v", got)
	}
	if got := db.Rels(b, DirBoth); len(got) != 3 {
		t.Errorf("Rels(b, both) = %v", got)
	}
	if got := db.Rels(b, DirBoth, "CALL", "ALIAS"); len(got) != 3 {
		t.Errorf("Rels(b, both, CALL|ALIAS) = %v", got)
	}
	if got := db.Rels(a, DirOut, "NOPE"); len(got) != 0 {
		t.Errorf("type filter failed: %v", got)
	}
}

func mustRel(t *testing.T, db *DB, typ string, from, to ID) ID {
	t.Helper()
	id, err := db.CreateRel(typ, from, to, nil)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestFindNodesLabelScan pins FindNodes' contract: label-scan order
// (creation order), valueKey equality (typed: int 1 is not string "1"),
// and nil for an unknown label, property or value.
func TestFindNodesLabelScan(t *testing.T) {
	db := New()
	var m1 []ID
	for i := 0; i < 10; i++ {
		id := db.CreateNode([]string{"Method"}, Props{"NAME": fmt.Sprintf("m%d", i%3), "N": i % 2})
		if i%3 == 1 {
			m1 = append(m1, id)
		}
	}
	db.CreateNode([]string{"Class"}, Props{"NAME": "m1"})
	if got := db.FindNodes("Method", "NAME", "m1"); !reflect.DeepEqual(got, m1) {
		t.Errorf("FindNodes(NAME=m1) = %v, want %v", got, m1)
	}
	if got := db.FindNodes("Method", "N", 1); len(got) != 5 {
		t.Errorf("FindNodes(N=1) = %d nodes, want 5", len(got))
	}
	for _, c := range []struct {
		label, prop string
		value       any
	}{
		{"Method", "N", "1"},
		{"Method", "NAME", "ghost"},
		{"Method", "MISSING", "m1"},
		{"Nope", "NAME", "m1"},
	} {
		if got := db.FindNodes(c.label, c.prop, c.value); got != nil {
			t.Errorf("FindNodes(%s, %s, %#v) = %v, want nil", c.label, c.prop, c.value, got)
		}
	}
}

func TestStats(t *testing.T) {
	db := New()
	a := db.CreateNode([]string{"Class"}, nil)
	b := db.CreateNode([]string{"Method"}, nil)
	mustRel(t, db, "HAS", a, b)
	s := db.Stats()
	if s.Nodes != 2 || s.Rels != 1 || s.NodesByType["Class"] != 1 || s.RelsByType["HAS"] != 1 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestSetNodePropErrors(t *testing.T) {
	db := New()
	b := db.NewBatch()
	b.SetNodeProp(5, "X", 1)
	if err := b.Flush(); err == nil {
		t.Error("setting prop on unknown node must fail")
	}
	id := db.CreateNode([]string{"N"}, nil)
	b = db.NewBatch()
	b.SetNodeProp(id, "X", 1)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, ok := db.NodeProp(id, "X"); !ok || v != 1 {
		t.Errorf("NodeProp = %v/%v", v, ok)
	}
	if _, ok := db.NodeProp(id, "missing"); ok {
		t.Error("missing prop must report !ok")
	}
	if _, ok := db.NodeProp(999, "X"); ok {
		t.Error("unknown node prop must report !ok")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := New()
	seed := db.CreateNode([]string{"M"}, Props{"NAME": "seed"})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := db.CreateNode([]string{"M"}, Props{"NAME": fmt.Sprintf("w%d-%d", w, i)})
				if _, err := db.CreateRel("CALL", id, seed, nil); err != nil {
					t.Errorf("CreateRel: %v", err)
					return
				}
				db.Rels(seed, DirIn, "CALL")
				db.Stats()
			}
		}(w)
	}
	wg.Wait()
	if got := len(db.Rels(seed, DirIn, "CALL")); got != 800 {
		t.Errorf("in-degree = %d, want 800", got)
	}
}
