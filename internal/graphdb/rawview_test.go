package graphdb

import (
	"reflect"
	"testing"
)

func TestVersionBumpsOnEveryMutation(t *testing.T) {
	db := New()
	v0 := db.Version()
	n1 := db.CreateNode([]string{"L"}, Props{"P": 1})
	if db.Version() == v0 {
		t.Fatal("CreateNode did not bump version")
	}
	v1 := db.Version()
	n2 := db.CreateNode([]string{"L"}, nil)
	if db.Version() == v1 {
		t.Fatal("second CreateNode did not bump version")
	}
	v2 := db.Version()
	if _, err := db.CreateRel("R", n1, n2, nil); err != nil {
		t.Fatal(err)
	}
	if db.Version() == v2 {
		t.Fatal("CreateRel did not bump version")
	}
	v3 := db.Version()
	b := db.NewBatch()
	b.CreateNode([]string{"L"}, nil)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.Version() == v3 {
		t.Fatal("batch Flush did not bump version")
	}
	// Reads must not bump.
	v4 := db.Version()
	db.Node(n1)
	db.Rels(n1, DirBoth)
	db.FindNodes("L", "P", 2)
	db.Stats()
	if db.Version() != v4 {
		t.Fatal("read operations bumped version")
	}
}

func TestViewCachesUntilMutation(t *testing.T) {
	db := New()
	id := db.CreateNode([]string{"L"}, nil)
	builds := 0
	build := func() any { builds++; return builds }
	if got := db.View(build); got != 1 {
		t.Fatalf("first View = %v, want 1", got)
	}
	if got := db.View(build); got != 1 {
		t.Fatalf("second View = %v (rebuilt), want cached 1", got)
	}
	b := db.NewBatch()
	b.SetNodeProp(id, "P", 1)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := db.View(build); got != 2 {
		t.Fatalf("View after mutation = %v, want rebuilt 2", got)
	}
	if got := db.View(build); got != 2 {
		t.Fatalf("View after rebuild = %v, want cached 2", got)
	}
	db.Freeze()
	if got := db.View(build); got != 2 {
		t.Fatalf("View on frozen store = %v, want cached 2", got)
	}
}

func TestReadRawMatchesPublicAccessors(t *testing.T) {
	db := New()
	a := db.CreateNode([]string{"Method"}, Props{"NAME": "a", "PP": []int{1, 2}})
	b := db.CreateNode([]string{"Method"}, Props{"NAME": "b"})
	r1, err := db.CreateRel("CALL", a, b, Props{"POLLUTED_POSITION": []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.CreateRel("ALIAS", b, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.ReadRaw(func(v RawView) {
		if got := v.NodeIDs(); !reflect.DeepEqual(got, []ID{a, b}) {
			t.Errorf("NodeIDs = %v, want [%d %d]", got, a, b)
		}
		if v.NodeCount() != 2 {
			t.Errorf("NodeCount = %d", v.NodeCount())
		}
		if v.MaxID() != r2 {
			t.Errorf("MaxID = %d, want %d", v.MaxID(), r2)
		}
		n := v.Node(a)
		if n == nil || n.Props["NAME"] != "a" {
			t.Fatalf("Node(a) = %+v", n)
		}
		if v.Node(ID(999)) != nil {
			t.Error("Node(unknown) should be nil")
		}
		if got := v.RelIDs(a, DirOut); !reflect.DeepEqual(got, []ID{r1}) {
			t.Errorf("RelIDs(a, out) = %v", got)
		}
		if got := v.RelIDs(a, DirIn); !reflect.DeepEqual(got, []ID{r2}) {
			t.Errorf("RelIDs(a, in) = %v", got)
		}
		rel := v.Rel(r1)
		if rel == nil || rel.Start != a || rel.End != b || rel.Type != "CALL" {
			t.Fatalf("Rel(r1) = %+v", rel)
		}
		if !reflect.DeepEqual(rel.Props["POLLUTED_POSITION"], []int{0}) {
			t.Errorf("rel props = %+v", rel.Props)
		}
	})
}

func TestReadRawRelIDsPanicsOnDirBoth(t *testing.T) {
	db := New()
	id := db.CreateNode(nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("RelIDs(DirBoth) must panic")
		}
	}()
	db.ReadRaw(func(v RawView) { v.RelIDs(id, DirBoth) })
}
