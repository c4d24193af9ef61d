package graphdb

import (
	"sync"
	"testing"
)

func TestBatchFlushMatchesDirectCreation(t *testing.T) {
	db := New()
	b := db.NewBatch()
	n1 := b.CreateNode([]string{"Method"}, Props{"NAME": "a"})
	n2 := b.CreateNode([]string{"Method"}, Props{"NAME": "b"})
	r := b.CreateRel("CALL", n1, n2, Props{"W": 1})
	if got := b.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	// Nothing visible before the flush.
	if db.Node(n1) != nil {
		t.Fatal("node visible before Flush")
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := b.Len(); got != 0 {
		t.Fatalf("Len after Flush = %d, want 0", got)
	}

	if db.Node(n1) == nil || db.Node(n2) == nil {
		t.Fatal("batched nodes missing after Flush")
	}
	rel := db.Rel(r)
	if rel == nil || rel.Start != n1 || rel.End != n2 {
		t.Fatalf("batched rel wrong: %+v", rel)
	}
	if ids := db.FindNodes("Method", "NAME", "b"); len(ids) != 1 || ids[0] != n2 {
		t.Fatalf("label list not maintained for batched node: %v", ids)
	}
	if ids := db.Rels(n1, DirOut, "CALL"); len(ids) != 1 || ids[0] != r {
		t.Fatalf("adjacency not maintained: %v", ids)
	}
}

func TestBatchFlushValidatesEndpoints(t *testing.T) {
	db := New()
	b := db.NewBatch()
	n := b.CreateNode([]string{"X"}, nil)
	b.CreateRel("E", n, n+9999, nil)
	if err := b.Flush(); err == nil {
		t.Fatal("Flush accepted rel with unknown endpoint")
	}
	// Failed flush must leave the store untouched.
	if got := db.Stats().Nodes; got != 0 {
		t.Fatalf("store has %d nodes after failed Flush, want 0", got)
	}
}

func TestBatchRelToPreexistingNode(t *testing.T) {
	db := New()
	old := db.CreateNode([]string{"X"}, nil)
	b := db.NewBatch()
	fresh := b.CreateNode([]string{"X"}, nil)
	b.CreateRel("E", fresh, old, nil)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(db.Rels(old, DirIn, "E")); got != 1 {
		t.Fatalf("in-degree = %d, want 1", got)
	}
}

// TestBatchDeltaOps exercises the incremental-update surface in one
// flush: retire a node's edges, lay down a replacement edge, and update a
// property, with a single version bump.
func TestBatchDeltaOps(t *testing.T) {
	db := New()
	a := db.CreateNode([]string{"Method"}, Props{"NAME": "a"})
	bn := db.CreateNode([]string{"Method"}, Props{"NAME": "b"})
	c := db.CreateNode([]string{"Method"}, Props{"NAME": "c"})
	ab, err := db.CreateRel("CALL", a, bn, nil)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := db.CreateRel("CALL", bn, c, nil)
	if err != nil {
		t.Fatal(err)
	}

	before := db.Version()
	batch := db.NewBatch()
	batch.DeleteRel(ab)
	batch.DeleteRel(bc)
	batch.CreateRel("CALL", a, c, Props{"W": 2})
	batch.SetNodeProp(a, "NAME", "a2")
	if err := batch.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := db.Version(); got != before+1 {
		t.Errorf("Version bumped %d times, want exactly 1", got-before)
	}
	if db.Rel(ab) != nil || db.Rel(bc) != nil {
		t.Error("deleted rels still present after Flush")
	}
	if ids := db.Rels(bn, DirBoth); len(ids) != 0 {
		t.Errorf("adjacency still lists deleted rels: %v", ids)
	}
	if ids := db.FindNodes("Method", "NAME", "a"); len(ids) != 0 {
		t.Errorf("FindNodes matches the overwritten value: %v", ids)
	}
	if ids := db.FindNodes("Method", "NAME", "a2"); len(ids) != 1 || ids[0] != a {
		t.Errorf("FindNodes misses the SetNodeProp value: %v", ids)
	}
	if ids := db.Rels(a, DirOut, "CALL"); len(ids) != 1 {
		t.Errorf("replacement edge missing: %v", ids)
	}
}

// TestBatchEmptyFlushKeepsVersion pins the searchindex-reuse contract: a
// flush with nothing buffered must not bump the mutation version.
func TestBatchEmptyFlushKeepsVersion(t *testing.T) {
	db := New()
	db.CreateNode([]string{"X"}, nil)
	before := db.Version()
	if err := db.NewBatch().Flush(); err != nil {
		t.Fatal(err)
	}
	if got := db.Version(); got != before {
		t.Errorf("empty Flush bumped version %d → %d", before, got)
	}
}

// TestBatchDeleteValidation: deleting an unknown relationship, or
// setting a property on an unknown node, fails without applying
// anything.
func TestBatchDeleteValidation(t *testing.T) {
	db := New()
	a := db.CreateNode([]string{"X"}, nil)
	bn := db.CreateNode([]string{"X"}, nil)
	if _, err := db.CreateRel("E", a, bn, nil); err != nil {
		t.Fatal(err)
	}
	before := db.Version()

	batch := db.NewBatch()
	batch.DeleteRel(9999)
	if err := batch.Flush(); err == nil {
		t.Fatal("Flush accepted deletion of unknown rel")
	}

	batch2 := db.NewBatch()
	batch2.CreateRel("E", bn, a, nil)
	batch2.SetNodeProp(9999, "P", 1)
	if err := batch2.Flush(); err == nil {
		t.Fatal("Flush accepted a property on an unknown node")
	}
	if len(db.Rels(a, DirIn)) != 0 || db.Version() != before {
		t.Error("failed Flush mutated the store")
	}
}

func TestBatchConcurrentCreateUniqueIDs(t *testing.T) {
	db := New()
	b := db.NewBatch()
	const workers, per = 8, 400
	ids := make([][]ID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ids[w] = append(ids[w], b.CreateNode([]string{"N"}, nil))
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[ID]bool)
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("duplicate ID %d", id)
			}
			seen[id] = true
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Nodes; got != workers*per {
		t.Fatalf("Nodes = %d, want %d", got, workers*per)
	}
}
