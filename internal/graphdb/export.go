package graphdb

import (
	"fmt"
	"sort"
)

// This file is the snapshot surface of the store: Export dumps the full
// contents in canonical order, Import rebuilds a store from such a dump,
// and Freeze turns a store immutable. Package store layers the on-disk
// binary codec on top of these hooks; keeping them here means the codec
// never needs to reach into the store's internals.

// Export is the complete contents of a store in canonical order: nodes
// and relationships ascending by ID. Nodes and Rels are snapshots —
// mutating them does not affect the store they came from.
type Export struct {
	Nodes []*Node
	Rels  []*Rel
}

// Export dumps the store. The result is deterministic: two stores with
// identical contents export identically regardless of insertion history.
func (db *DB) Export() *Export {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ex := &Export{
		Nodes: make([]*Node, 0, len(db.nodes)),
		Rels:  make([]*Rel, 0, len(db.rels)),
	}
	for _, n := range db.nodes {
		ex.Nodes = append(ex.Nodes, &Node{ID: n.ID, Labels: append([]string(nil), n.Labels...), Props: n.Props.clone()})
	}
	sort.Slice(ex.Nodes, func(i, j int) bool { return ex.Nodes[i].ID < ex.Nodes[j].ID })
	for _, r := range db.rels {
		ex.Rels = append(ex.Rels, &Rel{ID: r.ID, Type: r.Type, Start: r.Start, End: r.End, Props: r.Props.clone()})
	}
	sort.Slice(ex.Rels, func(i, j int) bool { return ex.Rels[i].ID < ex.Rels[j].ID })
	return ex
}

// Import rebuilds a store from an export. Node and relationship IDs are
// preserved, adjacency and label lists are filled in element-ID order —
// the same order a sequential batch fill produces — so every query
// against the imported store returns results identical to the original.
// The export's nodes and rels are copied, not aliased.
func Import(ex *Export) (*DB, error) {
	db := New()
	var maxID ID
	for i, n := range ex.Nodes {
		if n.ID <= 0 {
			return nil, fmt.Errorf("graphdb import: node %d has invalid ID %d", i, n.ID)
		}
		if _, dup := db.nodes[n.ID]; dup {
			return nil, fmt.Errorf("graphdb import: duplicate node ID %d", n.ID)
		}
		cp := &Node{ID: n.ID, Labels: append([]string(nil), n.Labels...), Props: n.Props.clone()}
		db.nodes[n.ID] = cp
		for _, l := range cp.Labels {
			db.byLabel[l] = append(db.byLabel[l], n.ID)
		}
		if n.ID > maxID {
			maxID = n.ID
		}
	}
	for i, r := range ex.Rels {
		if r.ID <= 0 {
			return nil, fmt.Errorf("graphdb import: rel %d has invalid ID %d", i, r.ID)
		}
		if _, dup := db.rels[r.ID]; dup {
			return nil, fmt.Errorf("graphdb import: duplicate rel ID %d", r.ID)
		}
		if _, dup := db.nodes[r.ID]; dup {
			return nil, fmt.Errorf("graphdb import: rel ID %d collides with a node ID", r.ID)
		}
		if _, ok := db.nodes[r.Start]; !ok {
			return nil, fmt.Errorf("graphdb import: rel %d (%s) has unknown start node %d", r.ID, r.Type, r.Start)
		}
		if _, ok := db.nodes[r.End]; !ok {
			return nil, fmt.Errorf("graphdb import: rel %d (%s) has unknown end node %d", r.ID, r.Type, r.End)
		}
		cp := &Rel{ID: r.ID, Type: r.Type, Start: r.Start, End: r.End, Props: r.Props.clone()}
		db.rels[r.ID] = cp
		db.out[r.Start] = append(db.out[r.Start], r.ID)
		db.in[r.End] = append(db.in[r.End], r.ID)
		if r.ID > maxID {
			maxID = r.ID
		}
	}
	db.nextID = maxID
	return db, nil
}

// Freeze makes the store immutable: any subsequent mutation
// (CreateNode/CreateRel or a batch Flush) panics.
// Loaded snapshots are frozen so long-lived query services can serve them
// from many goroutines with the guarantee that no handler mutates shared
// state. Freezing is irreversible.
func (db *DB) Freeze() {
	db.mu.Lock()
	db.frozen = true
	db.mu.Unlock()
}

// Frozen reports whether the store has been frozen.
func (db *DB) Frozen() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.frozen
}

// mustMutateLocked panics when the store is frozen. Callers hold db.mu.
func (db *DB) mustMutateLocked(op string) {
	if db.frozen {
		panic("graphdb: " + op + " on frozen store")
	}
}
