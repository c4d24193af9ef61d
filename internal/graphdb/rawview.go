package graphdb

import "sort"

// This file is the compiled-view surface of the store: ReadRaw grants
// clone-free iteration over the store's internals for one-shot index
// compilation (package searchindex builds its CSR arrays through it
// without paying Rel()'s per-edge property-map clone), Version tracks
// content mutations so compiled views can be invalidated, and View caches
// one such compiled artifact on the store itself so every consumer of the
// same DB (engine, snapshot server, Cypher-lite procedures) shares it.

// Version returns the store's mutation counter. It increments on every
// content change (node/rel creation, batch flush), so two calls
// returning the same value bracket a window in which the store's
// contents did not change. Frozen stores never change version.
func (db *DB) Version() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.version
}

// View returns the compiled view cached on this store, building it with
// build when none exists or the store has mutated since it was built. At
// most one view is cached per DB; concurrent callers serialize on the
// build (the store stays readable throughout — build runs without any
// store lock held by View itself). If the store mutates *while* build
// runs, the freshly built view is returned but not cached, so no caller
// ever observes a view older than the version it read.
func (db *DB) View(build func() any) any {
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	before := db.Version()
	if db.viewValid && db.viewVersion == before {
		return db.view
	}
	v := build()
	if after := db.Version(); after == before {
		db.view = v
		db.viewVersion = before
		db.viewValid = true
	} else {
		db.viewValid = false
		db.view = nil
	}
	return v
}

// RawView is the clone-free read surface handed to ReadRaw callbacks.
// Everything it returns aliases store internals: callers must not mutate
// the data and must not retain it past the callback (copy what you keep).
type RawView struct {
	db *DB
}

// ReadRaw runs fn under the store's read lock with a RawView over its
// internals. The whole callback sees one consistent snapshot; mutators
// block until it returns, so keep fn to a single compilation pass.
func (db *DB) ReadRaw(fn func(RawView)) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	fn(RawView{db: db})
}

// Version returns the store version the view was taken at.
func (v RawView) Version() uint64 { return v.db.version }

// NodeIDs returns every node ID in ascending order. The slice is freshly
// allocated (it is the one thing safe to keep).
func (v RawView) NodeIDs() []ID {
	out := make([]ID, 0, len(v.db.nodes))
	for id := range v.db.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NodeCount returns the number of nodes in the store.
func (v RawView) NodeCount() int { return len(v.db.nodes) }

// MaxID returns the highest ID handed out so far (nodes and rels share
// the ID space), for sizing dense lookup tables.
func (v RawView) MaxID() ID { return v.db.nextID }

// Node returns the store's own node struct (aliased, do not mutate), or
// nil when unknown.
func (v RawView) Node(id ID) *Node { return v.db.nodes[id] }

// Rel returns the store's own relationship struct (aliased, do not
// mutate), or nil when unknown.
func (v RawView) Rel(id ID) *Rel { return v.db.rels[id] }

// RelIDs returns the store's own adjacency slice for the node (aliased,
// do not mutate or retain) in DirOut or DirIn. DirBoth is intentionally
// unsupported — iterate out then in, which is exactly the order
// DB.Rels(node, DirBoth, …) produces.
func (v RawView) RelIDs(node ID, dir Dir) []ID {
	switch dir {
	case DirOut:
		return v.db.out[node]
	case DirIn:
		return v.db.in[node]
	default:
		panic("graphdb: RawView.RelIDs supports DirOut and DirIn only")
	}
}
