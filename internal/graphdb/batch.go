package graphdb

import (
	"fmt"
	"sync"
)

// batchIDBlock is how many IDs a batch reserves from the store at a time.
// Block reservation shards the ID space across concurrent batches: each
// grabs a disjoint range under one short lock and then allocates from it
// lock-free with respect to the store, so builders on different workers
// never serialize on nextID per element.
const batchIDBlock = 256

// reserveIDs allocates a contiguous block of n fresh IDs and returns the
// first. The store's own CreateNode/CreateRel keep using nextID directly,
// so interleaving batched and direct creation is safe (IDs stay unique,
// though not dense).
func (db *DB) reserveIDs(n int) ID {
	db.mu.Lock()
	db.mustMutateLocked("batch ID reservation")
	first := db.nextID + 1
	db.nextID += ID(n)
	db.mu.Unlock()
	return first
}

// Batch buffers node and relationship creations and applies them to the
// store in a single critical section on Flush. IDs are handed out
// immediately (from block reservations), so callers can wire
// relationships between batch-local nodes before anything is committed.
//
// A Batch is safe for concurrent use, but note the determinism contract:
// IDs are assigned in CreateNode/CreateRel call order, so a builder that
// needs reproducible IDs must issue those calls in a deterministic
// order (the CPG builder precomputes element specs in parallel, then
// fills its batch sequentially).
type Batch struct {
	db       *DB
	mu       sync.Mutex
	nextFree ID // next unused ID in the current block
	blockEnd ID // last ID of the current block (inclusive); 0 = no block
	nodes    []*Node
	rels     []*Rel
	local    map[ID]bool // node IDs created in this batch, pre-flush
	relDels  []ID
	propSets []propSet
}

type propSet struct {
	node  ID
	key   string
	value any
}

// NewBatch starts an empty batch against the store.
func (db *DB) NewBatch() *Batch {
	return &Batch{db: db, local: make(map[ID]bool)}
}

func (b *Batch) allocLocked() ID {
	if b.nextFree == 0 || b.nextFree > b.blockEnd {
		first := b.db.reserveIDs(batchIDBlock)
		b.nextFree = first
		b.blockEnd = first + batchIDBlock - 1
	}
	id := b.nextFree
	b.nextFree++
	return id
}

// CreateNode buffers a node and returns its (already final) ID. The
// labels slice and props map are deep-copied, so the caller may keep
// mutating them.
func (b *Batch) CreateNode(labels []string, props Props) ID {
	return b.CreateNodeOwned(append([]string(nil), labels...), props.clone())
}

// CreateNodeOwned is CreateNode with ownership transfer: the batch takes
// the labels slice and props map as-is, without cloning. The caller must
// never touch either again. Bulk builders (the CPG batch fill) construct
// fresh property maps per element anyway; handing them over un-cloned
// removes one map copy per node.
func (b *Batch) CreateNodeOwned(labels []string, props Props) ID {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.allocLocked()
	b.nodes = append(b.nodes, &Node{ID: id, Labels: labels, Props: props})
	b.local[id] = true
	return id
}

// CreateRel buffers a relationship and returns its ID. Endpoints may be
// nodes already in the store or nodes buffered in this batch; they are
// validated at Flush time, which fails without applying anything if an
// endpoint is unknown. The props map is deep-copied.
func (b *Batch) CreateRel(relType string, start, end ID, props Props) ID {
	return b.CreateRelOwned(relType, start, end, props.clone())
}

// CreateRelOwned is CreateRel with ownership transfer of the props map
// (see CreateNodeOwned).
func (b *Batch) CreateRelOwned(relType string, start, end ID, props Props) ID {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.allocLocked()
	b.rels = append(b.rels, &Rel{
		ID: id, Type: relType, Start: start, End: end, Props: props,
	})
	return id
}

// DeleteRel buffers the deletion of an existing relationship. Deletions
// apply before any buffered creation, so a caller may retire a node's old
// edges and lay down replacements in one Flush.
func (b *Batch) DeleteRel(id ID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.relDels = append(b.relDels, id)
}

// SetNodeProp buffers a property update on an existing or batch-local
// node. Updates apply after creations, in buffer order.
func (b *Batch) SetNodeProp(node ID, key string, value any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.propSets = append(b.propSets, propSet{node: node, key: key, value: value})
}

// Len reports how many buffered elements the next Flush will apply.
func (b *Batch) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.nodes) + len(b.rels) + len(b.relDels) + len(b.propSets)
}

// Flush validates every buffered element and applies them all to the
// store under one lock, maintaining the label lists and adjacency
// exactly as the unbatched paths do. Application order is: relationship
// deletions, node creations, relationship creations, property updates —
// so an incremental update can retire stale edges and write their
// replacements atomically. On validation failure the store is left
// untouched and the buffer kept, so the caller can inspect it. A
// successful Flush empties the batch; the batch may then be reused. An
// empty Flush is a no-op and does not bump the store's mutation version,
// which keeps compiled views (searchindex) valid across no-change runs.
func (b *Batch) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.nodes)+len(b.rels)+len(b.relDels)+len(b.propSets) == 0 {
		return nil
	}
	db := b.db
	db.mu.Lock()
	defer db.mu.Unlock()
	db.mustMutateLocked("batch Flush")

	for _, id := range b.relDels {
		if _, ok := db.rels[id]; !ok {
			return fmt.Errorf("graphdb: batch delete of unknown rel %d", id)
		}
	}
	endpointOK := func(id ID) bool {
		if b.local[id] {
			return true
		}
		_, ok := db.nodes[id]
		return ok
	}
	for _, r := range b.rels {
		if !endpointOK(r.Start) {
			return fmt.Errorf("graphdb: batch rel %s: unknown start node %d", r.Type, r.Start)
		}
		if !endpointOK(r.End) {
			return fmt.Errorf("graphdb: batch rel %s: unknown end node %d", r.Type, r.End)
		}
	}
	for _, p := range b.propSets {
		if !endpointOK(p.node) {
			return fmt.Errorf("graphdb: batch prop %s on unknown node %d", p.key, p.node)
		}
	}

	db.version++
	for _, id := range b.relDels {
		r := db.rels[id]
		delete(db.rels, id)
		db.out[r.Start] = removeID(db.out[r.Start], id)
		db.in[r.End] = removeID(db.in[r.End], id)
	}
	for _, n := range b.nodes {
		db.nodes[n.ID] = n
		for _, l := range n.Labels {
			db.byLabel[l] = append(db.byLabel[l], n.ID)
		}
	}
	for _, r := range b.rels {
		db.rels[r.ID] = r
		db.out[r.Start] = append(db.out[r.Start], r.ID)
		db.in[r.End] = append(db.in[r.End], r.ID)
	}
	for _, p := range b.propSets {
		n := db.nodes[p.node]
		if n.Props == nil {
			n.Props = make(Props)
		}
		n.Props[p.key] = p.value
	}

	b.nodes = b.nodes[:0]
	b.rels = b.rels[:0]
	b.relDels = b.relDels[:0]
	b.propSets = b.propSets[:0]
	b.local = make(map[ID]bool)
	return nil
}

func removeID(ids []ID, id ID) []ID {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}
