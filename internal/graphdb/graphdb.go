// Package graphdb is an embedded, in-process property-graph database — the
// reproduction's substitute for Neo4j (paper §II-B). It stores labeled
// nodes and typed, directed relationships, both carrying property maps,
// with label scans and constant-time neighbourhood expansion. It keeps no
// property index: FindNodes is a label scan, and the request paths (chain
// search, the query planner, /v1/chains) read the compiled search index
// of package searchindex, built from this store once per mutation
// version. Package cypher layers a query language on top; package
// pathfinder implements the tabby-path-finder traversal plugin against it.
//
// The store is safe for concurrent use.
package graphdb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ID identifies a node or relationship within one DB.
type ID int64

// Dir selects a traversal direction relative to a node.
type Dir int

// Traversal directions.
const (
	DirOut Dir = iota + 1 // relationships starting at the node
	DirIn                 // relationships ending at the node
	DirBoth
)

// Props is a property map. Values are restricted to the JSON-ish scalar
// set plus []int (used for Polluted_Position and Trigger_Condition
// arrays); keeping the set small keeps comparisons well defined.
type Props map[string]any

// clone returns a shallow copy (slice values are copied too).
func (p Props) clone() Props {
	if p == nil {
		return nil
	}
	out := make(Props, len(p))
	for k, v := range p {
		if ints, ok := v.([]int); ok {
			cp := make([]int, len(ints))
			copy(cp, ints)
			out[k] = cp
			continue
		}
		out[k] = v
	}
	return out
}

// Node is a labeled node. The struct returned by accessor methods is a
// snapshot; mutate through the DB API only.
type Node struct {
	ID     ID
	Labels []string
	Props  Props
}

// HasLabel reports whether the node carries the label.
func (n *Node) HasLabel(label string) bool {
	for _, l := range n.Labels {
		if l == label {
			return true
		}
	}
	return false
}

// Rel is a directed, typed relationship.
type Rel struct {
	ID    ID
	Type  string
	Start ID
	End   ID
	Props Props
}

// Other returns the endpoint of the relationship that is not node.
func (r *Rel) Other(node ID) ID {
	if r.Start == node {
		return r.End
	}
	return r.Start
}

// DB is the graph store.
type DB struct {
	mu      sync.RWMutex
	frozen  bool
	nextID  ID
	version uint64 // bumped by every content mutation; see Version
	nodes   map[ID]*Node
	rels    map[ID]*Rel
	out     map[ID][]ID // node -> outgoing rel IDs
	in      map[ID][]ID // node -> incoming rel IDs
	byLabel map[string][]ID

	// Compiled-view cache (see View). Guarded by viewMu, never by mu, so
	// a build callback may freely read the store.
	viewMu      sync.Mutex
	view        any
	viewVersion uint64
	viewValid   bool
}

// New creates an empty database.
func New() *DB {
	return &DB{
		nodes:   make(map[ID]*Node),
		rels:    make(map[ID]*Rel),
		out:     make(map[ID][]ID),
		in:      make(map[ID][]ID),
		byLabel: make(map[string][]ID),
	}
}

// valueKey renders a property value into a comparable string key; two
// values are equal for FindNodes exactly when their keys are. The
// encoding is pinned to fmt.Sprintf("%T:%v", v, v) —
// TestValueKeyMatchesLegacyEncoding holds the two equivalent — but the
// common cases are type-switched so a label scan avoids reflection and
// interface formatting. The leading type name keeps keys collision-free
// across types (int 1 vs string "1" vs bool-ish values).
func valueKey(v any) string {
	switch t := v.(type) {
	case bool:
		if t {
			return "bool:true"
		}
		return "bool:false"
	case int:
		return "int:" + strconv.Itoa(t)
	case string:
		return "string:" + t
	case float64:
		return "float64:" + strconv.FormatFloat(t, 'g', -1, 64)
	case []int:
		var sb strings.Builder
		sb.Grow(8 + 12*len(t))
		sb.WriteString("[]int:[")
		for i, n := range t {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.Itoa(n))
		}
		sb.WriteByte(']')
		return sb.String()
	default:
		return fmt.Sprintf("%T:%v", v, v)
	}
}

// CreateNode adds a node with the given labels and properties and returns
// its ID.
func (db *DB) CreateNode(labels []string, props Props) ID {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.mustMutateLocked("CreateNode")
	db.version++
	db.nextID++
	id := db.nextID
	n := &Node{ID: id, Labels: append([]string(nil), labels...), Props: props.clone()}
	db.nodes[id] = n
	for _, l := range n.Labels {
		db.byLabel[l] = append(db.byLabel[l], id)
	}
	return id
}

// CreateRel adds a relationship of the given type from start to end.
func (db *DB) CreateRel(relType string, start, end ID, props Props) (ID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.mustMutateLocked("CreateRel")
	if _, ok := db.nodes[start]; !ok {
		return 0, fmt.Errorf("graphdb: create rel %s: unknown start node %d", relType, start)
	}
	if _, ok := db.nodes[end]; !ok {
		return 0, fmt.Errorf("graphdb: create rel %s: unknown end node %d", relType, end)
	}
	db.version++
	db.nextID++
	id := db.nextID
	db.rels[id] = &Rel{ID: id, Type: relType, Start: start, End: end, Props: props.clone()}
	db.out[start] = append(db.out[start], id)
	db.in[end] = append(db.in[end], id)
	return id, nil
}

// Node returns a snapshot of the node, or nil when unknown.
func (db *DB) Node(id ID) *Node {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := db.nodes[id]
	if n == nil {
		return nil
	}
	return &Node{ID: n.ID, Labels: append([]string(nil), n.Labels...), Props: n.Props.clone()}
}

// Rel returns a snapshot of the relationship, or nil when unknown.
func (db *DB) Rel(id ID) *Rel {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r := db.rels[id]
	if r == nil {
		return nil
	}
	return &Rel{ID: r.ID, Type: r.Type, Start: r.Start, End: r.End, Props: r.Props.clone()}
}

// NodeProp returns one property of a node without copying the whole node.
func (db *DB) NodeProp(id ID, key string) (any, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := db.nodes[id]
	if n == nil {
		return nil, false
	}
	v, ok := n.Props[key]
	return v, ok
}

// NodesByLabel returns the IDs of all nodes carrying the label, in
// creation order.
func (db *DB) NodesByLabel(label string) []ID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]ID(nil), db.byLabel[label]...)
}

// FindNodes returns nodes with the label whose property equals value
// (under valueKey equality), in label-scan order: node creation order,
// which is ascending ID order for any single batch fill and for every
// imported snapshot.
func (db *DB) FindNodes(label, prop string, value any) []ID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []ID
	k := valueKey(value)
	for _, id := range db.byLabel[label] {
		if v, ok := db.nodes[id].Props[prop]; ok && valueKey(v) == k {
			out = append(out, id)
		}
	}
	return out
}

// Rels returns relationship IDs attached to the node in the given
// direction, optionally filtered by type (empty types = all).
func (db *DB) Rels(node ID, dir Dir, types ...string) []ID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var src []ID
	switch dir {
	case DirOut:
		src = db.out[node]
	case DirIn:
		src = db.in[node]
	case DirBoth:
		src = append(append([]ID(nil), db.out[node]...), db.in[node]...)
	}
	if len(types) == 0 {
		return append([]ID(nil), src...)
	}
	var out []ID
	for _, rid := range src {
		r := db.rels[rid]
		for _, t := range types {
			if r.Type == t {
				out = append(out, rid)
				break
			}
		}
	}
	return out
}

// Stats summarizes store contents; used by the Table VIII experiment to
// report node/edge counts.
type Stats struct {
	Nodes       int
	Rels        int
	NodesByType map[string]int
	RelsByType  map[string]int
}

// Stats returns counts of nodes per label and relationships per type.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := Stats{
		Nodes:       len(db.nodes),
		Rels:        len(db.rels),
		NodesByType: make(map[string]int),
		RelsByType:  make(map[string]int),
	}
	for l, ids := range db.byLabel {
		s.NodesByType[l] = len(ids)
	}
	for _, r := range db.rels {
		s.RelsByType[r.Type]++
	}
	return s
}

// AllNodeIDs returns every node ID in ascending order.
func (db *DB) AllNodeIDs() []ID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]ID, 0, len(db.nodes))
	for id := range db.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllRelIDs returns every relationship ID in ascending order.
func (db *DB) AllRelIDs() []ID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]ID, 0, len(db.rels))
	for id := range db.rels {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
