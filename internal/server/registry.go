package server

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"

	"tabby/internal/backend"
	"tabby/internal/store"
)

// ErrNotFound reports a graph id with no registry entry.
var ErrNotFound = errors.New("server: graph not registered")

// Registry holds the graphs a server can answer queries against. An
// entry is either *open* (it has a live backend serving its index) or
// merely *registered* (a file path recorded at boot, opened on the
// first request that names it). Registration is how a server fronts
// thousands of snapshot files without paying thousands of opens: a
// snapshot opens as a zero-copy mmap view in milliseconds when first
// asked for, and its resident cost is page cache, not heap.
//
// Heap-resident backends (full snapshot parses: uploads, hosts without
// mmap) are bounded by an LRU policy: beyond the capacity, the
// least-recently-used heap entry is evicted — demoted
// back to "registered" when it came from a file (a later request
// reopens it), dropped entirely when it did not (uploaded graphs have
// no bytes to reopen). Mmap-backed entries never count against the
// capacity and are never unmapped: the served index aliases the mapped
// bytes, and the mapping's unreferenced pages are the kernel's to
// reclaim, not ours.
//
// It is safe for concurrent use. Only the bookkeeping is guarded here;
// backends serve frozen data, so request handlers read them without
// any registry lock held.
type Registry struct {
	mu        sync.Mutex
	max       int
	entries   map[string]*regEntry
	lru       *list.List // heap-resident entries only; front = most recently used
	evictions int64
	// onEvict, when set, runs for every id the capacity forces out —
	// dropped or demoted alike — so caches keyed by graph id can
	// invalidate: after eviction a later entry under the same id may
	// serve different content (a fresh upload, or a path whose file was
	// atomically replaced). Called with the registry lock held; the
	// callback must not call back into the registry.
	onEvict func(id string)
}

type regEntry struct {
	id   string
	path string          // re-openable source file; "" for uploaded graphs
	be   backend.Backend // nil while merely registered
	el   *list.Element   // LRU slot while heap-resident; nil otherwise
}

// DefaultMaxGraphs bounds the heap-resident graphs when no capacity is
// configured.
const DefaultMaxGraphs = 8

// NewRegistry creates a registry keeping at most max heap-resident
// graphs (DefaultMaxGraphs when max <= 0).
func NewRegistry(max int) *Registry {
	if max <= 0 {
		max = DefaultMaxGraphs
	}
	return &Registry{
		max:     max,
		entries: make(map[string]*regEntry),
		lru:     list.New(),
	}
}

// Add registers an already-parsed snapshot under id. Registering an id
// twice is an error — a graph's contents are immutable, so replacement
// is always a caller bug. Returns the id of the entry the capacity
// forced out, if any.
func (r *Registry) Add(id string, snap *store.Snapshot) (evicted string, err error) {
	if snap == nil || snap.DB == nil {
		return "", fmt.Errorf("server: graph %q: nil snapshot", id)
	}
	return r.AddBackend(id, backend.FromSnapshot(snap), "")
}

// AddBackend registers an opened backend under id. path, when
// non-empty, names the snapshot file the backend came from, which lets
// an evicted heap entry fall back to "registered" instead of
// disappearing.
func (r *Registry) AddBackend(id string, be backend.Backend, path string) (evicted string, err error) {
	if id == "" {
		return "", fmt.Errorf("server: empty graph id")
	}
	if be == nil {
		return "", fmt.Errorf("server: graph %q: nil backend", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[id]; dup {
		return "", fmt.Errorf("server: graph %q already loaded", id)
	}
	e := &regEntry{id: id, path: path, be: be}
	r.entries[id] = e
	return r.trackLocked(e), nil
}

// Register records a snapshot file under id without opening it. The
// first Get for the id opens the file then.
func (r *Registry) Register(id, path string) error {
	if id == "" {
		return fmt.Errorf("server: empty graph id")
	}
	if path == "" {
		return fmt.Errorf("server: graph %q: empty snapshot path", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[id]; dup {
		return fmt.Errorf("server: graph %q already loaded", id)
	}
	r.entries[id] = &regEntry{id: id, path: path}
	return nil
}

// Has reports whether id is registered (opened or not), without opening
// anything.
func (r *Registry) Has(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[id]
	return ok
}

// Get returns the backend registered under id, opening it from its
// file on first use and marking it most recently used. A failed open
// leaves the entry registered (the file may be fixed or replaced —
// snapshot writes are atomic renames — so a later Get retries).
func (r *Registry) Get(id string) (backend.Backend, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, ErrNotFound
	}
	if e.be == nil {
		// Opening under the lock serializes concurrent first requests for
		// the same graph; the common open is a validation pass over an
		// mmap, milliseconds even on the largest corpora.
		be, err := backend.Open(e.path)
		if err != nil {
			return nil, fmt.Errorf("server: open graph %q: %w", id, err)
		}
		e.be = be
		r.trackLocked(e)
		return e.be, nil
	}
	if e.el != nil {
		r.lru.MoveToFront(e.el)
	}
	return e.be, nil
}

// trackLocked enrolls a newly-opened backend in the heap LRU when it is
// heap-resident and applies the capacity, returning the evicted id (""
// when nothing was forced out).
func (r *Registry) trackLocked(e *regEntry) (evicted string) {
	if e.be.Kind() != backend.KindMem {
		return ""
	}
	e.el = r.lru.PushFront(e)
	for r.lru.Len() > r.max {
		oldest := r.lru.Back()
		v := oldest.Value.(*regEntry)
		r.lru.Remove(oldest)
		v.el = nil
		r.evictions++
		evicted = v.id
		if v.path != "" {
			v.be = nil // demote: registered again, reopenable on demand
		} else {
			delete(r.entries, v.id)
		}
		if r.onEvict != nil {
			r.onEvict(v.id)
		}
	}
	return evicted
}

// setOnEvict installs the eviction callback (see the field's contract);
// the server wires its caches here before the registry is shared.
func (r *Registry) setOnEvict(fn func(id string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onEvict = fn
}

// Len reports how many graphs are registered (opened or not).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Evictions reports how many heap-resident graphs the capacity has
// forced out since the registry was created.
func (r *Registry) Evictions() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictions
}

// GraphInfo summarizes one registered graph for listings. Fields past
// Meta describe the serving state: Backend and the counters are only
// meaningful once Opened, and Loaded distinguishes an mmap view that
// has additionally materialized its generic store from one serving
// purely off the mapping.
type GraphInfo struct {
	ID     string     `json:"id"`
	Corpus string     `json:"corpus,omitempty"`
	Nodes  int        `json:"nodes"`
	Rels   int        `json:"rels"`
	Meta   store.Meta `json:"meta"`
	// Backend is "mem" or "mmap"; empty while the entry is registered
	// but not yet opened.
	Backend string `json:"backend,omitempty"`
	// Opened reports whether the entry has a live backend (its index is
	// servable without touching the file again).
	Opened bool `json:"opened"`
	// Loaded reports whether the generic property store is resident on
	// the Go heap (always true for "mem"; true for "mmap" only after a
	// query needed the full store).
	Loaded bool `json:"loaded"`
	// MappedBytes is the size of the backing memory-mapped region, 0
	// for heap-resident graphs.
	MappedBytes int64 `json:"mapped_bytes,omitempty"`
}

// List returns a summary of every registered graph, sorted by id so the
// listing is deterministic. Unopened entries are listed by id alone —
// listing must stay cheap with thousands of registered files, so it
// never forces opens.
func (r *Registry) List() []GraphInfo {
	type row struct {
		id string
		be backend.Backend
	}
	r.mu.Lock()
	entries := make([]row, 0, len(r.entries))
	for _, e := range r.entries {
		// Snapshot the backend pointer under the lock (Get and eviction
		// mutate it); the backend itself is immutable and read lock-free.
		entries = append(entries, row{id: e.id, be: e.be})
	}
	r.mu.Unlock()

	out := make([]GraphInfo, 0, len(entries))
	for _, e := range entries {
		info := GraphInfo{ID: e.id}
		if e.be != nil {
			st := e.be.GraphStats()
			meta := e.be.Meta()
			info.Corpus = meta.Corpus
			info.Nodes = st.Nodes
			info.Rels = st.Rels
			info.Meta = meta
			info.Backend = e.be.Kind()
			info.Opened = true
			info.Loaded = e.be.Loaded()
			info.MappedBytes = e.be.MappedBytes()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
