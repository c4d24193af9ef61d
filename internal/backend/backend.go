// Package backend abstracts the graph read path behind a registered
// snapshot. A Backend answers everything the query surface needs — the
// compiled search index, snapshot metadata, graph-shape counters, and
// (on demand) the generic property store — without prescribing where
// the bytes live. Two implementations exist:
//
//   - Mem: a fully-deserialized heap snapshot (store.ReadFile). This is
//     the fallback on hosts that cannot view the on-disk index layout
//     or cannot mmap.
//   - Mmap: a disk-resident view over a memory-mapped snapshot.
//     Opening validates framing and checksums but copies nothing; the
//     search index is served directly from the mapped bytes, so open
//     latency and heap cost are O(labels + relationship types), not
//     O(graph), and the resident set is bounded by the page cache. The generic store is materialized lazily — only when a
//     query shape the index cannot answer actually runs.
//
// Backend satisfies cypher.Source structurally, so /v1/query executes
// against either implementation through the identical planner path.
package backend

import (
	"tabby/internal/graphdb"
	"tabby/internal/searchindex"
	"tabby/internal/store"
)

// Backend kinds, as reported by the server's graph listings.
const (
	KindMem  = "mem"
	KindMmap = "mmap"
)

// Backend is one snapshot's read path.
type Backend interface {
	// Kind identifies the implementation: KindMem or KindMmap.
	Kind() string
	// Meta returns the snapshot's metadata (decoded at open time).
	Meta() store.Meta
	// Index returns the compiled search index. Infallible and cheap:
	// both implementations hold it from open time.
	Index() *searchindex.Index
	// DB materializes the generic property store. Mem returns it
	// directly; Mmap pays the full snapshot parse on first call and
	// memoizes the result (including a failure, which is permanent —
	// the bytes will not get less corrupt).
	DB() (*graphdb.DB, error)
	// GraphStats returns the graph-shape counters without materializing
	// the store (Mmap decodes them from the snapshot's stats block).
	GraphStats() graphdb.Stats
	// Loaded reports whether the generic store is resident on the heap.
	// Always true for Mem; true for Mmap only after a DB() call forced
	// the parse.
	Loaded() bool
	// MappedBytes is the size of the memory-mapped region backing this
	// backend, 0 for heap-resident ones. Mapped bytes live in the page
	// cache, not the Go heap.
	MappedBytes() int64
	// Close releases what can be released. Mmap intentionally keeps its
	// mapping alive for the life of the process: the served index
	// aliases the mapped bytes, and any retained string or slice would
	// dangle if the region were unmapped under it.
	Close() error
}

// Mem is the heap-resident backend: a wrapper over a fully-parsed
// snapshot, preserving exactly the read path servers had before
// backends existed.
type Mem struct {
	snap *store.Snapshot
}

// FromSnapshot wraps an already-parsed snapshot as a Backend.
func FromSnapshot(snap *store.Snapshot) *Mem { return &Mem{snap: snap} }

func (b *Mem) Kind() string              { return KindMem }
func (b *Mem) Meta() store.Meta          { return b.snap.Meta }
func (b *Mem) Index() *searchindex.Index { return searchindex.For(b.snap.DB) }
func (b *Mem) DB() (*graphdb.DB, error)  { return b.snap.DB, nil }
func (b *Mem) GraphStats() graphdb.Stats { return b.snap.DB.Stats() }
func (b *Mem) Loaded() bool              { return true }
func (b *Mem) MappedBytes() int64        { return 0 }
func (b *Mem) Close() error              { return nil }

// Snapshot exposes the wrapped snapshot (sink registry, summaries) for
// callers that know they hold the heap implementation.
func (b *Mem) Snapshot() *store.Snapshot { return b.snap }

// Open opens a snapshot file as the cheapest backend the host
// supports: a zero-copy Mmap view on hosts with a compatible layout, a
// full heap parse otherwise. Corrupt files, and any format version
// other than store.FormatVersion, error on either path — the mmap open
// checksums everything it will serve and structurally validates the
// index layout, so a backend that opens never serves garbage.
func Open(path string) (Backend, error) {
	if searchindex.LayoutSupported() {
		if be, err, ok := openMapped(path); ok {
			return be, err
		}
	}
	return openHeap(path)
}

// openHeap is the fallback path: parse the whole file onto the heap.
func openHeap(path string) (Backend, error) {
	snap, err := store.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return FromSnapshot(snap), nil
}
