package backend

import (
	"sync"

	"tabby/internal/graphdb"
	"tabby/internal/searchindex"
	"tabby/internal/store"
)

// Mmap is the disk-resident backend: a validated zero-copy view over a
// memory-mapped version-3 snapshot. The index it serves aliases the
// mapped bytes; nothing graph-sized is ever copied onto the heap unless
// DB() is called.
type Mmap struct {
	path  string
	data  []byte // the mapping; retained for the life of the process
	view  *store.Mapped
	meta  store.Meta
	ix    *searchindex.Index
	stats graphdb.Stats

	once sync.Once // guards the lazy heap materialization
	snap *store.Snapshot
	serr error
}

// openMapped attempts the zero-copy open. The third return
// distinguishes "this path is decided" (ok=true: success, or a file
// that failed validation — corrupt, so erroring beats silently
// re-parsing garbage) from "not eligible" (ok=false: mmap unsupported
// or unavailable; the caller falls back to the heap parse).
func openMapped(path string) (Backend, error, bool) {
	data, err := mmapFile(path)
	if err != nil {
		return nil, nil, false
	}
	view, err := store.ViewBytes(data)
	if err != nil {
		// Not a well-formed snapshot at all; the heap reader would fail
		// identically, and its error messages are the canonical ones.
		unmapFile(data)
		return nil, err, true
	}
	meta, err := view.Meta()
	if err != nil {
		unmapFile(data)
		return nil, err, true
	}
	ix, stats, err := view.Index()
	if err != nil {
		unmapFile(data)
		return nil, err, true
	}
	return &Mmap{path: path, data: data, view: view, meta: meta, ix: ix, stats: stats}, nil, true
}

func (b *Mmap) Kind() string              { return KindMmap }
func (b *Mmap) Meta() store.Meta          { return b.meta }
func (b *Mmap) Index() *searchindex.Index { return b.ix }
func (b *Mmap) GraphStats() graphdb.Stats { return b.stats }
func (b *Mmap) MappedBytes() int64        { return int64(len(b.data)) }

// DB parses the full snapshot onto the heap, once. Every section is
// CRC-verified by the reader, so a latent corruption in a section the
// zero-copy open never touched surfaces here as an error, not as a
// wrong answer.
func (b *Mmap) DB() (*graphdb.DB, error) {
	b.once.Do(func() {
		b.snap, b.serr = b.view.Snapshot()
	})
	if b.serr != nil {
		return nil, b.serr
	}
	return b.snap.DB, nil
}

func (b *Mmap) Loaded() bool { return b.snap != nil }

// Close is deliberately a no-op: the served index (and every string a
// caller may still hold) aliases the mapping, so unmapping would turn
// stale references into faults. The mapping is read-only and backed by
// the file — unreferenced pages cost page cache, not heap.
func (b *Mmap) Close() error { return nil }
