package store

import (
	"bytes"
	"testing"
)

// FuzzSnapshot feeds arbitrary bytes to both snapshot read paths — the
// heap parse and the zero-copy view, then the view's metadata and index
// decoders. Every input may be rejected, but none may panic or hang.
// Seeds are the hand-built snapshot, a truncation of it and a bare
// header.
func FuzzSnapshot(f *testing.F) {
	data := encodeSnapshot(f, buildSnapshot(f))
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:headerLen])
	f.Fuzz(func(t *testing.T, data []byte) {
		if snap, err := Read(bytes.NewReader(data)); err == nil && (snap.DB == nil || snap.Sinks == nil) {
			t.Fatal("Read succeeded without a graph or sink registry")
		}
		// The view aliases its input; rehouse it 8-byte aligned the way a
		// page-aligned mapping is, so the index decoder gets past its
		// alignment check.
		m, err := ViewBytes(alignedCopy(data))
		if err != nil {
			return
		}
		_, _ = m.Meta()
		_, _, _ = m.Index()
	})
}
