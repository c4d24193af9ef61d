package store

import (
	"reflect"
	"testing"
	"unsafe"

	"tabby/internal/searchindex"
)

// alignedCopy rehouses snapshot bytes in 8-byte-aligned memory, the
// same guarantee a page-aligned mmap region gives the zero-copy view.
func alignedCopy(data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	buf := make([]uint64, (len(data)+7)/8)
	out := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(data))
	copy(out, data)
	return out
}

// TestViewBytesRoundTrip: a freshly written snapshot views zero-copy —
// metadata, graph stats, and the compiled index must all match what a
// full decode produces, and the on-demand Snapshot() must equal the
// original.
func TestViewBytesRoundTrip(t *testing.T) {
	snap := buildSnapshot(t)
	data := alignedCopy(encodeSnapshot(t, snap))

	m, err := ViewBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := m.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(meta, snap.Meta) {
		t.Errorf("meta:\n got %+v\nwant %+v", meta, snap.Meta)
	}

	ix, stats, err := m.Index()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, snap.DB.Stats()) {
		t.Errorf("stats:\n got %+v\nwant %+v", stats, snap.DB.Stats())
	}
	want := searchindex.For(snap.DB)
	if ix.NumNodes() != want.NumNodes() {
		t.Fatalf("NumNodes = %d, want %d", ix.NumNodes(), want.NumNodes())
	}
	for v := int32(0); v < int32(want.NumNodes()); v++ {
		if ix.IDOf(v) != want.IDOf(v) || ix.Name(v) != want.Name(v) ||
			ix.IsSink(v) != want.IsSink(v) || ix.SinkType(v) != want.SinkType(v) {
			t.Errorf("node %d differs between viewed and compiled index", v)
		}
	}
	if !reflect.DeepEqual(ix.RelTypes(), want.RelTypes()) {
		t.Fatalf("RelTypes = %v, want %v", ix.RelTypes(), want.RelTypes())
	}
	for _, typ := range want.RelTypes() {
		for v := int32(0); v < int32(want.NumNodes()); v++ {
			if !reflect.DeepEqual(ix.OutNeighbors(typ, v), want.OutNeighbors(typ, v)) ||
				!reflect.DeepEqual(ix.InNeighbors(typ, v), want.InNeighbors(typ, v)) {
				t.Errorf("adjacency %q at %d differs", typ, v)
			}
		}
	}

	full, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Meta, snap.Meta) ||
		!reflect.DeepEqual(full.DB.Export(), snap.DB.Export()) {
		t.Error("Snapshot() differs from the written snapshot")
	}
}

// TestViewBytesNeverPanicsOnTruncation frames every strict prefix of a
// snapshot: each must error — the framing walk, the trailing-bytes
// check, and the meta/csr3 CRCs leave no prefix that parses.
func TestViewBytesNeverPanicsOnTruncation(t *testing.T) {
	data := alignedCopy(encodeSnapshot(t, buildSnapshot(t)))
	for n := 0; n < len(data); n++ {
		if _, err := ViewBytes(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes viewed successfully", n, len(data))
		}
	}
}

// TestViewBytesNeverServesFlippedBytes flips every byte in turn.
// ViewBytes CRC-checks only the sections it serves zero-copy (meta,
// csr3), so a flip elsewhere may view successfully — but then the full
// decode must catch it: for every flip, ViewBytes errors or Snapshot()
// errors, and a successful view must serve its index without panicking.
func TestViewBytesNeverServesFlippedBytes(t *testing.T) {
	data := encodeSnapshot(t, buildSnapshot(t))
	for i := range data {
		bad := alignedCopy(data)
		bad[i] ^= 0xff
		m, err := ViewBytes(bad)
		if err != nil {
			continue
		}
		// The serving path must stay well-defined on a corrupt-but-viewable
		// file: the flip is outside meta and csr3, so both decode fine.
		if _, err := m.Meta(); err != nil {
			t.Fatalf("flip at %d: Meta() on viewable file: %v", i, err)
		}
		if _, _, err := m.Index(); err != nil {
			t.Fatalf("flip at %d: Index() on viewable file: %v", i, err)
		}
		if _, err := m.Snapshot(); err == nil {
			t.Fatalf("flip at %d/%d: both ViewBytes and Snapshot accepted corrupt bytes", i, len(data))
		}
	}
}
