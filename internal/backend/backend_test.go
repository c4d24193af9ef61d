package backend

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tabby/internal/graphdb"
	"tabby/internal/searchindex"
	"tabby/internal/store"
)

func testSnapshot(t *testing.T) *store.Snapshot {
	t.Helper()
	db := graphdb.New()
	a := db.CreateNode([]string{"Method"}, graphdb.Props{"NAME": "com.example.A#run()", "IS_SINK": true})
	b := db.CreateNode([]string{"Method"}, graphdb.Props{"NAME": "com.example.B#call()"})
	if _, err := db.CreateRel("CALL", b, a, nil); err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	return &store.Snapshot{Meta: store.Meta{Name: "unit", Corpus: "hand-built"}, DB: db}
}

// writeFile writes data to a fresh temp file named name.
func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeSnapshotFile(t *testing.T, snap *store.Snapshot) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "unit.tsnap")
	if err := store.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	return path
}

// csr3PayloadOffset walks the section frames and returns the file
// offset of the first byte of the index section's payload.
func csr3PayloadOffset(t *testing.T, data []byte) int {
	t.Helper()
	off := 8 + 2 // magic + version
	for off+8 <= len(data) {
		tag := string(data[off : off+4])
		size := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		if tag == "csr3" {
			if size == 0 {
				t.Fatal("csr3 section is empty")
			}
			return off + 8
		}
		off += 8 + size + 4
	}
	t.Fatal("no csr3 section found")
	return 0
}

// TestOpenPrefersMmap: a current-format snapshot opens as the zero-copy
// backend — metadata and graph stats served without the heap parse,
// the store materialized (once) only when DB() forces it.
func TestOpenPrefersMmap(t *testing.T) {
	if !searchindex.LayoutSupported() {
		t.Skip("host cannot view on-disk index layouts")
	}
	snap := testSnapshot(t)
	path := writeSnapshotFile(t, snap)

	be, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if be.Kind() != KindMmap {
		t.Fatalf("Kind() = %q, want %q", be.Kind(), KindMmap)
	}
	if be.Meta().Name != "unit" || be.Meta().Corpus != "hand-built" {
		t.Errorf("Meta() = %+v", be.Meta())
	}
	if st := be.GraphStats(); st.Nodes != 2 || st.Rels != 1 {
		t.Errorf("GraphStats() = %+v", st)
	}
	if be.Loaded() {
		t.Error("mmap backend must not be heap-loaded before DB()")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if be.MappedBytes() != fi.Size() {
		t.Errorf("MappedBytes() = %d, want file size %d", be.MappedBytes(), fi.Size())
	}

	ix := be.Index()
	if ix == nil || ix.NumNodes() != 2 {
		t.Fatalf("Index() = %v", ix)
	}
	if ix.DB() != nil {
		t.Error("viewed index must have no backing store")
	}

	db, err := be.DB()
	if err != nil {
		t.Fatal(err)
	}
	if !be.Loaded() {
		t.Error("DB() must mark the backend loaded")
	}
	again, err := be.DB()
	if err != nil || again != db {
		t.Error("DB() must memoize the parsed store")
	}
	if ids := db.FindNodes("Method", "NAME", "com.example.A#run()"); len(ids) != 1 {
		t.Errorf("materialized store lookup: %v", ids)
	}
	if err := be.Close(); err != nil {
		t.Errorf("Close() = %v", err)
	}
	// The index stays valid after Close — it aliases the mapping, which
	// Close deliberately keeps alive.
	if ix.NumNodes() != 2 {
		t.Error("index unusable after Close")
	}
}

// withVersion rewrites a current-format snapshot's header to version,
// dropping the sections in drop — approximating the layouts older
// builds wrote (v1 and v2 lacked "csr3").
func withVersion(t *testing.T, data []byte, version uint16, drop ...string) []byte {
	t.Helper()
	const hdrLen = 8 + 2 // "TABBYSNP" + uint16 version
	out := append([]byte(nil), data[:hdrLen]...)
	binary.LittleEndian.PutUint16(out[8:], version)
	for rest := data[hdrLen:]; len(rest) > 0; {
		end := 8 + int(binary.LittleEndian.Uint32(rest[4:8])) + 4 // frame + payload + CRC
		if !slices.Contains(drop, string(rest[:4])) {
			out = append(out, rest[:end]...)
		}
		rest = rest[end:]
	}
	return out
}

// TestOnlyFormatV4Opens: snapshots are version 4 only. Every other
// header version — the v1, v2 and v3 layouts earlier builds wrote, and
// a future v5 — fails with the same format error on every read path:
// the heap parse, the zero-copy view, and backend.Open.
func TestOnlyFormatV4Opens(t *testing.T) {
	current, err := os.ReadFile(writeSnapshotFile(t, testSnapshot(t)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(writeFile(t, "v4.tsnap", current)); err != nil {
		t.Fatalf("current format must open: %v", err)
	}
	const want = "unsupported snapshot format version"
	for _, c := range []struct {
		version uint16
		drop    []string
	}{
		{1, []string{"csr3"}},
		{2, []string{"csr3"}},
		{3, nil},
		{5, nil},
	} {
		data := withVersion(t, current, c.version, c.drop...)
		_, readErr := store.Read(bytes.NewReader(data))
		_, viewErr := store.ViewBytes(data)
		_, openErr := Open(writeFile(t, fmt.Sprintf("v%d.tsnap", c.version), data))
		for path, err := range map[string]error{"store.Read": readErr, "store.ViewBytes": viewErr, "backend.Open": openErr} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("v%d: %s error = %v, want %q", c.version, path, err, want)
			}
		}
	}
}

// TestOpenRejectsCorruptFiles: corruption errors at open on every path
// — a flipped byte in the served sections, garbage, an empty file, and
// a missing file all fail; none fall through to serving bad bytes.
func TestOpenRejectsCorruptFiles(t *testing.T) {
	path := writeSnapshotFile(t, testSnapshot(t))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the csr3 payload: the zero-copy open checksums
	// that section before serving anything from it.
	flipped := append([]byte(nil), data...)
	flipped[csr3PayloadOffset(t, data)] ^= 0xff
	if _, err := Open(writeFile(t, "flipped.tsnap", flipped)); err == nil {
		t.Error("flipped index section must error, not fall back")
	}
	if _, err := Open(writeFile(t, "garbage.tsnap", []byte("definitely not a snapshot"))); err == nil {
		t.Error("garbage file must error")
	}
	if _, err := Open(writeFile(t, "empty.tsnap", nil)); err == nil {
		t.Error("empty file must error")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.tsnap")); err == nil {
		t.Error("missing file must error")
	}
}

// TestFromSnapshotWrapsHeap pins the Mem accessors over an
// already-parsed snapshot.
func TestFromSnapshotWrapsHeap(t *testing.T) {
	snap := testSnapshot(t)
	be := FromSnapshot(snap)
	if be.Kind() != KindMem || !be.Loaded() || be.MappedBytes() != 0 {
		t.Errorf("Mem state: kind=%q loaded=%v mapped=%d", be.Kind(), be.Loaded(), be.MappedBytes())
	}
	db, err := be.DB()
	if err != nil || db != snap.DB {
		t.Error("Mem.DB() must return the wrapped store")
	}
	if be.Snapshot() != snap {
		t.Error("Mem.Snapshot() must return the wrapped snapshot")
	}
	if be.Meta() != snap.Meta {
		t.Errorf("Meta() = %+v", be.Meta())
	}
	if err := be.Close(); err != nil {
		t.Errorf("Close() = %v", err)
	}
}
