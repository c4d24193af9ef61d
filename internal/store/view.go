// Zero-copy snapshot views. Every snapshot carries a "csr3" section
// holding the compiled search index as aligned little-endian arrays
// (searchindex.AppendLayout); Mapped frames the raw file bytes
// — typically an mmap'd region — without decoding the graph, so a
// server can start answering /v1/chains and /v1/query from the index
// view alone and only pay the full parse if an interpreter fallback or
// unindexed property actually needs the generic store.
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"tabby/internal/graphdb"
	"tabby/internal/searchindex"
)

// sectionRef locates one section's payload inside a snapshot's bytes.
type sectionRef struct {
	tag string
	off int64 // payload offset from the start of the file
	len int64
}

// Mapped is a structural view over the raw bytes of a snapshot file.
// Construction (ViewBytes) walks the section framing and CRC-checks
// the small metadata sections plus csr3 — the sections a zero-copy
// server actually serves from — but leaves the graph payloads
// untouched; Snapshot() runs the full checked decode on demand.
type Mapped struct {
	data     []byte
	sections map[string]sectionRef
}

// ViewBytes frames data as a snapshot without decoding the graph. The
// returned view aliases data; the caller owns the mapping's lifetime.
// The meta and csr3 payloads are checksum-verified here (they may be
// served without ever running the full parse); the remaining sections
// are bounds-checked only and get their CRC verification inside
// Snapshot's reader.
func ViewBytes(data []byte) (*Mapped, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("store: %d bytes: not a tabby snapshot file", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("store: bad magic %q: not a tabby snapshot file", data[:len(magic)])
	}
	if err := checkVersion(data[len(magic):]); err != nil {
		return nil, err
	}
	m := &Mapped{data: data, sections: make(map[string]sectionRef)}
	off := int64(headerLen)
	for _, want := range sectionOrder {
		if off+8 > int64(len(data)) {
			return nil, fmt.Errorf("store: section frame truncated at offset %d (want %q)", off, want)
		}
		tag := string(data[off : off+4])
		if tag != want {
			return nil, fmt.Errorf("store: unexpected section %q (want %q): file corrupted or out of order", tag, want)
		}
		size := int64(binary.LittleEndian.Uint32(data[off+4:]))
		if size > maxSectionSize {
			return nil, fmt.Errorf("store: section %q declares %d bytes (max %d): file corrupted", tag, size, maxSectionSize)
		}
		payOff := off + 8
		if payOff+size+4 > int64(len(data)) {
			return nil, fmt.Errorf("store: section %q payload truncated (%d bytes declared at offset %d)", tag, size, off)
		}
		m.sections[tag] = sectionRef{tag: tag, off: payOff, len: size}
		off = payOff + size + 4
	}
	if off != int64(len(data)) {
		return nil, fmt.Errorf("store: %d trailing bytes after final section: file corrupted", int64(len(data))-off)
	}
	for _, tag := range []string{"meta", "csr3"} {
		if err := m.checkCRC(tag); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// checkCRC verifies one section's stored checksum.
func (m *Mapped) checkCRC(tag string) error {
	s := m.sections[tag]
	pay := m.data[s.off : s.off+s.len]
	want := binary.LittleEndian.Uint32(m.data[s.off+s.len:])
	if got := crc32.ChecksumIEEE(pay); got != want {
		return fmt.Errorf("store: section %q checksum mismatch (got %08x, want %08x): file corrupted", tag, got, want)
	}
	return nil
}

// Meta decodes the (CRC-verified) metadata section.
func (m *Mapped) Meta() (Meta, error) {
	s := m.sections["meta"]
	return decodeMeta(m.data[s.off : s.off+s.len])
}

// Index views the csr3 section as a ready-to-serve search index. The
// returned index and stats alias m's bytes — zero copy, O(labels +
// relationship types) allocation — and stay valid only while the
// mapping does. Fails cleanly when the host cannot view the layout
// (big-endian); callers then fall back to Snapshot().
func (m *Mapped) Index() (*searchindex.Index, graphdb.Stats, error) {
	s := m.sections["csr3"]
	return decodeCSR3(m.data[s.off:s.off+s.len], s.off)
}

// Snapshot runs the full checked decode — every section CRC-verified,
// graph materialized into a frozen heap store. This is the slow path
// zero-copy serving exists to avoid; backends call it lazily when a
// query genuinely needs the generic property store.
func (m *Mapped) Snapshot() (*Snapshot, error) {
	return Read(bytes.NewReader(m.data))
}

// encodeCSR3 builds the csr3 payload: a varint-encoded graph-stats
// block (so /v1/graphs/{id}/stats never needs the heap parse) followed
// by the compiled index layout. payOff is the payload's absolute file
// offset — AppendLayout pads its arrays to 8-byte *file* alignment.
func encodeCSR3(db *graphdb.DB, payOff int64) []byte {
	ix := searchindex.For(db)
	stats := encodeGraphStats(db.Stats())
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(stats)))
	b = append(b, stats...)
	return ix.AppendLayout(b, payOff+int64(len(b)))
}

// decodeCSR3 views a csr3 payload located at absolute file offset
// payOff.
func decodeCSR3(pay []byte, payOff int64) (*searchindex.Index, graphdb.Stats, error) {
	if len(pay) < 4 {
		return nil, graphdb.Stats{}, fmt.Errorf("store: section \"csr3\": truncated stats block")
	}
	statsLen := int64(binary.LittleEndian.Uint32(pay))
	if statsLen > int64(len(pay))-4 {
		return nil, graphdb.Stats{}, fmt.Errorf("store: section \"csr3\": stats block overruns payload")
	}
	stats, err := decodeGraphStats(pay[4 : 4+statsLen])
	if err != nil {
		return nil, graphdb.Stats{}, err
	}
	ix, err := searchindex.FromLayout(pay[4+statsLen:], payOff+4+statsLen)
	if err != nil {
		return nil, graphdb.Stats{}, fmt.Errorf("store: section \"csr3\": %w", err)
	}
	return ix, stats, nil
}

// encodeGraphStats serializes the label/type counters (sorted keys,
// deterministic bytes).
func encodeGraphStats(s graphdb.Stats) []byte {
	var b []byte
	b = binary.AppendVarint(b, int64(s.Nodes))
	b = binary.AppendVarint(b, int64(s.Rels))
	for _, m := range []map[string]int{s.NodesByType, s.RelsByType} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = appendString(b, k)
			b = binary.AppendVarint(b, int64(m[k]))
		}
	}
	return b
}

func decodeGraphStats(pay []byte) (graphdb.Stats, error) {
	d := &decoder{buf: pay, section: "csr3"}
	var s graphdb.Stats
	nodes, err := d.varint("node count")
	if err != nil {
		return s, err
	}
	rels, err := d.varint("rel count")
	if err != nil {
		return s, err
	}
	s.Nodes, s.Rels = int(nodes), int(rels)
	for _, dst := range []*map[string]int{&s.NodesByType, &s.RelsByType} {
		n, err := d.count("stats entry")
		if err != nil {
			return s, err
		}
		*dst = make(map[string]int, n)
		for i := 0; i < n; i++ {
			k, err := d.str("stats key")
			if err != nil {
				return s, err
			}
			v, err := d.varint("stats value")
			if err != nil {
				return s, err
			}
			(*dst)[k] = int(v)
		}
	}
	return s, d.done()
}
