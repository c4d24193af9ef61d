// Package store is the persistent snapshot codec for built code property
// graphs: the "store once, query many times" substrate of the paper's
// workflow (§II-B, RQ4). A snapshot is one self-contained binary file
// holding the full graph (nodes, labels, relationships, properties), the
// compiled search index, the sink/source registry state the graph was
// built with, and analysis metadata (graph statistics, pruned-call
// counters).
//
// On-disk layout:
//
//	8-byte magic "TABBYSNP" | uint16 LE format version
//	section*                 (fixed order: meta sink srcs strs node rels csr3 fini)
//
// where each section is framed as
//
//	4-byte tag | uint32 LE payload length | payload | uint32 LE CRC-32 (IEEE) of payload
//
// and "fini" is an empty terminal section, so truncation anywhere is
// detectable. Strings inside the node/rels payloads are interned
// into the shared "strs" table; payload integers are varint-encoded.
// Loading verifies the magic, version, section order, and every
// checksum, and returns errors — never panics — on corrupt input. The
// loaded store is frozen (immutable), so Cypher-lite queries, path
// searches, and stats against it are byte-identical to the same
// operations on the freshly built graph, and it can be served to many
// goroutines concurrently.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"tabby/internal/cpg"
	"tabby/internal/graphdb"
	"tabby/internal/sinks"
)

// FormatVersion is the snapshot format this build writes and the only
// one it reads. Its "csr3" section carries the compiled search index,
// laid out as aligned little-endian arrays an mmap-backed server views
// in place (package backend) while heap loaders simply CRC-check and
// skip it; the store carries no other index. Readers reject every other
// version with a clear error; rewrite older snapshots by re-running the
// analysis with `tabby -save`.
const FormatVersion = 4

const (
	magic          = "TABBYSNP"
	maxSectionSize = 1 << 30 // sanity cap so a corrupt length cannot force a huge allocation

	headerLen       = 10 // magic + uint16 version
	sectionOverhead = 12 // 4-byte tag + uint32 length + uint32 CRC
)

// sectionOrder is the fixed section order. A snapshot must contain
// exactly these sections, in this order.
var sectionOrder = []string{"meta", "sink", "srcs", "strs", "node", "rels", "csr3", "fini"}

// Property value type tags.
const (
	tagBool   = 0x01
	tagInt    = 0x02
	tagFloat  = 0x03
	tagString = 0x04
	tagInts   = 0x05
)

// Meta is the analysis metadata carried alongside the graph.
type Meta struct {
	// Name is the snapshot's identity; servers register loaded graphs
	// under it.
	Name string
	// Corpus describes what was analyzed (component/scene/directory).
	Corpus string
	// Stats are the builder's node/edge counters, including the
	// pruned-call count of the PCG construction.
	Stats cpg.Stats
	// TotalCalls and PrunedCalls are the controllability analysis
	// counters (how many call edges existed and how many the analysis
	// proved uncontrollable).
	TotalCalls  int
	PrunedCalls int
}

// Snapshot is a fully persisted analysis: the graph, the registry state
// it was built with, and the metadata describing it.
type Snapshot struct {
	Meta    Meta
	DB      *graphdb.DB
	Sinks   *sinks.Registry
	Sources sinks.SourceConfig
}

// --- writing -------------------------------------------------------------

// Write encodes the snapshot to w.
func Write(w io.Writer, snap *Snapshot) error {
	if snap == nil || snap.DB == nil {
		return fmt.Errorf("store: nil snapshot or graph")
	}
	ex := snap.DB.Export()
	tab := newStringTable()

	// Graph payloads are encoded first so the string table is complete
	// before its section is emitted; the file still carries the table
	// ahead of every section that references it.
	nodePay, err := encodeNodes(ex.Nodes, tab)
	if err != nil {
		return err
	}
	relsPay, err := encodeRels(ex.Rels, tab)
	if err != nil {
		return err
	}

	sections := map[string][]byte{
		"meta": encodeMeta(snap.Meta),
		"sink": encodeSinks(snap.Sinks),
		"srcs": encodeSources(snap.Sources),
		"strs": tab.encode(),
		"node": nodePay,
		"rels": relsPay,
		"fini": nil,
	}

	// The csr3 payload embeds its own absolute file offset (its arrays
	// are 8-byte aligned *in file-offset terms* so a mapped reader can
	// alias them), so it is encoded last, once every preceding section's
	// length is final.
	off := int64(headerLen)
	for _, tag := range sectionOrder {
		if tag == "csr3" {
			break
		}
		off += sectionOverhead + int64(len(sections[tag]))
	}
	sections["csr3"] = encodeCSR3(snap.DB, off+8) // +8: csr3's own tag+length frame

	hdr := make([]byte, 0, len(magic)+2)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, FormatVersion)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("store: write header: %w", err)
	}
	for _, tag := range sectionOrder {
		if err := writeSection(w, tag, sections[tag]); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes the snapshot to path atomically: the bytes are
// staged in a same-directory temp file, fsync'd, then renamed into
// place, so a crash mid-write never leaves a torn snapshot where a
// loader (or a -snapshot-dir scan) could find it.
func WriteFile(path string, snap *Snapshot) error {
	return atomicWriteFile(path, func(f *os.File) error { return Write(f, snap) })
}

func writeSection(w io.Writer, tag string, payload []byte) error {
	if len(tag) != 4 {
		return fmt.Errorf("store: internal error: section tag %q is not 4 bytes", tag)
	}
	if len(payload) > maxSectionSize {
		return fmt.Errorf("store: section %q exceeds %d bytes", tag, maxSectionSize)
	}
	frame := make([]byte, 0, 4+4)
	frame = append(frame, tag...)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("store: write section %q: %w", tag, err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("store: write section %q: %w", tag, err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("store: write section %q checksum: %w", tag, err)
	}
	return nil
}

// stringTable interns strings for the graph sections.
type stringTable struct {
	index map[string]uint64
	list  []string
}

func newStringTable() *stringTable {
	return &stringTable{index: make(map[string]uint64)}
}

func (t *stringTable) ref(s string) uint64 {
	if i, ok := t.index[s]; ok {
		return i
	}
	i := uint64(len(t.list))
	t.index[s] = i
	t.list = append(t.list, s)
	return i
}

func (t *stringTable) encode() []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(t.list)))
	for _, s := range t.list {
		b = appendString(b, s)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func encodeMeta(m Meta) []byte {
	var b []byte
	b = appendString(b, m.Name)
	b = appendString(b, m.Corpus)
	for _, v := range []int{
		m.Stats.ClassNodes, m.Stats.MethodNodes, m.Stats.ExtendEdges,
		m.Stats.InterfaceEdges, m.Stats.HasEdges, m.Stats.CallEdges,
		m.Stats.PrunedCalls, m.Stats.AliasEdges,
		m.TotalCalls, m.PrunedCalls,
	} {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func encodeSinks(reg *sinks.Registry) []byte {
	var all []sinks.Sink
	if reg != nil {
		all = reg.All()
	}
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(all)))
	for _, s := range all {
		b = appendString(b, s.Class)
		b = appendString(b, s.Method)
		b = appendString(b, string(s.Type))
		b = binary.AppendUvarint(b, uint64(len(s.TC)))
		for _, tc := range s.TC {
			b = binary.AppendVarint(b, int64(tc))
		}
	}
	return b
}

func encodeSources(src sinks.SourceConfig) []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(src.MethodNames)))
	for _, n := range src.MethodNames {
		b = appendString(b, n)
	}
	if src.RequireSerializable {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return b
}

func encodeProps(b []byte, owner string, props graphdb.Props, tab *stringTable) ([]byte, error) {
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = binary.AppendUvarint(b, tab.ref(k))
		var err error
		b, err = encodeValue(b, props[k], tab)
		if err != nil {
			return nil, fmt.Errorf("store: %s property %q: %w", owner, k, err)
		}
	}
	return b, nil
}

func encodeValue(b []byte, v any, tab *stringTable) ([]byte, error) {
	switch t := v.(type) {
	case bool:
		b = append(b, tagBool)
		if t {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case int:
		b = append(b, tagInt)
		return binary.AppendVarint(b, int64(t)), nil
	case int64:
		b = append(b, tagInt)
		return binary.AppendVarint(b, t), nil
	case float64:
		b = append(b, tagFloat)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(t)), nil
	case string:
		b = append(b, tagString)
		return binary.AppendUvarint(b, tab.ref(t)), nil
	case []int:
		b = append(b, tagInts)
		b = binary.AppendUvarint(b, uint64(len(t)))
		for _, e := range t {
			b = binary.AppendVarint(b, int64(e))
		}
		return b, nil
	default:
		return nil, fmt.Errorf("unsupported value type %T", v)
	}
}

func encodeNodes(nodes []*graphdb.Node, tab *stringTable) ([]byte, error) {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(nodes)))
	for _, n := range nodes {
		b = binary.AppendUvarint(b, uint64(n.ID))
		b = binary.AppendUvarint(b, uint64(len(n.Labels)))
		for _, l := range n.Labels {
			b = binary.AppendUvarint(b, tab.ref(l))
		}
		var err error
		b, err = encodeProps(b, fmt.Sprintf("node %d", n.ID), n.Props, tab)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

func encodeRels(rels []*graphdb.Rel, tab *stringTable) ([]byte, error) {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(rels)))
	for _, r := range rels {
		b = binary.AppendUvarint(b, uint64(r.ID))
		b = binary.AppendUvarint(b, tab.ref(r.Type))
		b = binary.AppendUvarint(b, uint64(r.Start))
		b = binary.AppendUvarint(b, uint64(r.End))
		var err error
		b, err = encodeProps(b, fmt.Sprintf("rel %d", r.ID), r.Props, tab)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// --- reading -------------------------------------------------------------

// Read decodes a snapshot from r, verifying the format version and every
// section checksum. The returned snapshot's store is frozen: it serves
// concurrent reads and rejects mutation.
func Read(r io.Reader) (*Snapshot, error) {
	hdr := make([]byte, len(magic)+2)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("store: read header: %w (not a tabby snapshot, or truncated)", err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, fmt.Errorf("store: bad magic %q: not a tabby snapshot file", hdr[:len(magic)])
	}
	if err := checkVersion(hdr[len(magic):]); err != nil {
		return nil, err
	}

	payloads := make(map[string][]byte, len(sectionOrder))
	for _, want := range sectionOrder {
		tag, payload, err := readSection(r, sectionOrder)
		if err != nil {
			return nil, err
		}
		if tag != want {
			return nil, fmt.Errorf("store: unexpected section %q (want %q): file corrupted or out of order", tag, want)
		}
		payloads[tag] = payload
	}

	snap := &Snapshot{}
	var err error
	if snap.Meta, err = decodeMeta(payloads["meta"]); err != nil {
		return nil, err
	}
	if snap.Sinks, err = decodeSinks(payloads["sink"]); err != nil {
		return nil, err
	}
	if snap.Sources, err = decodeSources(payloads["srcs"]); err != nil {
		return nil, err
	}
	tab, err := decodeStrings(payloads["strs"])
	if err != nil {
		return nil, err
	}
	ex := &graphdb.Export{}
	if ex.Nodes, err = decodeNodes(payloads["node"], tab); err != nil {
		return nil, err
	}
	if ex.Rels, err = decodeRels(payloads["rels"], tab); err != nil {
		return nil, err
	}
	db, err := graphdb.Import(ex)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	db.Freeze()
	snap.DB = db
	return snap, nil
}

// checkVersion rejects every header version but FormatVersion.
func checkVersion(b []byte) error {
	if version := binary.LittleEndian.Uint16(b); version != FormatVersion {
		return fmt.Errorf("store: unsupported snapshot format version %d (this build reads version %d)", version, FormatVersion)
	}
	return nil
}

// ReadFile loads a snapshot from path.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return Read(f)
}

func readSection(r io.Reader, allowed []string) (tag string, payload []byte, err error) {
	frame := make([]byte, 8)
	if _, err := io.ReadFull(r, frame); err != nil {
		return "", nil, fmt.Errorf("store: read section frame: %w (file truncated?)", err)
	}
	tag = string(frame[:4])
	size := binary.LittleEndian.Uint32(frame[4:])
	known := false
	for _, t := range allowed {
		if t == tag {
			known = true
			break
		}
	}
	if !known {
		return "", nil, fmt.Errorf("store: unknown section tag %q: file corrupted", tag)
	}
	if size > maxSectionSize {
		return "", nil, fmt.Errorf("store: section %q declares %d bytes (max %d): file corrupted", tag, size, maxSectionSize)
	}
	// Grow the payload as bytes actually arrive rather than trusting the
	// declared size: a corrupt length must not cost a huge allocation.
	// Capacity doubles but is capped at the declared size, so a complete
	// payload keeps exactly the bytes it holds.
	payload = make([]byte, 0, min(size, 1<<20))
	for len(payload) < int(size) {
		if len(payload) == cap(payload) {
			payload = append(make([]byte, 0, min(int(size), 2*cap(payload))), payload...)
		}
		n, err := io.ReadFull(r, payload[len(payload):cap(payload)])
		payload = payload[:len(payload)+n]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return "", nil, fmt.Errorf("store: read section %q payload: %w (file truncated?)", tag, err)
		}
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return "", nil, fmt.Errorf("store: read section %q checksum: %w (file truncated?)", tag, err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(sum[:]); got != want {
		return "", nil, fmt.Errorf("store: section %q checksum mismatch (got %08x, want %08x): file corrupted", tag, got, want)
	}
	return tag, payload, nil
}

// decoder walks one section payload with bounds-checked reads.
type decoder struct {
	buf     []byte
	off     int
	section string
}

func (d *decoder) fail(what string) error {
	return fmt.Errorf("store: section %q: truncated %s at offset %d", d.section, what, d.off)
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, d.fail(what)
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint(what string) (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, d.fail(what)
	}
	d.off += n
	return v, nil
}

func (d *decoder) count(what string) (int, error) {
	v, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	// A count cannot exceed the remaining payload (every element takes at
	// least one byte), so a corrupt count fails here instead of in a huge
	// allocation.
	if v > uint64(len(d.buf)-d.off) {
		return 0, fmt.Errorf("store: section %q: %s count %d exceeds remaining payload: file corrupted", d.section, what, v)
	}
	return int(v), nil
}

func (d *decoder) byte(what string) (byte, error) {
	if d.off >= len(d.buf) {
		return 0, d.fail(what)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) str(what string) (string, error) {
	n, err := d.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)-d.off) {
		return "", d.fail(what)
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) ref(tab []string, what string) (string, error) {
	i, err := d.uvarint(what)
	if err != nil {
		return "", err
	}
	if i >= uint64(len(tab)) {
		return "", fmt.Errorf("store: section %q: %s references string %d of %d: file corrupted", d.section, what, i, len(tab))
	}
	return tab[i], nil
}

func (d *decoder) done() error {
	if d.off != len(d.buf) {
		return fmt.Errorf("store: section %q: %d trailing bytes: file corrupted", d.section, len(d.buf)-d.off)
	}
	return nil
}

func decodeMeta(pay []byte) (Meta, error) {
	d := &decoder{buf: pay, section: "meta"}
	var m Meta
	var err error
	if m.Name, err = d.str("name"); err != nil {
		return m, err
	}
	if m.Corpus, err = d.str("corpus"); err != nil {
		return m, err
	}
	fields := []*int{
		&m.Stats.ClassNodes, &m.Stats.MethodNodes, &m.Stats.ExtendEdges,
		&m.Stats.InterfaceEdges, &m.Stats.HasEdges, &m.Stats.CallEdges,
		&m.Stats.PrunedCalls, &m.Stats.AliasEdges,
		&m.TotalCalls, &m.PrunedCalls,
	}
	for _, f := range fields {
		v, err := d.varint("counter")
		if err != nil {
			return m, err
		}
		*f = int(v)
	}
	return m, d.done()
}

func decodeSinks(pay []byte) (*sinks.Registry, error) {
	d := &decoder{buf: pay, section: "sink"}
	n, err := d.count("sink")
	if err != nil {
		return nil, err
	}
	list := make([]sinks.Sink, 0, n)
	for i := 0; i < n; i++ {
		var s sinks.Sink
		if s.Class, err = d.str("sink class"); err != nil {
			return nil, err
		}
		if s.Method, err = d.str("sink method"); err != nil {
			return nil, err
		}
		typ, err := d.str("sink type")
		if err != nil {
			return nil, err
		}
		s.Type = sinks.Type(typ)
		tcn, err := d.count("trigger condition")
		if err != nil {
			return nil, err
		}
		s.TC = make([]int, tcn)
		for j := range s.TC {
			v, err := d.varint("trigger position")
			if err != nil {
				return nil, err
			}
			s.TC[j] = int(v)
		}
		list = append(list, s)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	reg, err := sinks.NewRegistry(list)
	if err != nil {
		return nil, fmt.Errorf("store: section \"sink\": %w", err)
	}
	return reg, nil
}

func decodeSources(pay []byte) (sinks.SourceConfig, error) {
	d := &decoder{buf: pay, section: "srcs"}
	var src sinks.SourceConfig
	n, err := d.count("source method")
	if err != nil {
		return src, err
	}
	for i := 0; i < n; i++ {
		name, err := d.str("source method name")
		if err != nil {
			return src, err
		}
		src.MethodNames = append(src.MethodNames, name)
	}
	b, err := d.byte("require-serializable flag")
	if err != nil {
		return src, err
	}
	src.RequireSerializable = b != 0
	return src, d.done()
}

func decodeStrings(pay []byte) ([]string, error) {
	d := &decoder{buf: pay, section: "strs"}
	n, err := d.count("string")
	if err != nil {
		return nil, err
	}
	tab := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s, err := d.str("string")
		if err != nil {
			return nil, err
		}
		tab = append(tab, s)
	}
	return tab, d.done()
}

func decodeProps(d *decoder, tab []string) (graphdb.Props, error) {
	n, err := d.count("property")
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	props := make(graphdb.Props, n)
	for i := 0; i < n; i++ {
		key, err := d.ref(tab, "property key")
		if err != nil {
			return nil, err
		}
		v, err := decodeValue(d, tab)
		if err != nil {
			return nil, err
		}
		props[key] = v
	}
	return props, nil
}

func decodeValue(d *decoder, tab []string) (any, error) {
	tag, err := d.byte("value tag")
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagBool:
		b, err := d.byte("bool value")
		if err != nil {
			return nil, err
		}
		return b != 0, nil
	case tagInt:
		v, err := d.varint("int value")
		if err != nil {
			return nil, err
		}
		return int(v), nil
	case tagFloat:
		if len(d.buf)-d.off < 8 {
			return nil, d.fail("float value")
		}
		bits := binary.LittleEndian.Uint64(d.buf[d.off:])
		d.off += 8
		return math.Float64frombits(bits), nil
	case tagString:
		return d.ref(tab, "string value")
	case tagInts:
		n, err := d.count("int-list value")
		if err != nil {
			return nil, err
		}
		out := make([]int, n)
		for i := range out {
			v, err := d.varint("int-list element")
			if err != nil {
				return nil, err
			}
			out[i] = int(v)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("store: section %q: unknown value tag 0x%02x at offset %d: file corrupted", d.section, tag, d.off-1)
	}
}

func decodeNodes(pay []byte, tab []string) ([]*graphdb.Node, error) {
	d := &decoder{buf: pay, section: "node"}
	n, err := d.count("node")
	if err != nil {
		return nil, err
	}
	nodes := make([]*graphdb.Node, 0, n)
	for i := 0; i < n; i++ {
		id, err := d.uvarint("node ID")
		if err != nil {
			return nil, err
		}
		ln, err := d.count("label")
		if err != nil {
			return nil, err
		}
		labels := make([]string, ln)
		for j := range labels {
			if labels[j], err = d.ref(tab, "label"); err != nil {
				return nil, err
			}
		}
		props, err := decodeProps(d, tab)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, &graphdb.Node{ID: graphdb.ID(id), Labels: labels, Props: props})
	}
	return nodes, d.done()
}

func decodeRels(pay []byte, tab []string) ([]*graphdb.Rel, error) {
	d := &decoder{buf: pay, section: "rels"}
	n, err := d.count("rel")
	if err != nil {
		return nil, err
	}
	rels := make([]*graphdb.Rel, 0, n)
	for i := 0; i < n; i++ {
		id, err := d.uvarint("rel ID")
		if err != nil {
			return nil, err
		}
		typ, err := d.ref(tab, "rel type")
		if err != nil {
			return nil, err
		}
		start, err := d.uvarint("rel start")
		if err != nil {
			return nil, err
		}
		end, err := d.uvarint("rel end")
		if err != nil {
			return nil, err
		}
		props, err := decodeProps(d, tab)
		if err != nil {
			return nil, err
		}
		rels = append(rels, &graphdb.Rel{
			ID: graphdb.ID(id), Type: typ,
			Start: graphdb.ID(start), End: graphdb.ID(end), Props: props,
		})
	}
	return rels, d.done()
}
