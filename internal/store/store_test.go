package store

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tabby/internal/cpg"
	"tabby/internal/graphdb"
	"tabby/internal/jimple"
	"tabby/internal/sinks"
	"tabby/internal/taint"
)

// buildSummaries hand-builds cone entries exercising every field the
// "sumc" codec encodes: field-qualified slots and origins, ∞ and
// positional weights, pruned and kept calls, empty and populated call
// lists.
func buildSummaries() []taint.ConeEntry {
	return []taint.ConeEntry{
		{
			Fingerprint: "cone-aaaa",
			Methods: []taint.MethodSummary{
				{
					Key: "com.example.A#run()",
					Action: taint.Action{
						taint.SlotReturnValue:                 taint.Param(1).WithField("member"),
						taint.SlotThisValue:                   taint.This,
						taint.FinalParam(2):                   taint.Null,
						{Kind: taint.SlotThis, Field: "next"}: taint.Param(2),
					},
					Calls: []taint.CallEdge{
						{
							Caller: "com.example.A#run()", CalleeClass: "com.example.B",
							CalleeSub: "call(java.lang.Object)", Kind: jimple.InvokeVirtual,
							PP: taint.PP{0, taint.WeightUnctrl, 2}, StmtIndex: 3,
						},
						{
							Caller: "com.example.A#run()", CalleeClass: "com.example.C",
							CalleeSub: "quiet()", Kind: jimple.InvokeStatic,
							PP: taint.PP{taint.WeightUnctrl}, StmtIndex: 9, Pruned: true,
						},
					},
				},
			},
		},
		{
			Fingerprint: "cone-bbbb",
			Methods: []taint.MethodSummary{
				{Key: "com.example.B#call(java.lang.Object)", Action: taint.Action{taint.SlotReturnValue: taint.Null}},
			},
		},
	}
}

// buildSnapshot constructs a small hand-made snapshot exercising every
// property value type the codec supports (bool, int, float64, string,
// []int) plus nil prop maps and rel props.
func buildSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	db := graphdb.New()
	a := db.CreateNode([]string{"Class"}, graphdb.Props{
		"NAME":       "com.example.A",
		"IS_ABS":     false,
		"SCORE":      1.5,
		"POSITIONS":  []int{0, -1, 2},
		"FIELD_SLOT": 7,
	})
	b := db.CreateNode([]string{"Method"}, graphdb.Props{
		"NAME":    "com.example.A#run()",
		"IS_SINK": true,
	})
	c := db.CreateNode([]string{"Method"}, nil)
	if _, err := db.CreateRel("HAS", a, b, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRel("CALL", b, c, graphdb.Props{"LINE": 42, "KIND": "virtual"}); err != nil {
		t.Fatal(err)
	}

	reg, err := sinks.NewRegistry([]sinks.Sink{
		{Class: "com.example.A", Method: "run", Type: sinks.TypeExec, TC: []int{0, 1}},
		{Class: "com.example.B", Method: "call", Type: sinks.TypeJNDI, TC: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Snapshot{
		Meta: Meta{
			Name:   "unit",
			Corpus: "hand-built",
			Stats: cpg.Stats{
				ClassNodes: 1, MethodNodes: 2, HasEdges: 1, CallEdges: 1,
				PrunedCalls: 3,
			},
			TotalCalls:  10,
			PrunedCalls: 3,
		},
		DB:      db,
		Sinks:   reg,
		Sources: sinks.SourceConfig{MethodNames: []string{"readObject"}, RequireSerializable: true},
	}
}

func encodeSnapshot(t testing.TB, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripPreservesEverything(t *testing.T) {
	snap := buildSnapshot(t)
	data := encodeSnapshot(t, snap)

	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Meta, snap.Meta) {
		t.Errorf("meta:\n got %+v\nwant %+v", got.Meta, snap.Meta)
	}
	if !reflect.DeepEqual(got.Sinks.All(), snap.Sinks.All()) {
		t.Errorf("sinks:\n got %+v\nwant %+v", got.Sinks.All(), snap.Sinks.All())
	}
	if !reflect.DeepEqual(got.Sources, snap.Sources) {
		t.Errorf("sources:\n got %+v\nwant %+v", got.Sources, snap.Sources)
	}
	if !reflect.DeepEqual(got.DB.Export(), snap.DB.Export()) {
		t.Errorf("graph export differs after round trip")
	}
	if !got.DB.Frozen() {
		t.Error("loaded store must be frozen")
	}
	// A frozen store still serves reads.
	if ids := got.DB.FindNodes("Method", "NAME", "com.example.A#run()"); len(ids) != 1 {
		t.Errorf("FindNodes on loaded store: %v", ids)
	}
}

func TestRoundTripIsByteStable(t *testing.T) {
	snap := buildSnapshot(t)
	data := encodeSnapshot(t, snap)
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Re-encoding the loaded snapshot must reproduce the file byte for
	// byte: the codec has one canonical form.
	again := encodeSnapshot(t, got)
	if !bytes.Equal(data, again) {
		t.Errorf("re-encoded snapshot differs: %d vs %d bytes", len(data), len(again))
	}
}

func TestWriteRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err == nil {
		t.Error("nil snapshot must error")
	}
	if err := Write(&buf, &Snapshot{}); err == nil {
		t.Error("nil graph must error")
	}
	db := graphdb.New()
	db.CreateNode([]string{"Class"}, graphdb.Props{"BAD": struct{}{}})
	err := Write(&buf, &Snapshot{DB: db})
	if err == nil || !strings.Contains(err.Error(), "unsupported value type") {
		t.Errorf("unsupported prop type: err = %v", err)
	}
}

func TestReadRejectsEmptyAndGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":        nil,
		"short header": []byte("TABBY"),
		"bad magic":    append([]byte("NOTASNAP"), 1, 0),
		"garbage":      []byte("this is definitely not a snapshot file at all"),
	}
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Read succeeded, want error", name)
		}
	}
}

func TestReadRejectsWrongVersion(t *testing.T) {
	data := encodeSnapshot(t, buildSnapshot(t))
	bad := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(bad[len(magic):], FormatVersion+1)
	_, err := Read(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("wrong version: err = %v", err)
	}
}

func TestReadRejectsChecksumMismatch(t *testing.T) {
	data := encodeSnapshot(t, buildSnapshot(t))
	// Flip a byte inside the first section's payload (header is
	// magic+version, then 4-byte tag + 4-byte length).
	off := len(magic) + 2 + 8 + 1
	bad := append([]byte(nil), data...)
	bad[off] ^= 0xff
	_, err := Read(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("flipped payload byte: err = %v", err)
	}
}

// TestReadNeverPanicsOnTruncation truncates the file at every possible
// offset: each prefix must produce an error, never a panic and never a
// silent success.
func TestReadNeverPanicsOnTruncation(t *testing.T) {
	data := encodeSnapshot(t, buildSnapshot(t))
	for n := 0; n < len(data); n++ {
		if _, err := Read(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation to %d/%d bytes read successfully", n, len(data))
		}
	}
}

// TestReadNeverPanicsOnFlippedBytes flips every byte of the file in
// turn. Payload flips must fail the checksum; header/frame flips must
// fail structurally. None may panic.
func TestReadNeverPanicsOnFlippedBytes(t *testing.T) {
	data := encodeSnapshot(t, buildSnapshot(t))
	bad := make([]byte, len(data))
	for i := range data {
		copy(bad, data)
		bad[i] ^= 0xff
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flipping byte %d/%d still read successfully", i, len(data))
		}
	}
}

func TestReadFileAndWriteFile(t *testing.T) {
	snap := buildSnapshot(t)
	path := t.TempDir() + "/snap.tsnap"
	if err := WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Name != "unit" {
		t.Errorf("meta name = %q", got.Meta.Name)
	}
	if _, err := ReadFile(t.TempDir() + "/missing.tsnap"); err == nil {
		t.Error("missing file must error")
	}
}

func TestFrozenStoreRejectsMutation(t *testing.T) {
	data := encodeSnapshot(t, buildSnapshot(t))
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("mutating a frozen store must panic")
		}
	}()
	got.DB.CreateNode([]string{"Class"}, nil)
}

// TestReadDoesNotTrustDeclaredSize: a section frame declaring a huge
// payload over a short input fails as truncated without allocating the
// declared size (the regression input is checked in under
// testdata/fuzz/FuzzSnapshot).
func TestReadDoesNotTrustDeclaredSize(t *testing.T) {
	data := []byte("TABBYSNP\x04\x00meta\xff\xff\xff\x3f")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("err = %v, want a truncation error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("Read allocated %d bytes for a %d-byte input", grew, len(data))
	}
}

// TestReadSectionKeepsExactPayload: a section larger than the first read
// chunk comes back with no spare capacity, so a loaded snapshot holds
// only the bytes its sections carry.
func TestReadSectionKeepsExactPayload(t *testing.T) {
	want := bytes.Repeat([]byte("tabby"), 700_000) // 3.5 MB, several chunks
	var buf bytes.Buffer
	if err := writeSection(&buf, "node", want); err != nil {
		t.Fatal(err)
	}
	tag, got, err := readSection(&buf, []string{"node"})
	if err != nil {
		t.Fatal(err)
	}
	if tag != "node" || !bytes.Equal(got, want) {
		t.Fatalf("readSection = %q, %d bytes; want node, %d bytes", tag, len(got), len(want))
	}
	if cap(got) != len(got) {
		t.Errorf("payload cap = %d, want %d", cap(got), len(got))
	}
}
