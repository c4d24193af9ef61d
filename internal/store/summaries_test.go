package store

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"tabby/internal/taint"
)

func encodeSummariesFile(t *testing.T, entries []taint.ConeEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSummaries(&buf, entries); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSummariesRoundTrip covers the standalone "TABBYSUM" cache file and
// its interaction with the in-memory cache: file → entries → cache →
// export must reproduce the entries (Export returns fingerprint order).
func TestSummariesRoundTrip(t *testing.T) {
	entries := buildSummaries()
	data := encodeSummariesFile(t, entries)
	got, err := ReadSummaries(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Errorf("summaries differ after round trip:\n got %+v\nwant %+v", got, entries)
	}
	reexported := taint.ImportSummaryCache(got).Export()
	if !reflect.DeepEqual(reexported, entries) {
		t.Errorf("import+export changed the entries")
	}

	path := t.TempDir() + "/cache.tabbysum"
	if err := WriteSummariesFile(path, entries); err != nil {
		t.Fatal(err)
	}
	fromFile, err := ReadSummariesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile, entries) {
		t.Errorf("file round trip differs")
	}
	if _, err := ReadSummariesFile(t.TempDir() + "/missing.tabbysum"); err == nil {
		t.Error("missing cache file must error")
	}
}

// TestSummariesRejectCorruption applies the snapshot suite's exhaustive
// truncation and byte-flip checks to the standalone cache file.
func TestSummariesRejectCorruption(t *testing.T) {
	data := encodeSummariesFile(t, buildSummaries())
	for n := 0; n < len(data); n++ {
		if _, err := ReadSummaries(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation to %d/%d bytes read successfully", n, len(data))
		}
	}
	bad := make([]byte, len(data))
	for i := range data {
		copy(bad, data)
		bad[i] ^= 0xff
		if _, err := ReadSummaries(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flipping byte %d/%d still read successfully", i, len(data))
		}
	}
}

// TestSummariesRejectWrongMagicAndVersion pins the header diagnostics.
func TestSummariesRejectWrongMagicAndVersion(t *testing.T) {
	data := encodeSummariesFile(t, buildSummaries())
	if _, err := ReadSummaries(bytes.NewReader([]byte("TABBYSNP"))); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Errorf("short header: err = %v", err)
	}
	badMagic := append([]byte(nil), data...)
	copy(badMagic, "NOTACACH")
	if _, err := ReadSummaries(bytes.NewReader(badMagic)); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err = %v", err)
	}
	badVer := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(badVer[len(summaryMagic):], SummaryFormatVersion+1)
	if _, err := ReadSummaries(bytes.NewReader(badVer)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: err = %v", err)
	}
}
