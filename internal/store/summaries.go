// Summary-cache persistence: the standalone cache file written by tabby
// -cache-dir. It reuses the snapshot format's string table, varint
// encoding and CRC section framing, so the corruption-detection story —
// checksums, bounds-checked decoding, clear errors — is identical.
package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"tabby/internal/java"
	"tabby/internal/jimple"
	"tabby/internal/taint"
)

// SummaryFormatVersion is the standalone summary-cache file format.
const SummaryFormatVersion = 1

const summaryMagic = "TABBYSUM"

// The cache file carries its own string table plus the "sumc" payload.
var summaryOrder = []string{"strs", "sumc", "fini"}

// encodeSummaries renders exported cone entries. Method keys, class
// names, sub-signatures and field names repeat heavily across entries, so
// everything stringy goes through the shared table.
func encodeSummaries(entries []taint.ConeEntry, tab *stringTable) []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = appendString(b, e.Fingerprint)
		b = binary.AppendUvarint(b, uint64(len(e.Methods)))
		for _, m := range e.Methods {
			b = binary.AppendUvarint(b, tab.ref(string(m.Key)))
			b = binary.AppendUvarint(b, uint64(len(m.Action)))
			for _, slot := range m.Action.SortedSlots() {
				o := m.Action[slot]
				b = binary.AppendUvarint(b, uint64(slot.Kind))
				b = binary.AppendVarint(b, int64(slot.Param))
				b = binary.AppendUvarint(b, tab.ref(slot.Field))
				b = binary.AppendUvarint(b, uint64(o.Kind))
				b = binary.AppendVarint(b, int64(o.Param))
				b = binary.AppendUvarint(b, tab.ref(o.Field))
			}
			b = binary.AppendUvarint(b, uint64(len(m.Calls)))
			for _, c := range m.Calls {
				b = binary.AppendUvarint(b, tab.ref(string(c.Caller)))
				b = binary.AppendUvarint(b, tab.ref(c.CalleeClass))
				b = binary.AppendUvarint(b, tab.ref(c.CalleeSub))
				b = binary.AppendUvarint(b, uint64(c.Kind))
				b = binary.AppendUvarint(b, uint64(len(c.PP)))
				for _, w := range c.PP {
					b = binary.AppendVarint(b, int64(w))
				}
				b = binary.AppendVarint(b, int64(c.StmtIndex))
				if c.Pruned {
					b = append(b, 1)
				} else {
					b = append(b, 0)
				}
			}
		}
	}
	return b
}

func decodeSummaries(pay []byte, tab []string) ([]taint.ConeEntry, error) {
	d := &decoder{buf: pay, section: "sumc"}
	n, err := d.count("cone entry")
	if err != nil {
		return nil, err
	}
	entries := make([]taint.ConeEntry, 0, n)
	for i := 0; i < n; i++ {
		var e taint.ConeEntry
		if e.Fingerprint, err = d.str("cone fingerprint"); err != nil {
			return nil, err
		}
		mn, err := d.count("method summary")
		if err != nil {
			return nil, err
		}
		e.Methods = make([]taint.MethodSummary, 0, mn)
		for j := 0; j < mn; j++ {
			var m taint.MethodSummary
			key, err := d.ref(tab, "summary method key")
			if err != nil {
				return nil, err
			}
			m.Key = java.MethodKey(key)
			an, err := d.count("action slot")
			if err != nil {
				return nil, err
			}
			m.Action = make(taint.Action, an)
			for k := 0; k < an; k++ {
				slot, err := decodeSlot(d, tab)
				if err != nil {
					return nil, err
				}
				origin, err := decodeOrigin(d, tab)
				if err != nil {
					return nil, err
				}
				m.Action[slot] = origin
			}
			cn, err := d.count("call edge")
			if err != nil {
				return nil, err
			}
			if cn > 0 {
				m.Calls = make([]taint.CallEdge, 0, cn)
			}
			for k := 0; k < cn; k++ {
				c, err := decodeCallEdge(d, tab)
				if err != nil {
					return nil, err
				}
				m.Calls = append(m.Calls, c)
			}
			e.Methods = append(e.Methods, m)
		}
		entries = append(entries, e)
	}
	return entries, d.done()
}

func decodeSlot(d *decoder, tab []string) (taint.Slot, error) {
	var s taint.Slot
	kind, err := d.uvarint("slot kind")
	if err != nil {
		return s, err
	}
	param, err := d.varint("slot param")
	if err != nil {
		return s, err
	}
	field, err := d.ref(tab, "slot field")
	if err != nil {
		return s, err
	}
	return taint.Slot{Kind: taint.SlotKind(kind), Param: int(param), Field: field}, nil
}

func decodeOrigin(d *decoder, tab []string) (taint.Origin, error) {
	var o taint.Origin
	kind, err := d.uvarint("origin kind")
	if err != nil {
		return o, err
	}
	param, err := d.varint("origin param")
	if err != nil {
		return o, err
	}
	field, err := d.ref(tab, "origin field")
	if err != nil {
		return o, err
	}
	return taint.Origin{Kind: taint.OriginKind(kind), Param: int(param), Field: field}, nil
}

func decodeCallEdge(d *decoder, tab []string) (taint.CallEdge, error) {
	var c taint.CallEdge
	caller, err := d.ref(tab, "call caller")
	if err != nil {
		return c, err
	}
	c.Caller = java.MethodKey(caller)
	if c.CalleeClass, err = d.ref(tab, "call callee class"); err != nil {
		return c, err
	}
	if c.CalleeSub, err = d.ref(tab, "call callee sub"); err != nil {
		return c, err
	}
	kind, err := d.uvarint("call invoke kind")
	if err != nil {
		return c, err
	}
	c.Kind = jimple.InvokeKind(kind)
	pn, err := d.count("polluted position")
	if err != nil {
		return c, err
	}
	c.PP = make(taint.PP, pn)
	for i := range c.PP {
		w, err := d.varint("polluted position weight")
		if err != nil {
			return c, err
		}
		c.PP[i] = taint.Weight(w)
	}
	idx, err := d.varint("call stmt index")
	if err != nil {
		return c, err
	}
	c.StmtIndex = int(idx)
	pruned, err := d.byte("call pruned flag")
	if err != nil {
		return c, err
	}
	c.Pruned = pruned != 0
	return c, nil
}

// WriteSummaries writes an exported summary cache as a standalone
// "TABBYSUM" file: magic, version, then strs/sumc/fini sections with the
// same CRC-framed layout snapshots use.
func WriteSummaries(w io.Writer, entries []taint.ConeEntry) error {
	tab := newStringTable()
	sumcPay := encodeSummaries(entries, tab)
	sections := map[string][]byte{
		"strs": tab.encode(),
		"sumc": sumcPay,
		"fini": nil,
	}
	hdr := make([]byte, 0, len(summaryMagic)+2)
	hdr = append(hdr, summaryMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, SummaryFormatVersion)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("store: write summary header: %w", err)
	}
	for _, tag := range summaryOrder {
		if err := writeSection(w, tag, sections[tag]); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummariesFile writes the summary cache to path atomically
// (same-directory temp file + fsync + rename, like WriteFile).
func WriteSummariesFile(path string, entries []taint.ConeEntry) error {
	return atomicWriteFile(path, func(f *os.File) error { return WriteSummaries(f, entries) })
}

// ReadSummaries decodes a standalone summary-cache file, verifying magic,
// version, section order and every checksum.
func ReadSummaries(r io.Reader) ([]taint.ConeEntry, error) {
	hdr := make([]byte, len(summaryMagic)+2)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("store: read summary header: %w (not a tabby summary cache, or truncated)", err)
	}
	if string(hdr[:len(summaryMagic)]) != summaryMagic {
		return nil, fmt.Errorf("store: bad magic %q: not a tabby summary-cache file", hdr[:len(summaryMagic)])
	}
	version := binary.LittleEndian.Uint16(hdr[len(summaryMagic):])
	if version != SummaryFormatVersion {
		return nil, fmt.Errorf("store: unsupported summary-cache format version %d (this build reads version %d)", version, SummaryFormatVersion)
	}
	payloads := make(map[string][]byte, len(summaryOrder))
	for _, want := range summaryOrder {
		tag, payload, err := readSection(r, summaryOrder)
		if err != nil {
			return nil, err
		}
		if tag != want {
			return nil, fmt.Errorf("store: unexpected section %q (want %q): file corrupted or out of order", tag, want)
		}
		payloads[tag] = payload
	}
	tab, err := decodeStrings(payloads["strs"])
	if err != nil {
		return nil, err
	}
	return decodeSummaries(payloads["sumc"], tab)
}

// ReadSummariesFile loads a standalone summary-cache file from path.
func ReadSummariesFile(path string) ([]taint.ConeEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return ReadSummaries(f)
}
