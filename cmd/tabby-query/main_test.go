package main

import (
	"os"
	"path/filepath"
	"testing"

	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/javasrc"
)

func buildReport(t *testing.T) (*core.Engine, *core.Report) {
	t.Helper()
	engine := core.New(core.Options{})
	rep, err := engine.AnalyzeSources([]javasrc.ArchiveSource{corpus.RT()})
	if err != nil {
		t.Fatal(err)
	}
	return engine, rep
}

func buildSnapshotFile(t *testing.T) string {
	t.Helper()
	engine, rep := buildReport(t)
	path := filepath.Join(t.TempDir(), "cpg.tsnap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := engine.SaveSnapshot(f, rep, "rt", "modeled runtime"); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunOneShotQuerySnapshot(t *testing.T) {
	path := buildSnapshotFile(t)
	queries := []string{
		`MATCH (m:Method {IS_SINK: true}) RETURN m.NAME LIMIT 3`,
		`CALL tabby.findGadgetChains(12)`,
		`CALL tabby.sinks()`,
	}
	for _, q := range queries {
		if err := run(path, q); err != nil {
			t.Errorf("run(%q): %v", q, err)
		}
	}
}

func TestRunValidatesInput(t *testing.T) {
	if err := run("", "MATCH (m) RETURN m"); err == nil {
		t.Error("missing snapshot path must error")
	}
	if err := run("/nonexistent/cpg.tsnap", "MATCH (m) RETURN m"); err == nil {
		t.Error("missing snapshot file must error")
	}
	// A file that is not a snapshot must fail with a format error, not a
	// panic.
	garbage := filepath.Join(t.TempDir(), "garbage.tsnap")
	if err := os.WriteFile(garbage, []byte("{\"format\":\"tabby-graph\",\"version\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(garbage, "MATCH (m) RETURN m"); err == nil {
		t.Error("non-snapshot file passed as -snapshot must error")
	}
	path := buildSnapshotFile(t)
	if err := run(path, "NOT A QUERY"); err == nil {
		t.Error("bad query must error")
	}
}
