package backend

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/cypher"
	"tabby/internal/javasrc"
	"tabby/internal/pathfinder"
	"tabby/internal/searchindex"
	"tabby/internal/store"
)

// TestSnapshotGate is the gate behind `make bench-snap`: at GOMAXPROCS=1,
// over one snapshot of the whole Table IX component corpus written by
// the production save path,
//
//   - opening it through the zero-copy view must be at least 100x faster
//     than the full heap parse plus index compile;
//   - each mapped open must allocate at most 1024 objects and 1 MiB of
//     heap — O(labels + relationship types), never O(graph) — so a
//     server can front thousands of snapshot files;
//   - serving chains and a selective query off the view must take at
//     most 1.5x as long as off the heap backend, with identical answers.
//
// Wall-clock assertions are load-sensitive, so the gate only arms when
// TABBY_BENCH_GATE is set.
func TestSnapshotGate(t *testing.T) {
	if os.Getenv("TABBY_BENCH_GATE") == "" {
		t.Skip("set TABBY_BENCH_GATE=1 (make bench-snap) to run the timing gate")
	}
	if !searchindex.LayoutSupported() {
		t.Skip("host cannot view on-disk index layouts")
	}
	archives := []javasrc.ArchiveSource{corpus.RT()}
	for _, c := range corpus.Components() {
		archives = append(archives, c.Archives...)
	}
	engine := core.New(core.Options{Workers: 1})
	rep, err := engine.AnalyzeSources(archives)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.tsnap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.SaveSnapshot(f, rep, "corpus", "all-components"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	heapOpen := gateBench(t, func(b *testing.B) error {
		snap, err := store.ReadFile(path)
		if err != nil {
			return err
		}
		searchindex.For(snap.DB)
		return nil
	})
	mmapOpen := gateBench(t, func(b *testing.B) error {
		be, err := Open(path)
		if err != nil {
			return err
		}
		m, ok := be.(*Mmap)
		if !ok {
			return fmt.Errorf("opened as %q", be.Kind())
		}
		// Mappings are kept for the life of the process; unmap each one
		// outside the measurement so the run holds at most one.
		b.StopTimer()
		unmapFile(m.data)
		b.StartTimer()
		return nil
	})
	speedup := float64(heapOpen.NsPerOp()) / float64(mmapOpen.NsPerOp())
	t.Logf("open: heap %v, mmap %v (%.0fx); mmap %d allocs/op, %d B/op (heap open %d B/op)",
		time.Duration(heapOpen.NsPerOp()), time.Duration(mmapOpen.NsPerOp()), speedup,
		mmapOpen.AllocsPerOp(), mmapOpen.AllocedBytesPerOp(), heapOpen.AllocedBytesPerOp())
	if speedup < 100 {
		t.Errorf("mmap open speedup %.0fx, gate requires >= 100x (mem %dns, mmap %dns)",
			speedup, heapOpen.NsPerOp(), mmapOpen.NsPerOp())
	}
	if n := mmapOpen.AllocsPerOp(); n > 1024 {
		t.Errorf("mmap open allocates %d objects/op, gate requires <= 1024", n)
	}
	if n := mmapOpen.AllocedBytesPerOp(); n > 1<<20 {
		t.Errorf("mmap open allocates %d heap bytes/op, gate requires <= 1MiB", n)
	}

	// Steady-state serving: one open backend of each kind, identical
	// requests, the index compiled or viewed once as in the server.
	snap, err := store.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const query = `MATCH (m:Method) WHERE m.IS_SINK = true AND m.SINK_TYPE = "EXEC" RETURN m.NAME`
	opts := pathfinder.Options{Workers: 1}
	var ns [2][2]int64 // [backend][chains, query]
	var answers [2][2]any
	for i, be := range []Backend{FromSnapshot(snap), mapped} {
		ix := be.Index()
		for j, op := range []func() (any, error){
			func() (any, error) { return pathfinder.FindIndex(ix, opts) },
			func() (any, error) { return drainQuery(be, query) },
		} {
			if answers[i][j], err = op(); err != nil {
				t.Fatal(err)
			}
			ns[i][j] = gateBench(t, func(*testing.B) error { _, err := op(); return err }).NsPerOp()
		}
	}
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Fatal("heap and mmap backends answered differently")
	}
	for j, op := range []string{"chains", "query"} {
		ratio := float64(ns[1][j]) / float64(ns[0][j])
		t.Logf("%s: heap %v, mmap %v (%.2fx)", op, time.Duration(ns[0][j]), time.Duration(ns[1][j]), ratio)
		if ratio > 1.5 {
			t.Errorf("%s serving is %.2fx slower on mmap, gate requires <= 1.5x", op, ratio)
		}
	}
}

// gateBench benchmarks op with allocation reporting, failing the test
// on op's first error.
func gateBench(t *testing.T, op func(*testing.B) error) testing.BenchmarkResult {
	t.Helper()
	var err error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N && err == nil; i++ {
			err = op(b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// drainQuery runs one query through the server's cursor path and
// collects the rows.
func drainQuery(src cypher.Source, query string) ([][]any, error) {
	cur, err := cypher.RunAnyCursorSource(src, query)
	if err != nil {
		return nil, err
	}
	var rows [][]any
	for {
		row, err := cur.Next()
		if err != nil || row == nil {
			return rows, err
		}
		rows = append(rows, row)
	}
}
