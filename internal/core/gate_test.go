package core

import (
	"os"
	"testing"
	"time"

	"tabby/internal/corpus"
	"tabby/internal/cpg"
	"tabby/internal/javasrc"
	"tabby/internal/taint"
)

// Seed cold-build measurements, recorded at GOMAXPROCS=1 workers=1 over
// the full corpus (26 components + the Spring scene) immediately before
// the dense-id/slot-env fast path landed. TestBuildGate compares every
// fresh run against these: the fast path must stay ≥1.5x faster and
// allocate ≥3x less.
const (
	buildSeedNsPerOp     int64 = 545_952_000
	buildSeedAllocsPerOp int64 = 5_028_411
)

// armGate skips a timing gate unless TABBY_BENCH_GATE is set:
// wall-clock assertions are load-sensitive, so only the make targets
// arm them.
func armGate(t *testing.T, target string) {
	t.Helper()
	if os.Getenv("TABBY_BENCH_GATE") == "" {
		t.Skipf("set TABBY_BENCH_GATE=1 (make %s) to run the timing gate", target)
	}
}

// TestBuildGate is the gate behind `make bench-build`: at GOMAXPROCS=1
// workers=1, a cacheless build (compile + taint + cpg, no search) of
// every scenario of the full corpus must be ≥1.5x faster and allocate
// ≥3x less than the recorded pre-fast-path seed.
func TestBuildGate(t *testing.T) {
	armGate(t, "bench-build")
	scenarios := fullCorpus(t)
	var err error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N && err == nil; i++ {
			for _, sc := range scenarios {
				if err = coldBuild(sc.archives); err != nil {
					break
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(buildSeedNsPerOp) / float64(res.NsPerOp())
	allocRatio := float64(buildSeedAllocsPerOp) / float64(res.AllocsPerOp())
	t.Logf("cold build: %v/op, %d allocs/op over %d runs; vs seed %.2fx faster, %.2fx fewer allocs",
		time.Duration(res.NsPerOp()), res.AllocsPerOp(), res.N, speedup, allocRatio)
	if speedup < 1.5 {
		t.Errorf("cold build speedup vs seed %.2fx, gate requires >= 1.5x", speedup)
	}
	if allocRatio < 3 {
		t.Errorf("cold build alloc ratio vs seed %.2fx, gate requires >= 3x", allocRatio)
	}
}

// coldBuild runs the cold pipeline's build stages sequentially, the
// configuration the seed constants were recorded under.
func coldBuild(archives []javasrc.ArchiveSource) error {
	prog, err := javasrc.CompileArchivesOpts(archives, javasrc.CompileOptions{Workers: 1})
	if err != nil {
		return err
	}
	res, err := taint.Analyze(prog, taint.Options{Workers: 1})
	if err != nil {
		return err
	}
	_, err = cpg.BuildWithResult(prog, res, cpg.Options{Workers: 1})
	return err
}

// TestIncrementalGate is the gate behind `make bench-incr`: at
// GOMAXPROCS=1 over the Spring scene, with output identical to the
// cacheless pipeline, a rerun of unchanged sources against a warm cache
// must be ≥3x faster than a cold-cache run, and a one-class-changed
// rerun ≥2x. Re-warming the cache before each timed run is setup, not
// the work being measured.
func TestIncrementalGate(t *testing.T) {
	armGate(t, "bench-incr")
	spring, err := corpus.SceneByName("Spring")
	if err != nil {
		t.Fatal(err)
	}
	archives := append([]javasrc.ArchiveSource{corpus.RT()}, spring.Archives...)
	mutated, ok := corpus.MutateOneClass(archives)
	if !ok {
		t.Fatal("no mutation point in the Spring scene")
	}
	checkIncrementalScenario(t, "scene/Spring", archives, 0)

	engine := New(Options{})
	run := func(warm bool, sources []javasrc.ArchiveSource) testing.BenchmarkResult {
		var err error
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N && err == nil; i++ {
				b.StopTimer()
				cache := NewAnalysisCache()
				if warm {
					_, err = engine.AnalyzeIncremental(cache, archives)
				}
				b.StartTimer()
				if err == nil {
					_, err = engine.AnalyzeIncremental(cache, sources)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run(false, archives)
	for _, sc := range []struct {
		name    string
		sources []javasrc.ArchiveSource
		min     float64
	}{
		{"warm", archives, 3},
		{"one-class-changed", mutated, 2},
	} {
		res := run(true, sc.sources)
		speedup := float64(cold.NsPerOp()) / float64(res.NsPerOp())
		t.Logf("%s: %v/op vs cold %v/op (%.2fx)", sc.name,
			time.Duration(res.NsPerOp()), time.Duration(cold.NsPerOp()), speedup)
		if speedup < sc.min {
			t.Errorf("%s speedup %.2fx, gate requires >= %gx", sc.name, speedup, sc.min)
		}
	}
}
