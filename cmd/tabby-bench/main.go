// Command tabby-bench regenerates the paper's evaluation tables:
//
//	tabby-bench -table 8          CPG generation efficiency (Table VIII)
//	tabby-bench -table 9          tool comparison (Table IX)
//	tabby-bench -table 10         development scenes (Table X)
//	tabby-bench -table 11         Spring-scene chains (Table XI)
//	tabby-bench -table rq4        the §IV-E aggregate
//	tabby-bench -table ablation   §III-C design-choice ablations
//	tabby-bench -table parallel   worker-scaling over the largest Table VIII
//	                              row (writes BENCH_parallel.json)
//	tabby-bench -table build      cold-build stage costs (compile / taint /
//	                              cpg ns/op + allocs/op) over the full
//	                              corpus at workers=1, with the speedup
//	                              vs the recorded pre-fast-path seed
//	                              (writes BENCH_build.json)
//	tabby-bench -table incremental cold vs warm vs one-class-changed
//	                              cache scenarios over the Spring scene
//	                              (writes BENCH_incremental.json)
//	tabby-bench -table query      Cypher-lite interpreter vs compiled
//	                              iterator plans (writes BENCH_query.json)
//	tabby-bench -table snapshot   storage backends: full heap parse vs
//	                              zero-copy mmap view — open latency,
//	                              resident bytes, serving throughput
//	                              (writes BENCH_snapshot.json)
//	tabby-bench -table serve      HTTP serve path under load: analyze
//	                              builds vs repeat uploads, cold vs
//	                              cached reads, p50/p99/QPS
//	                              (writes BENCH_serve.json)
//	tabby-bench -table all        everything
//
// The Table VIII run defaults to scale 1.0 (the paper's full class and
// method counts, which takes minutes); use -scale 0.1 for a quick pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"tabby/internal/bench"
	"tabby/internal/parallel"
	"tabby/internal/profiling"
)

func main() {
	var (
		table      = flag.String("table", "all", "which table to regenerate: 8, 9, 10, 11, rq4, all")
		scale      = flag.Float64("scale", 1.0, "Table VIII corpus scale factor (1.0 = paper-size)")
		runs       = flag.Int("runs", 3, "Table VIII repetitions per row (min/max trimmed when >2)")
		workers    = flag.Int("workers", 0, "pipeline worker count (0 = GOMAXPROCS, 1 = sequential)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tabby-bench:", err)
		os.Exit(1)
	}
	runErr := run(*table, *scale, *runs, *workers)
	stopProfiles() // before any exit: os.Exit skips defers
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "tabby-bench:", runErr)
		os.Exit(1)
	}
}

func run(table string, scale float64, runs, workers int) error {
	switch table {
	case "8", "9", "10", "11", "rq4", "ablation", "parallel", "build", "incremental", "query", "snapshot", "serve", "all":
	default:
		return fmt.Errorf("unknown table %q (want 8, 9, 10, 11, rq4, ablation, parallel, build, incremental, query, snapshot, serve or all)", table)
	}
	fmt.Printf("tabby-bench: workers=%d (resolved %d), GOMAXPROCS=%d\n",
		workers, parallel.Resolve(workers), runtime.GOMAXPROCS(0))
	want := func(t string) bool { return table == t || table == "all" }
	if want("8") {
		fmt.Println("=== Table VIII: CPG generation efficiency ===")
		t, err := bench.RunTable8(scale, runs)
		if err != nil {
			return err
		}
		fmt.Println(t.Format())
	}
	if want("9") {
		fmt.Println("=== Table IX: comparison with state-of-the-art tools ===")
		t, err := bench.RunTable9(bench.EvalOptions{})
		if err != nil {
			return err
		}
		fmt.Println(t.Format())
	}
	if want("10") {
		fmt.Println("=== Table X: development-scene detection ===")
		t, err := bench.RunTable10()
		if err != nil {
			return err
		}
		fmt.Println(t.Format())
	}
	if want("11") {
		fmt.Println("=== Table XI: Spring framework gadget chains ===")
		out, err := bench.Table11()
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if want("rq4") {
		fmt.Println("=== RQ4 aggregate ===")
		r, err := bench.RunRQ4(bench.EvalOptions{})
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
	}
	if want("ablation") {
		fmt.Println("=== Ablation: §III-C design choices over the Table IX corpus ===")
		results, err := bench.RunAblationSuite()
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatAblation(results))
	}
	if want("parallel") {
		fmt.Println("=== Parallel pipeline: worker scaling ===")
		r, err := bench.RunParallel(scale, runs, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		f, err := os.Create("BENCH_parallel.json")
		if err != nil {
			return err
		}
		defer f.Close()
		if err := r.WriteJSON(f); err != nil {
			return err
		}
		fmt.Println("written to BENCH_parallel.json")
	}
	if want("build") {
		fmt.Println("=== Cold build: per-stage cost over the full corpus ===")
		r, err := bench.RunBuild(runs)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		f, err := os.Create("BENCH_build.json")
		if err != nil {
			return err
		}
		defer f.Close()
		if err := r.WriteJSON(f); err != nil {
			return err
		}
		fmt.Println("written to BENCH_build.json")
	}
	if want("incremental") {
		fmt.Println("=== Incremental analysis: cold vs warm vs one-class-changed ===")
		r, err := bench.RunIncremental(runs)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		f, err := os.Create("BENCH_incremental.json")
		if err != nil {
			return err
		}
		defer f.Close()
		if err := r.WriteJSON(f); err != nil {
			return err
		}
		fmt.Println("written to BENCH_incremental.json")
	}
	if want("query") {
		fmt.Println("=== Cypher-lite: interpreter vs compiled plan ===")
		r, err := bench.RunQuery(runs * 20) // query ops are cheap; more iterations steady the clock
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		f, err := os.Create("BENCH_query.json")
		if err != nil {
			return err
		}
		defer f.Close()
		if err := r.WriteJSON(f); err != nil {
			return err
		}
		fmt.Println("written to BENCH_query.json")
	}
	if want("snapshot") {
		fmt.Println("=== Snapshot backends: heap parse vs zero-copy mmap ===")
		r, err := bench.RunSnapshot(runs * 3)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		f, err := os.Create("BENCH_snapshot.json")
		if err != nil {
			return err
		}
		defer f.Close()
		if err := r.WriteJSON(f); err != nil {
			return err
		}
		fmt.Println("written to BENCH_snapshot.json")
	}
	if want("serve") {
		fmt.Println("=== Serve path: async analyze, result + response caches under load ===")
		r, err := bench.RunServe(runs)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		f, err := os.Create("BENCH_serve.json")
		if err != nil {
			return err
		}
		defer f.Close()
		if err := r.WriteJSON(f); err != nil {
			return err
		}
		fmt.Println("written to BENCH_serve.json")
	}
	return nil
}
