// Command tabby-bench regenerates the paper's evaluation tables:
//
//	tabby-bench -table 8          CPG generation efficiency (Table VIII)
//	tabby-bench -table 9          tool comparison (Table IX)
//	tabby-bench -table 10         development scenes (Table X)
//	tabby-bench -table 11         Spring-scene chains (Table XI)
//	tabby-bench -table rq4        the §IV-E aggregate
//	tabby-bench -table ablation   §III-C design-choice ablations
//	tabby-bench -table all        everything
//
// The Table VIII run defaults to scale 1.0 (the paper's full class and
// method counts, which takes minutes); use -scale 0.1 for a quick pass.
// End-to-end performance numbers come from perfbench/; the timing gates
// behind `make bench-*` are tests next to the code they measure.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"tabby/internal/bench"
	"tabby/internal/profiling"
)

func main() {
	var (
		table      = flag.String("table", "all", "which table to regenerate: 8, 9, 10, 11, rq4, ablation, all")
		scale      = flag.Float64("scale", 1.0, "Table VIII corpus scale factor (1.0 = paper-size)")
		runs       = flag.Int("runs", 3, "Table VIII repetitions per row (min/max trimmed when >2)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tabby-bench:", err)
		os.Exit(1)
	}
	runErr := run(*table, *scale, *runs)
	stopProfiles() // before any exit: os.Exit skips defers
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "tabby-bench:", runErr)
		os.Exit(1)
	}
}

func run(table string, scale float64, runs int) error {
	switch table {
	case "8", "9", "10", "11", "rq4", "ablation", "all":
	default:
		return fmt.Errorf("unknown table %q (want 8, 9, 10, 11, rq4, ablation or all)", table)
	}
	fmt.Printf("tabby-bench: GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))
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
	return nil
}
