// Package profiling wires runtime/pprof into the CLI commands: a CPU
// profile spanning the whole run and a heap profile written at exit.
// Both cmd/tabby and cmd/tabby-bench expose it as -cpuprofile/-memprofile
// flags, so a search regression can be profiled exactly where it is
// reported (e.g. `tabby -component C3P0 -cpuprofile cpu.out`).
package profiling

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins profiling per the flag values (either may be empty) and
// returns a stop function to defer: it ends the CPU profile and writes
// the heap profile. Errors from Start abort the run — a requested profile
// that cannot be written is a broken measurement, not a warning.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the retained-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}

// Stage runs fn with the pprof label stage=name attached to the current
// goroutine — and inherited by every goroutine fn spawns, so a parallel
// stage's workers are labeled too. CPU profiles taken with -cpuprofile
// then attribute samples per pipeline stage:
//
//	go tool pprof -tagfocus stage=taint cpu.out   # only the fixpoint
//	go tool pprof -tags cpu.out                   # per-stage totals
//
// The pipeline labels its stages compile, taint, cpg, and search.
func Stage(name string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("stage", name), func(context.Context) { fn() })
}
