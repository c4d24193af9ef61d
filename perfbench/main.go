// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded, closed-loop workload against the public entry points —
// core.Engine in-process and server.Server over loopback HTTP — checks
// every operation's output against an oracle built from hand-written
// data, and prints its metrics. The last line of standard output is one
// JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the same workload runs with spans recorded around every call into a
// layer, and the metrics are the per-layer ones. --workload all runs
// every workload in fresh processes and prints medians and quartiles
// across runs. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tabby/internal/searchindex"
)

// workers is the engine and server worker count in every workload: the
// reference host has two CPUs, so internal/parallel never oversubscribes.
const workers = 2

// setupRepeats is how many times each workload sets itself up; setup_s
// is the median.
const setupRepeats = 3

type workload struct {
	name string
	why  string
	run  func(*run) error
}

var workloads = []workload{
	{"cold-build", "Table VIII path: javasrc, taint, cpg and searchindex do the work on a fresh engine with no cache; no HTTP, cache or cypher runs", coldBuild},
	{"edit-loop", "edit and re-analyze through the real server: JSON decode, fingerprint, job queue, shared AnalysisCache and registry eviction", editLoop},
	{"serve-read", "reads of a stored graph over HTTP: pathfinder, the cypher planner and its fallback, JSON encoding and the response cache; no build", serveRead},
}

// The end-to-end metrics, defined on every workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// The per-layer metrics of a traced run. A layer the workload never
// calls reports 0.
var perLayer = []struct{ name, unit string }{
	{"javasrc.compile_ms", "ms"},
	{"javasrc.parse_hit_ratio", "ratio"},
	{"javasrc.body_hit_ratio", "ratio"},
	{"taint.analyze_ms", "ms"},
	{"taint.component_hit_ratio", "ratio"},
	{"cpg.build_ms", "ms"},
	{"cpg.graph_reuse_delta_share", "ratio"},
	{"cpg.pruned_call_ratio", "ratio"},
	{"graphdb.nodes", "count"},
	{"graphdb.rels", "count"},
	{"searchindex.compile_ms", "ms"},
	{"pathfinder.find_ms", "ms"},
	{"pathfinder.expansions", "count"},
	{"cypher.planned_ms", "ms"},
	{"cypher.interpreted_ms", "ms"},
	{"cypher.fallback_share", "ratio"},
	{"store.write_ms", "ms"},
	{"store.snapshot_bytes", "bytes"},
	{"backend.open_ms", "ms"},
	{"core.fingerprint_ms", "ms"},
	{"server.job_ms", "ms"},
	{"server.residual_ms", "ms"},
	{"server.resp_cache_hit_ratio", "ratio"},
	{"server.builds", "count"},
	{"server.result_hits", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"trace.unattributed_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one workload run in this process.
type run struct {
	name    string
	seed    int64
	seconds time.Duration
	trace   bool
	outDir  string
	out     io.Writer
	orc     *oracle
	rec     *recorder // nil unless tracing

	mu        sync.Mutex
	attempted int
	failed    int
	rejects   []string
	values    map[string]float64
}

// note prints one human-readable report line; every line before the
// final JSON result starts with "# ".
func (r *run) note(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// attempt counts one operation and, when err is non-nil, records it as
// failed together with the request that produced it.
func (r *run) attempt(req string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.rejects) < 50 {
			r.rejects = append(r.rejects, fmt.Sprintf("%s: %v", req, err))
		}
	}
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// latencyLine prints a latency population as median and the highest
// percentile with at least ten samples beyond it, with the sample count.
func (r *run) latencyLine(name string, lats []float64) {
	if len(lats) == 0 {
		r.note("%-22s no samples", name)
		return
	}
	p := tailPercentile(len(lats))
	if p == 50 {
		r.note("%-22s p50 %.3f ms (n=%d, too few for a tail)", name, median(lats), len(lats))
		return
	}
	r.note("%-22s p50 %.3f ms, p%g %.3f ms (n=%d)", name, median(lats), p, quantile(lats, p/100), len(lats))
}

func main() {
	name := flag.String("workload", "", "workload: cold-build, edit-loop, serve-read, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	runs := flag.Int("runs", 3, "with --workload all: runs per workload, seeds seed..seed+runs-1")
	outDir := flag.String("out", ".bench_build/out", "directory for span dumps and snapshots")
	flag.Parse()

	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *runs, *outDir))
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload cold-build|edit-loop|serve-read|all, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	r := &run{
		name:    wl.name,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		outDir:  *outDir,
		out:     out,
		orc:     newOracle(),
		values:  map[string]float64{},
	}
	if r.trace {
		r.rec = &recorder{}
	}
	header(r, wl)
	code := execute(r, wl)
	out.Flush()
	os.Exit(code)
}

// header prints the run's machine facts and inputs.
func header(r *run, wl *workload) {
	r.note("perfbench workload=%s seed=%d seconds=%g trace=%v", wl.name, r.seed, r.seconds.Seconds(), r.trace)
	r.note("why: %s", wl.why)
	r.note("go=%s nproc=%d GOMAXPROCS=%d commit=%s workers=%d backend=%s mmap_supported=%v",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit(), workers, backendKind(), searchindex.LayoutSupported())
}

// backendKind names the backend serve-read opens its snapshot with.
func backendKind() string {
	if searchindex.LayoutSupported() {
		return "mmap"
	}
	return "mem"
}

// commit reads the checked-out commit from .git when there is one.
func commit() string {
	for _, dir := range []string{".git"} {
		head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
		if err != nil {
			continue
		}
		h := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(h, "ref: "); ok {
			b, err := os.ReadFile(filepath.Join(dir, ref))
			if err != nil {
				return "unknown"
			}
			h = strings.TrimSpace(string(b))
		}
		if len(h) > 12 {
			h = h[:12]
		}
		return h
	}
	return "unknown"
}

func execute(r *run, wl *workload) int {
	if err := r.orc.selfTest(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	r.note("oracle: %d expected endpoints (manifests + URLDNS); self-test passed", len(r.orc.expected))
	if err := wl.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	r.set("peak_rss_mb", peakRSSMB())
	if r.trace {
		if err := r.rec.writeFile(filepath.Join(r.outDir, fmt.Sprintf("spans-%s-%d.jsonl", r.name, r.seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
	}
	r.note("error_rate %.4f (%d failed of %d attempted)", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, rej := range r.rejects {
		r.note("REJECTED %s", rej)
	}
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	list := endToEnd
	if r.trace {
		list = perLayer
	}
	for _, m := range list {
		res.Metrics[m.name] = metric{Value: r.values[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(r.out, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations disagree with the oracle\n", r.name, r.failed, r.attempted)
		return 1
	}
	return 0
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// runAll runs every workload `runs` times untraced and once traced, each
// in a fresh process, and prints each metric's median and quartiles
// across runs. It fails when any run fails or any output is rejected.
func runAll(seed int64, seconds float64, runs int, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, wl := range workloads {
		fmt.Printf("== %s: %s\n", wl.name, wl.why)
		for _, traced := range []int{0, 1} {
			n := runs
			if traced == 1 {
				n = 1
			}
			values := map[string][]float64{}
			units := map[string]string{}
			for i := 0; i < n; i++ {
				s := seed + int64(i)
				cmd := exec.Command(self, "--workload", wl.name, "--seed", strconv.FormatInt(s, 10),
					"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(traced), "--out", outDir)
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				runErr := cmd.Run()
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || runErr != nil || !res.Correct {
					fmt.Printf("   seed %d trace %d FAILED (exit: %v)\n", s, traced, runErr)
					for _, l := range lines {
						if strings.HasPrefix(l, "# REJECTED") || strings.HasPrefix(l, "# error_rate") {
							fmt.Println("  ", l)
						}
					}
					code = 1
					continue
				}
				for _, l := range lines {
					if strings.HasPrefix(l, "# error_rate") {
						fmt.Printf("   seed %d trace %d %s\n", s, traced, strings.TrimPrefix(l, "# "))
					}
				}
				for k, m := range res.Metrics {
					values[k] = append(values[k], m.Value)
					units[k] = m.Unit
				}
			}
			names := make([]string, 0, len(values))
			for k := range values {
				names = append(names, k)
			}
			sort.Strings(names)
			for _, k := range names {
				q1, q2, q3 := quartiles(values[k])
				fmt.Printf("   %-30s %-6s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.3f  runs %d\n",
					k, units[k], q2, q1, q3, ratio(q3-q1, q2), len(values[k]))
			}
		}
	}
	return code
}
