// Command tabby runs the full gadget-chain detection pipeline (paper
// Fig. 2): semantic information extraction → code property graph
// construction with controllability analysis → storage → gadget chain
// finding.
//
// Inputs are mini-Java source trees (see internal/javasrc), bundled
// evaluation components, or development scenes:
//
//	tabby -dir ./myproject                analyze every .java under ./myproject
//	tabby -component C3P0                 analyze a bundled Table IX component
//	tabby -scene Spring                   analyze a bundled Table X scene
//	tabby -urldns                         the built-in URLDNS demonstration
//	tabby -list                           list bundled components and scenes
//
// Output options:
//
//	-stats          print CPG node/edge statistics
//	-chains         print discovered gadget chains (default true)
//	-save FILE      persist a snapshot (graph + registry state + metadata)
//	                for later tabby-query/tabby-server sessions
//	-cache-dir DIR  keep a persistent method-summary cache in DIR; reruns
//	                over mostly-unchanged sources reanalyze only the
//	                methods whose dependency cone actually changed
//	-max-depth N    Evaluator depth bound (default 12)
//	-confirm        concretely execute each chain (payload construction +
//	                jimple interpretation — the paper's §V-C future work)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/cpg"
	"tabby/internal/interp"
	"tabby/internal/javasrc"
	"tabby/internal/profiling"
	"tabby/internal/sinks"
	"tabby/internal/store"
	"tabby/internal/taint"
)

func main() {
	var (
		dir         = flag.String("dir", "", "directory of .java files to analyze (recursive)")
		component   = flag.String("component", "", "bundled Table IX component name")
		scene       = flag.String("scene", "", "bundled Table X scene name")
		urldns      = flag.Bool("urldns", false, "run the built-in URLDNS demonstration")
		list        = flag.Bool("list", false, "list bundled components and scenes")
		withRT      = flag.Bool("rt", true, "include the modeled Java runtime (rt.jar)")
		stats       = flag.Bool("stats", false, "print CPG statistics")
		chains      = flag.Bool("chains", true, "print discovered gadget chains")
		save        = flag.String("save", "", "persist a snapshot of the built graph to this file")
		cacheDir    = flag.String("cache-dir", "", "directory for the persistent method-summary cache; reruns reuse summaries whose dependency cone is unchanged")
		maxDepth    = flag.Int("max-depth", 0, "maximum chain length (0 = default 12)")
		mechanism   = flag.String("mechanism", "native", "deserialization mechanism: native or xstream")
		serDispatch = flag.Bool("serialization-dispatch", false, "synthesize DISPATCH edges from a virtual deserialization driver to every hierarchy-derived JVM callback and accept those targets as chain entry points")
		confirm     = flag.Bool("confirm", false, "concretely execute each chain to confirm it fires (§V-C extension)")
		dot         = flag.String("dot", "", "write a Graphviz DOT rendering of the CPG (filtered to chain classes) to this file")
		workers     = flag.Int("workers", 0, "worker count for every pipeline stage (0 = GOMAXPROCS, 1 = sequential; output is identical at any setting)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tabby:", err)
		os.Exit(1)
	}
	runErr := run(options{
		dir: *dir, component: *component, scene: *scene,
		urldns: *urldns, list: *list, withRT: *withRT,
		stats: *stats, chains: *chains, save: *save, maxDepth: *maxDepth,
		mechanism: *mechanism, confirm: *confirm, dot: *dot,
		workers: *workers, cacheDir: *cacheDir, serDispatch: *serDispatch,
	})
	stopProfiles() // before any exit: os.Exit skips defers
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "tabby:", runErr)
		os.Exit(1)
	}
}

type options struct {
	dir, component, scene string
	urldns, list, withRT  bool
	stats, chains         bool
	save                  string
	maxDepth              int
	mechanism             string
	confirm               bool
	dot                   string
	workers               int
	cacheDir              string
	serDispatch           bool
}

func run(o options) error {
	if o.list {
		return printBundled()
	}
	archives, err := collectArchives(o)
	if err != nil {
		return err
	}
	if len(archives) == 0 {
		return fmt.Errorf("nothing to analyze: pass -dir, -component, -scene or -urldns (see -h)")
	}

	var sources sinks.SourceConfig
	switch o.mechanism {
	case "", "native":
		// engine default
	case "xstream":
		sources = sinks.XStreamSources()
	default:
		return fmt.Errorf("unknown mechanism %q (want native or xstream)", o.mechanism)
	}
	engine := core.New(core.Options{
		MaxDepth: o.maxDepth, Sources: sources, Workers: o.workers,
		SerializationDispatch: o.serDispatch,
	})
	var rep *core.Report
	var cache *core.AnalysisCache
	if o.cacheDir != "" {
		var warmed string
		cache, warmed, err = loadCache(o.cacheDir)
		if err != nil {
			return err
		}
		rep, err = engine.AnalyzeIncremental(cache, archives)
		if err != nil {
			return err
		}
		if err := saveCache(o.cacheDir, cache); err != nil {
			return err
		}
		if cs := rep.Timings.Cache; cs != nil {
			fmt.Printf("cache: %s; files parse=%d/%d body=%d/%d; taint components reused=%d/%d; graph %s\n",
				warmed,
				cs.Compile.ParseHits, cs.Compile.Files,
				cs.Compile.BodyHits, cs.Compile.Files,
				cs.Taint.ComponentHits, cs.Taint.Components,
				cs.GraphReuse)
		}
	} else {
		rep, err = engine.AnalyzeSources(archives)
		if err != nil {
			return err
		}
	}
	fmt.Printf("extracted %d archives in %s; CPG built in %s; search took %s\n",
		len(archives), rep.Timings.Compile.Round(1e6), rep.Timings.BuildCPG.Round(1e6), rep.Timings.Search.Round(1e6))

	if o.stats {
		s := rep.Graph.Stats
		fmt.Printf("classes=%d methods=%d edges=%d (EXTEND=%d INTERFACE=%d HAS=%d CALL=%d ALIAS=%d, pruned calls=%d)\n",
			s.ClassNodes, s.MethodNodes, s.TotalEdges(),
			s.ExtendEdges, s.InterfaceEdges, s.HasEdges, s.CallEdges, s.AliasEdges, s.PrunedCalls)
	}
	if o.chains {
		if len(rep.Chains) == 0 {
			fmt.Println("no gadget chains found")
		}
		for i, c := range rep.Chains {
			fmt.Printf("--- chain %d (%s) ---\n%s\n", i+1, c.SinkType, c)
			if o.confirm {
				res, err := interp.Confirm(rep.Graph.Program, c.Names, interp.Options{})
				switch {
				case err != nil:
					fmt.Printf("confirmation error: %v\n", err)
				case res.Confirmed:
					fmt.Printf("CONFIRMED: sink fired in %s with %v (%d payloads tried)\n",
						res.Hit.Caller, res.Hit.Args, res.PayloadsTried)
				default:
					fmt.Printf("NOT CONFIRMED after %d payloads (%v) — likely a conditional-guard false positive\n",
						res.PayloadsTried, res.FailureModes)
				}
			}
		}
		if rep.Truncated {
			fmt.Println("(search truncated by budget; raise -max-depth/-budget options)")
		}
	}
	if o.dot != "" {
		prefixes := make(map[string]bool)
		for _, c := range rep.Chains {
			for _, n := range c.Names {
				if i := strings.IndexByte(n, '#'); i > 0 {
					prefixes[n[:i]] = true
				}
			}
		}
		var list []string
		for p := range prefixes {
			list = append(list, p)
		}
		sort.Strings(list)
		f, err := os.Create(o.dot)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := cpg.WriteDOT(f, rep.Graph.DB, cpg.DOTOptions{ClassPrefixes: list}); err != nil {
			return fmt.Errorf("dot export: %w", err)
		}
		fmt.Printf("DOT graph written to %s (render with: dot -Tsvg %s)\n", o.dot, o.dot)
	}
	if o.save != "" {
		f, err := os.Create(o.save)
		if err != nil {
			return err
		}
		defer f.Close()
		name, corpusDesc := snapshotIdentity(o)
		if err := engine.SaveSnapshot(f, rep, name, corpusDesc); err != nil {
			return fmt.Errorf("save snapshot: %w", err)
		}
		fmt.Printf("snapshot %q saved to %s (re-query with tabby-query -snapshot, or serve with tabby-server -snapshot)\n", name, o.save)
	}
	return nil
}

// summaryCacheFile is the method-summary cache's file name inside
// -cache-dir (the "TABBYSUM" format of internal/store).
const summaryCacheFile = "summaries.tabbysum"

// loadCache builds the run's analysis cache, warm-started from the
// summary-cache file in dir when one exists. A missing file is a normal
// cold start; an unreadable one is reported and discarded (the run
// proceeds cold and rewrites it), never fatal.
func loadCache(dir string) (cache *core.AnalysisCache, warmed string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", fmt.Errorf("cache dir: %w", err)
	}
	cache = core.NewAnalysisCache()
	path := filepath.Join(dir, summaryCacheFile)
	entries, err := store.ReadSummariesFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return cache, "cold start", nil
	case err != nil:
		fmt.Fprintf(os.Stderr, "tabby: warning: ignoring summary cache %s: %v\n", path, err)
		return cache, "cold start (cache unreadable)", nil
	}
	cache.Summaries = taint.ImportSummaryCache(entries)
	return cache, fmt.Sprintf("loaded %d summary cone(s)", len(entries)), nil
}

// saveCache persists the summary cache back to dir for the next run.
func saveCache(dir string, cache *core.AnalysisCache) error {
	path := filepath.Join(dir, summaryCacheFile)
	if err := store.WriteSummariesFile(path, cache.Summaries.Export()); err != nil {
		return fmt.Errorf("save summary cache: %w", err)
	}
	return nil
}

// snapshotIdentity derives the snapshot's registered name and corpus
// description from what was analyzed.
func snapshotIdentity(o options) (name, corpus string) {
	switch {
	case o.component != "":
		return o.component, "component " + o.component
	case o.scene != "":
		return o.scene, "scene " + o.scene
	case o.dir != "":
		base := filepath.Base(filepath.Clean(o.dir))
		return base, "directory " + o.dir
	default:
		return "urldns", "modeled Java runtime (URLDNS demonstration)"
	}
}

func collectArchives(o options) ([]javasrc.ArchiveSource, error) {
	var archives []javasrc.ArchiveSource
	if o.withRT {
		archives = append(archives, corpus.RT())
	}
	switch {
	case o.urldns:
		// URLDNS lives entirely in the modeled runtime.
		if !o.withRT {
			archives = append(archives, corpus.RT())
		}
	case o.component != "":
		comp, err := corpus.ComponentByName(o.component)
		if err != nil {
			return nil, err
		}
		archives = append(archives, comp.Archives...)
	case o.scene != "":
		scene, err := corpus.SceneByName(o.scene)
		if err != nil {
			return nil, err
		}
		archives = append(archives, scene.Archives...)
	case o.dir != "":
		ar, err := archiveFromDir(o.dir)
		if err != nil {
			return nil, err
		}
		archives = append(archives, ar)
	default:
		return nil, nil
	}
	return archives, nil
}

// archiveFromDir loads every .java file below dir into one archive.
func archiveFromDir(dir string) (javasrc.ArchiveSource, error) {
	ar := javasrc.ArchiveSource{Name: filepath.Base(dir) + ".jar"}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".java") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		ar.Files = append(ar.Files, javasrc.File{Name: path, Source: string(data)})
		return nil
	})
	if err != nil {
		return ar, err
	}
	if len(ar.Files) == 0 {
		return ar, fmt.Errorf("no .java files under %s", dir)
	}
	sort.Slice(ar.Files, func(i, j int) bool { return ar.Files[i].Name < ar.Files[j].Name })
	return ar, nil
}

func printBundled() error {
	fmt.Println("Components (Table IX):")
	for _, c := range corpus.Components() {
		fmt.Printf("  %-30s %d known chain(s) in dataset, package %s\n", c.Name, c.DatasetChains, c.Package)
	}
	fmt.Println("Scenes (Table X):")
	for _, s := range corpus.Scenes() {
		fmt.Printf("  %-30s version %s, %d jar(s)\n", s.Name, s.Version, len(s.Archives))
	}
	return nil
}
