// Command tabby-server serves stored code property graphs over HTTP —
// the long-lived counterpart of the paper's Neo4j deployment (§II-B):
// build a CPG once with `tabby -save`, then let many clients query it
// concurrently without recompiling anything.
//
//	tabby -urldns -save urldns.tsnap
//	tabby-server -addr :7687 -snapshot urldns.tsnap
//
//	curl localhost:7687/v1/graphs
//	curl localhost:7687/v1/graphs/urldns/stats
//	curl -d '{"graph":"urldns","query":"MATCH (m:Method {IS_SINK: true}) RETURN m.NAME"}' localhost:7687/v1/query
//	curl -d '{"graph":"urldns","max_depth":12}' localhost:7687/v1/chains
//	curl -d '{"name":"app","files":[{"name":"A.java","source":"..."}]}' localhost:7687/v1/analyze
//	curl localhost:7687/v1/jobs/j1
//	curl localhost:7687/v1/stats
//
// Flags:
//
//	-addr HOST:PORT      listen address (default :7687)
//	-snapshot FILE       snapshot to preload (opened at boot); repeatable
//	-snapshot-dir DIR    register every snapshot file in DIR without
//	                     opening it; each opens lazily — as a zero-copy
//	                     mmap view — on first request
//	-max-graphs N        LRU capacity for heap-resident graphs (default 8)
//	-max-query-rows N    row cap per /v1/query response; responses cut off
//	                     at the cap carry "truncated": true (default 10000)
//	-workers N           default worker count for searches and analyses
//	-analyze-queue N     queued builds beyond the running one before
//	                     submissions get 429 (default 16)
//	-resp-cache-bytes N  byte budget for the query/chains response cache
//	                     (default 32 MiB; -1 disables it)
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"tabby/internal/server"
)

// multiFlag collects a repeatable -snapshot flag.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint(*m) }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var snapshots multiFlag
	var (
		addr           = flag.String("addr", ":7687", "listen address")
		snapDir        = flag.String("snapshot-dir", "", "directory of snapshot files to register (each opens lazily on first request)")
		maxGraphs      = flag.Int("max-graphs", server.DefaultMaxGraphs, "max heap-resident snapshots (LRU eviction beyond this; mmap-served graphs are exempt)")
		maxRows        = flag.Int("max-query-rows", server.DefaultMaxQueryRows, "max rows per /v1/query response (excess is dropped and flagged truncated)")
		workers        = flag.Int("workers", 0, "default worker count for searches/analyses (0 = GOMAXPROCS)")
		analyzeQueue   = flag.Int("analyze-queue", server.DefaultAnalyzeQueue, "builds that may wait behind the running one before /v1/analyze answers 429")
		respCacheBytes = flag.Int64("resp-cache-bytes", server.DefaultRespCacheBytes, "byte budget for the query/chains response cache (-1 disables)")
	)
	flag.Var(&snapshots, "snapshot", "snapshot file written by `tabby -save` (repeatable)")
	flag.Parse()
	opts := server.Options{
		MaxGraphs:      *maxGraphs,
		MaxQueryRows:   *maxRows,
		Workers:        *workers,
		AnalyzeQueue:   *analyzeQueue,
		RespCacheBytes: *respCacheBytes,
	}
	if err := run(*addr, snapshots, *snapDir, opts, nil); err != nil {
		fmt.Fprintln(os.Stderr, "tabby-server:", err)
		os.Exit(1)
	}
}

// run starts the service. When ready is non-nil, the bound listener
// address is sent on it once the server is accepting connections (used
// by tests and the smoke script via -addr 127.0.0.1:0).
func run(addr string, snapshots []string, snapDir string, opts server.Options, ready chan<- string) error {
	srv := server.New(opts)
	for _, path := range snapshots {
		id, err := srv.LoadSnapshotFile(path)
		if err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		be, err := srv.Registry().Get(id)
		if err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		stats := be.GraphStats()
		fmt.Fprintf(os.Stderr, "loaded %s as graph %q (%s): %d nodes, %d relationships\n", path, id, be.Kind(), stats.Nodes, stats.Rels)
	}
	if snapDir != "" {
		n, err := srv.RegisterSnapshotDir(snapDir)
		if err != nil {
			return fmt.Errorf("register %s: %w", snapDir, err)
		}
		fmt.Fprintf(os.Stderr, "registered %d snapshot(s) from %s (opened lazily on first request)\n", n, snapDir)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tabby-server listening on %s (%d graphs registered)\n", ln.Addr(), srv.Registry().Len())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	return http.Serve(ln, srv.Handler())
}
