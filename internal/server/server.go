// Package server is the HTTP graph-query service over stored code
// property graphs — the long-lived counterpart of the paper's Neo4j
// deployment (§II-B): build and persist a CPG once, then let many
// clients query it concurrently. A server loads snapshots (written by
// `tabby -save` / core.SaveSnapshot) into an LRU-bounded registry of
// immutable stores and exposes:
//
//	GET  /v1/graphs                 list loaded graphs (ETag revalidation)
//	GET  /v1/graphs/{id}/stats      node/edge statistics + metadata (ETag)
//	POST /v1/query                  Cypher-lite (incl. CALL procedures)
//	POST /v1/chains                 path-finder search with TC/sink/source parameters
//	POST /v1/analyze                submit an uploaded mini-Java corpus for analysis
//	GET  /v1/jobs                   list analyze jobs
//	GET  /v1/jobs/{id}              poll one analyze job
//	GET  /v1/stats                  job-queue and cache counters
//
// Builds are asynchronous: /v1/analyze enqueues the corpus for the
// build worker and answers 202 with a job id (429 when the
// queue is full), so a heavy compile never blocks the query path.
// Concurrent identical submissions coalesce into one build
// (singleflight), and repeat uploads resolve instantly from a result
// cache keyed by the content-addressed corpus fingerprint. Analyses
// also share one content-addressed artifact cache across builds, so a
// corpus that merely overlaps a previous one (the edit-analyze loop)
// still reuses compiled classes and controllability summaries.
//
// Every response is JSON. Queries and searches run against frozen
// stores, so concurrent requests are safe and two identical requests
// always produce byte-identical responses — which is also why the
// server may answer them from an LRU cache of encoded response bytes.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tabby/internal/backend"
	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/cpg"
	"tabby/internal/cypher"
	"tabby/internal/edges"
	"tabby/internal/graphdb"
	"tabby/internal/javasrc"
	"tabby/internal/pathfinder"
	"tabby/internal/searchindex"
	"tabby/internal/sinks"
	"tabby/internal/store"
)

// Options configures a Server.
type Options struct {
	// MaxGraphs bounds the snapshot registry (LRU eviction beyond it);
	// zero means DefaultMaxGraphs.
	MaxGraphs int
	// Workers is the default worker count for searches and analyses when
	// a request does not specify its own (same semantics as
	// core.Options.Workers).
	Workers int
	// MaxRequestBytes caps request bodies; zero means 32 MiB.
	MaxRequestBytes int64
	// MaxQueryRows bounds how many rows /v1/query returns per request;
	// queries producing more are cut off and the response marked
	// truncated. Zero means DefaultMaxQueryRows.
	MaxQueryRows int
	// AnalyzeQueue bounds how many submitted builds may wait behind the
	// running one; beyond it submissions get 429. Zero means
	// DefaultAnalyzeQueue.
	AnalyzeQueue int
	// RespCacheBytes is the byte budget for the /v1/query + /v1/chains
	// response cache; zero means DefaultRespCacheBytes, negative
	// disables caching.
	RespCacheBytes int64
}

const defaultMaxRequestBytes = 32 << 20

// DefaultMaxQueryRows is the /v1/query row cap when Options.MaxQueryRows
// is zero. Streaming cursors stop pulling rows at the cap, so a
// pathological `MATCH (a), (b), (c)` cross product costs the server at
// most this many rows of work, not the full product.
const DefaultMaxQueryRows = 10000

// Server serves stored graphs over HTTP.
type Server struct {
	reg     *Registry
	workers int
	maxBody int64
	maxRows int
	jobs    *jobManager // async /v1/analyze builds
	resp    *respCache  // encoded /v1/query + /v1/chains bodies
	// cache persists compile artifacts and controllability summaries
	// across /v1/analyze builds: re-analyzing a corpus that shares
	// classes with a previous upload reuses every summary whose dependency
	// cone is unchanged. Guarded by cacheMu (it is not concurrent-safe);
	// content-addressing keeps it sound across builds with different
	// mechanisms or options.
	cache     *core.AnalysisCache
	cacheMu   sync.Mutex
	closeOnce sync.Once
}

// New creates a server with an empty registry and starts its analyze
// worker. Call Close to stop the worker when the server is discarded
// before process exit (tests, benchmarks).
func New(opts Options) *Server {
	if opts.MaxRequestBytes <= 0 {
		opts.MaxRequestBytes = defaultMaxRequestBytes
	}
	if opts.MaxQueryRows <= 0 {
		opts.MaxQueryRows = DefaultMaxQueryRows
	}
	if opts.RespCacheBytes == 0 {
		opts.RespCacheBytes = DefaultRespCacheBytes
	}
	s := &Server{
		reg:     NewRegistry(opts.MaxGraphs),
		workers: opts.Workers,
		maxBody: opts.MaxRequestBytes,
		maxRows: opts.MaxQueryRows,
		jobs:    newJobManager(opts.AnalyzeQueue),
		resp:    newRespCache(opts.RespCacheBytes),
		cache:   core.NewAnalysisCache(),
	}
	// A graph leaving the registry (uploaded graph dropped, file-backed
	// entry demoted to a reopenable path) invalidates everything cached
	// under its id: a later graph under the same id may answer
	// differently.
	s.reg.setOnEvict(func(id string) {
		s.resp.invalidate(id)
		s.jobs.invalidateGraph(id)
	})
	go s.runAnalyzeWorker()
	return s
}

// Close stops the analyze worker after draining queued builds.
// Serving may continue; further /v1/analyze submissions get 503.
func (s *Server) Close() {
	s.closeOnce.Do(s.jobs.close)
}

// Registry exposes the snapshot registry (the CLI preloads it; tests
// inspect it).
func (s *Server) Registry() *Registry { return s.reg }

// LoadSnapshotFile opens one snapshot file eagerly and registers it,
// returning the id it was registered under: the snapshot's stored
// name, or the file's base name (minus extension) when the snapshot
// carries none. Version-3 snapshots open as zero-copy mmap views;
// older ones are parsed onto the heap.
func (s *Server) LoadSnapshotFile(path string) (string, error) {
	be, err := backend.Open(path)
	if err != nil {
		return "", err
	}
	id := be.Meta().Name
	if id == "" {
		id = snapshotID(path)
	}
	if _, err := s.reg.AddBackend(id, be, path); err != nil {
		return "", err
	}
	return id, nil
}

// RegisterSnapshotDir registers every snapshot file in dir without
// opening any of them — each opens lazily on its first request. Ids
// are the file base names minus extension (reading a stored name would
// defeat the point of not opening). Staging files from interrupted
// atomic writes and dotfiles are skipped. Returns how many files were
// registered.
func (s *Server) RegisterSnapshotDir(dir string) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || strings.HasPrefix(name, ".") || store.IsTempPath(name) {
			continue
		}
		path := filepath.Join(dir, name)
		if err := s.reg.Register(snapshotID(path), path); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// snapshotID derives a registry id from a snapshot file path.
func snapshotID(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	mux.HandleFunc("GET /v1/graphs/{id}/stats", s.handleStats)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/chains", s.handleChains)
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/stats", s.handleServerStats)
	return mux
}

// --- shared helpers ------------------------------------------------------

type errorResponse struct {
	Error string `json:"error"`
}

// encPool recycles response-encoding buffers: the query and chains hot
// paths encode every response into one of these, so steady-state
// serving allocates no fresh buffer per request.
var encPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeJSON renders v into a pooled buffer. Callers must hand the
// buffer back with encPool.Put once its bytes are written out (or
// copied for caching).
func encodeJSON(v any) *bytes.Buffer {
	buf := encPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // only statically JSON-able types reach here
	return buf
}

// writeRawJSON writes already-encoded response bytes.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // client went away; nothing to recover
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := encodeJSON(v)
	writeRawJSON(w, status, buf.Bytes())
	encPool.Put(buf)
}

// writeETagJSON serves a GET whose payload is cheap to render but nice
// to revalidate: it answers 304 with no body when the client's
// If-None-Match matches the strong ETag of the encoded payload.
// Hashing the actual bytes makes the validator exact even for payloads
// with mutable fields (eviction counters, lazily-opened backends);
// immutable payloads — snapshot-backed stats — converge to one stable
// tag. Cache-Control: no-cache demands revalidation, which the ETag
// makes a 304 round-trip instead of a re-download.
func writeETagJSON(w http.ResponseWriter, r *http.Request, v any) {
	buf := encodeJSON(v)
	sum := sha256.Sum256(buf.Bytes())
	etag := `"` + hex.EncodeToString(sum[:16]) + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache")
	if match := r.Header.Get("If-None-Match"); match != "" && strings.Contains(match, etag) {
		w.WriteHeader(http.StatusNotModified)
	} else {
		writeRawJSON(w, http.StatusOK, buf.Bytes())
	}
	encPool.Put(buf)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	return decodeJSON(w, io.LimitReader(r.Body, s.maxBody), into)
}

// decodeJSON decodes one strict JSON request value from rd, answering
// 400 on failure.
func decodeJSON(w http.ResponseWriter, rd io.Reader, into any) bool {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) graphFor(w http.ResponseWriter, id string) (backend.Backend, bool) {
	if id == "" {
		writeError(w, http.StatusBadRequest, `missing "graph" (see GET /v1/graphs for loaded ids)`)
		return nil, false
	}
	be, err := s.reg.Get(id)
	if errors.Is(err, ErrNotFound) {
		writeError(w, http.StatusNotFound, "graph %q is not loaded (see GET /v1/graphs)", id)
		return nil, false
	}
	if err != nil {
		// Registered but unopenable: the snapshot file is corrupt or gone.
		writeError(w, http.StatusInternalServerError, "%v", err)
		return nil, false
	}
	return be, true
}

// --- GET /v1/graphs ------------------------------------------------------

type graphsResponse struct {
	Graphs []GraphInfo `json:"graphs"`
	// Evictions counts heap-resident graphs the registry capacity has
	// forced out (demoted to registered or dropped) since boot.
	Evictions int64 `json:"evictions"`
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	writeETagJSON(w, r, graphsResponse{Graphs: s.reg.List(), Evictions: s.reg.Evictions()})
}

// --- GET /v1/graphs/{id}/stats -------------------------------------------

type statsResponse struct {
	ID          string         `json:"id"`
	Meta        store.Meta     `json:"meta"`
	Nodes       int            `json:"nodes"`
	Rels        int            `json:"rels"`
	NodesByType map[string]int `json:"nodes_by_type"`
	RelsByType  map[string]int `json:"rels_by_type"`
	// Backend reports how this graph is served: "mem" (heap-resident
	// parse) or "mmap" (zero-copy view of the snapshot file).
	Backend string `json:"backend"`
	// Loaded reports whether the generic property store is resident on
	// the heap; an mmap graph serving purely off its index reports false.
	Loaded bool `json:"loaded"`
	// MappedBytes is the size of the backing memory-mapped region (page
	// cache, not heap); 0 for heap-resident graphs.
	MappedBytes int64 `json:"mapped_bytes,omitempty"`
	// Evictions is the registry-wide count of capacity evictions.
	Evictions int64 `json:"evictions"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	be, ok := s.graphFor(w, r.PathValue("id"))
	if !ok {
		return
	}
	st := be.GraphStats()
	writeETagJSON(w, r, statsResponse{
		ID:          r.PathValue("id"),
		Meta:        be.Meta(),
		Nodes:       st.Nodes,
		Rels:        st.Rels,
		NodesByType: st.NodesByType,
		RelsByType:  st.RelsByType,
		Backend:     be.Kind(),
		Loaded:      be.Loaded(),
		MappedBytes: be.MappedBytes(),
		Evictions:   s.reg.Evictions(),
	})
}

// --- POST /v1/query ------------------------------------------------------

type queryRequest struct {
	Graph string `json:"graph"`
	Query string `json:"query"`
}

type queryResponse struct {
	Graph   string   `json:"graph"`
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
	// Truncated reports that the query produced more rows than the
	// server's MaxQueryRows cap and the tail was dropped. Add a LIMIT (or
	// an aggregate) to the query to get a complete answer.
	Truncated bool   `json:"truncated"`
	Text      string `json:"text"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Registered graphs are immutable, so an identical request against
	// the same graph always encodes to the same bytes — serve them from
	// the response cache when a previous request already paid for them.
	key := canonicalKey("query", req.Graph, &req)
	if body, ok := s.resp.get("query", key); ok {
		writeRawJSON(w, http.StatusOK, body)
		return
	}
	be, ok := s.graphFor(w, req.Graph)
	if !ok {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, `missing "query"`)
		return
	}
	// Pull rows through the streaming cursor so the cap also bounds the
	// work done: for plannable streaming queries the executor stops
	// matching as soon as the response is full. The backend satisfies
	// cypher.Source, so an mmap graph plans and streams straight off its
	// index and only pays the store parse when the query needs it.
	cur, err := cypher.RunAnyCursorSource(be, req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "query failed: %v", err)
		return
	}
	rows := make([][]any, 0, 64)
	truncated := false
	for {
		row, err := cur.Next()
		if err != nil {
			writeError(w, http.StatusBadRequest, "query failed: %v", err)
			return
		}
		if row == nil {
			break
		}
		if len(rows) == s.maxRows {
			truncated = true
			break
		}
		rows = append(rows, row)
	}
	res := &cypher.Result{Columns: cur.Columns, Rows: rows}
	s.writeCached(w, "query", req.Graph, key, queryResponse{
		Graph:     req.Graph,
		Columns:   cur.Columns,
		Rows:      rows,
		Truncated: truncated,
		Text:      res.Format(),
	})
}

// canonicalKey derives the response-cache key from a decoded request:
// re-marshaling the struct canonicalizes field order, whitespace, and
// absent-vs-zero fields, so every encoding of the same request maps to
// one entry.
func canonicalKey(endpoint, graph string, req any) string {
	canon, _ := json.Marshal(req) // flat request structs cannot fail
	return respKey(endpoint, graph, canon)
}

// writeCached encodes a 200 response once, stores the bytes in the
// response cache, and writes them out. Only full successes get here —
// error paths bypass the cache entirely.
func (s *Server) writeCached(w http.ResponseWriter, endpoint, graph, key string, v any) {
	buf := encodeJSON(v)
	body := append([]byte(nil), buf.Bytes()...)
	encPool.Put(buf)
	s.resp.put(graph, key, body)
	writeRawJSON(w, http.StatusOK, body)
}

// --- POST /v1/chains -----------------------------------------------------

// chainsRequest parameterizes a path-finder run over a stored graph —
// the researcher-driven RQ4 workflow: pick the sinks (by name and/or
// type), optionally override their Trigger_Condition, and restrict the
// accepting sources, all without rebuilding the graph.
type chainsRequest struct {
	Graph string `json:"graph"`
	// MaxDepth/MaxChains/VisitBudget/Workers mirror core.Options; zero
	// selects each knob's default.
	MaxDepth    int `json:"max_depth"`
	MaxChains   int `json:"max_chains"`
	VisitBudget int `json:"visit_budget"`
	Workers     int `json:"workers"`
	// SinkType restricts seeds to sinks of this SINK_TYPE (EXEC, JNDI, …).
	SinkType string `json:"sink_type"`
	// SinkNames seeds the search from these methods, matched against the
	// NAME and then METHOD_NAME properties. Empty means every IS_SINK node.
	SinkNames []string `json:"sink_names"`
	// TC overrides the Trigger_Condition of every seed (required when
	// seeding from methods that are not registered sinks).
	TC []int `json:"tc"`
	// SourceNames, when non-empty, replaces the IS_SOURCE test: a chain
	// ends at any node whose METHOD_NAME is one of these values, tagged
	// IS_SOURCE or not (a sink's METHOD_NAME matches too, so sink-to-sink
	// chains can appear). Empty accepts every IS_SOURCE node.
	SourceNames []string `json:"source_names"`
	// DispatchSources additionally accepts any target of a DISPATCH edge
	// as a chain entry point. Only meaningful on graphs built with the
	// serialization-dispatch pass; on other graphs it has no effect.
	DispatchSources bool `json:"dispatch_sources"`
}

// edgeJSON describes one step of a chain: the relationship type the
// search walked and the synthesis pass that created it.
type edgeJSON struct {
	Kind       string `json:"kind"`
	Provenance string `json:"provenance"`
}

type chainJSON struct {
	Names    []string   `json:"names"`
	Nodes    []int64    `json:"nodes"`
	SinkType string     `json:"sink_type"`
	TCs      [][]int    `json:"tcs"`
	Edges    []edgeJSON `json:"edges"`
}

type chainsResponse struct {
	Graph      string      `json:"graph"`
	Chains     []chainJSON `json:"chains"`
	Truncated  bool        `json:"truncated"`
	Expansions int         `json:"expansions"`
}

func (s *Server) handleChains(w http.ResponseWriter, r *http.Request) {
	var req chainsRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	key := canonicalKey("chains", req.Graph, &req)
	if body, ok := s.resp.get("chains", key); ok {
		writeRawJSON(w, http.StatusOK, body)
		return
	}
	be, ok := s.graphFor(w, req.Graph)
	if !ok {
		return
	}
	opts := pathfinder.Options{
		MaxDepth:        req.MaxDepth,
		MaxChains:       req.MaxChains,
		VisitBudget:     req.VisitBudget,
		Workers:         req.Workers,
		DispatchSources: req.DispatchSources,
	}
	if opts.Workers == 0 {
		opts.Workers = s.workers
	}
	if len(req.TC) > 0 {
		opts.SinkTC = req.TC
	}

	// Everything below runs on the compiled index alone — sink
	// resolution, source matching, the search itself — so a memory-mapped
	// graph answers /v1/chains without ever parsing its store, and both
	// backends execute the identical code path.
	ix := be.Index()
	sinkNodes, err := resolveSinks(ix, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if sinkNodes != nil {
		opts.SinkNodes = sinkNodes
	}
	opts.SourceMethodNames = req.SourceNames

	res, err := pathfinder.FindIndex(ix, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "search failed: %v", err)
		return
	}
	out := chainsResponse{Graph: req.Graph, Chains: make([]chainJSON, 0, len(res.Chains)), Truncated: res.Truncated, Expansions: res.Expansions}
	for _, c := range res.Chains {
		cj := chainJSON{
			Names: c.Names, SinkType: c.SinkType,
			Nodes: make([]int64, len(c.Nodes)),
			TCs:   make([][]int, len(c.TCs)),
			Edges: make([]edgeJSON, len(c.Edges)),
		}
		for i, id := range c.Nodes {
			cj.Nodes[i] = int64(id)
		}
		for i, tc := range c.TCs {
			cj.TCs[i] = append(make([]int, 0, len(tc)), tc...)
		}
		for i, kind := range c.Edges {
			cj.Edges[i] = edgeJSON{Kind: kind, Provenance: edges.Provenance(kind)}
		}
		out.Chains = append(out.Chains, cj)
	}
	s.writeCached(w, "chains", req.Graph, key, out)
}

// resolveSinks turns the request's sink selection into seed node IDs,
// in ascending ID order for determinism. A nil result means "use the
// pathfinder default" (every IS_SINK node). Resolution runs entirely
// on the index's interned columns: the NAME/METHOD_NAME/SINK_TYPE
// columns carry exactly the string-typed property values, so the
// results match the former store-based lookups node for node.
func resolveSinks(ix *searchindex.Index, req chainsRequest) ([]graphdb.ID, error) {
	if len(req.SinkNames) == 0 && req.SinkType == "" {
		return nil, nil
	}
	method := ix.LabelBits(cpg.LabelMethod)
	var seeds []graphdb.ID
	if len(req.SinkNames) > 0 {
		seen := make(map[graphdb.ID]bool)
		for _, name := range req.SinkNames {
			ids := methodNodes(ix, method, func(v int32) bool {
				return ix.HasName(v) && ix.Name(v) == name
			})
			if len(ids) == 0 {
				ids = methodNodes(ix, method, func(v int32) bool {
					return ix.HasMethodName(v) && ix.MethodName(v) == name
				})
			}
			if len(ids) == 0 {
				return nil, fmt.Errorf("sink %q matches no method node (tried NAME and METHOD_NAME)", name)
			}
			for _, id := range ids {
				if !seen[id] {
					seen[id] = true
					seeds = append(seeds, id)
				}
			}
		}
	} else {
		seeds = methodNodes(ix, method, ix.IsSink)
	}
	if req.SinkType != "" {
		kept := seeds[:0]
		for _, id := range seeds {
			v := ix.IdxOf(id)
			if v >= 0 && ix.HasSinkType(v) && ix.SinkType(v) == req.SinkType {
				kept = append(kept, id)
			}
		}
		seeds = kept
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	if seeds == nil {
		seeds = []graphdb.ID{}
	}
	return seeds, nil
}

// methodNodes collects the IDs of label-bitset members satisfying pred,
// in ascending node order.
func methodNodes(ix *searchindex.Index, label []uint64, pred func(int32) bool) []graphdb.ID {
	var out []graphdb.ID
	for wi, w := range label {
		for ; w != 0; w &= w - 1 {
			v := int32(wi<<6 | bits.TrailingZeros64(w))
			if pred(v) {
				out = append(out, ix.IDOf(v))
			}
		}
	}
	return out
}

// --- POST /v1/analyze ----------------------------------------------------

type analyzeFile struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

type analyzeRequest struct {
	// Name registers the resulting snapshot in the graph registry.
	Name string `json:"name"`
	// Files is the mini-Java corpus to compile (one archive).
	Files []analyzeFile `json:"files"`
	// WithRT includes the modeled Java runtime (default corpus for every
	// CLI run; defaults to true here too via pointer-less convention:
	// the zero value false means "omit" only when with_rt was given).
	WithRT *bool `json:"with_rt"`
	// Mechanism selects the deserialization sources: "native" (default)
	// or "xstream".
	Mechanism string `json:"mechanism"`
	Workers   int    `json:"workers"`
	MaxDepth  int    `json:"max_depth"`
	// Wait blocks the request until the job is terminal and answers 200
	// with the final job state — the synchronous convenience wrapper
	// over the async queue (the build still runs on the build worker, so
	// it never blocks other requests).
	Wait bool `json:"wait"`
}

// analyzeCacheJSON is the wire form of core.CacheStats: enough to see the
// hit rates without exposing internal struct layouts.
type analyzeCacheJSON struct {
	Files           int    `json:"files"`
	ParseHits       int    `json:"parse_hits"`
	BodyHits        int    `json:"body_hits"`
	TaintComps      int    `json:"taint_components"`
	TaintCompHits   int    `json:"taint_component_hits"`
	MethodsReused   int    `json:"methods_reused"`
	MethodsAnalyzed int    `json:"methods_analyzed"`
	GraphReuse      string `json:"graph_reuse"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	// The body is read once so its digest can key the repeat-upload
	// memo: a byte-identical repeat of a body whose result is still
	// cached resolves here, without decoding the corpus or hashing its
	// files. Anything else takes the decode → fingerprint → submit path.
	raw, err := io.ReadAll(io.LimitReader(r.Body, s.maxBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	digest := sha256.Sum256(raw)
	if j, wait, ok := s.jobs.resolveBody(s.reg, digest); ok {
		s.respondJob(w, j, wait)
		return
	}
	var req analyzeRequest
	if !decodeJSON(w, bytes.NewReader(raw), &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, `missing "name" for the new graph`)
		return
	}
	if len(req.Files) == 0 {
		writeError(w, http.StatusBadRequest, `missing "files": nothing to analyze`)
		return
	}
	var sources sinks.SourceConfig
	switch req.Mechanism {
	case "", "native":
	case "xstream":
		sources = sinks.XStreamSources()
	default:
		writeError(w, http.StatusBadRequest, "unknown mechanism %q (want native or xstream)", req.Mechanism)
		return
	}

	ar := javasrc.ArchiveSource{Name: req.Name + ".jar"}
	for _, f := range req.Files {
		ar.Files = append(ar.Files, javasrc.File{Name: f.Name, Source: f.Source})
	}
	archives := []javasrc.ArchiveSource{ar}
	if req.WithRT == nil || *req.WithRT {
		archives = append([]javasrc.ArchiveSource{corpus.RT()}, archives...)
	}

	workers := req.Workers
	if workers == 0 {
		workers = s.workers
	}
	engine := core.New(core.Options{Sources: sources, Workers: workers, MaxDepth: req.MaxDepth})

	// Submission costs one content hash of the corpus, never a build:
	// identical in-flight submissions coalesce into the running job, a
	// corpus already built and still registered resolves from the result
	// cache, and everything else queues for the build worker — or is
	// pushed back with 429 when the queue is full.
	fp := engine.ResultFingerprint(archives)
	j, err := s.jobs.submit(s.reg, req.Name, fp, engine, archives, len(req.Files))
	if err != nil {
		var se *submitErr
		if errors.As(err, &se) {
			writeError(w, se.status, "%s", se.msg)
		} else {
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	if req.Wait {
		<-j.done // a finished build has a cached result for the memo
	}
	s.jobs.rememberBody(digest, bodyMemo{fp: fp, name: req.Name, wait: req.Wait})
	s.respondJob(w, j, req.Wait)
}

// respondJob answers an analyze submission: the final job state when
// the client waits (j is terminal by then), else 202 with its poll
// location.
func (s *Server) respondJob(w http.ResponseWriter, j *job, wait bool) {
	if wait {
		writeJSON(w, http.StatusOK, s.jobs.jobJSON(j))
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, s.jobs.jobJSON(j))
}

// --- GET /v1/jobs, GET /v1/jobs/{id} -------------------------------------

// jobJSON is the wire form of one analyze job. Graph, stats, chains,
// and cache are meaningful once status is "done"; error once "failed".
type jobJSON struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Status string `json:"status"`
	Graph  string `json:"graph,omitempty"`
	Chains int    `json:"chains"`
	// Stats is the built graph's node/edge census (done jobs only).
	Stats *cpg.Stats `json:"stats,omitempty"`
	// Cache reports what the cross-build analysis cache reused for this
	// build; absent on jobs resolved without building.
	Cache   *analyzeCacheJSON `json:"cache,omitempty"`
	Evicted string            `json:"evicted,omitempty"`
	Error   string            `json:"error,omitempty"`
	// Coalesced counts later identical submissions merged into this
	// build (singleflight).
	Coalesced int `json:"coalesced,omitempty"`
	// ResultCached marks a repeat upload resolved instantly from the
	// fingerprint-keyed result cache — no compile, no queue slot.
	ResultCached bool `json:"result_cached,omitempty"`
	// ElapsedMs is submit-to-terminal wall clock (0 while in flight).
	ElapsedMs int64 `json:"elapsed_ms,omitempty"`
}

// jobJSON snapshots one job's state under the manager lock.
func (m *jobManager) jobJSON(j *job) jobJSON {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := jobJSON{
		ID:           j.id,
		Name:         j.name,
		Status:       string(j.status),
		Graph:        j.graphID,
		Chains:       j.chains,
		Cache:        j.cacheInfo,
		Evicted:      j.evicted,
		Error:        j.err,
		Coalesced:    j.coalesced,
		ResultCached: j.cached,
		ElapsedMs:    j.elapsed.Milliseconds(),
	}
	if j.status == jobDone {
		st := j.stats
		out.Stats = &st
	}
	return out
}

type jobsResponse struct {
	Jobs []jobJSON `json:"jobs"`
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	m := s.jobs
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := jobsResponse{Jobs: make([]jobJSON, 0, len(ids))}
	for _, id := range ids {
		if j, ok := m.get(id); ok {
			out.Jobs = append(out.Jobs, m.jobJSON(j))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found (see GET /v1/jobs)", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.jobJSON(j))
}

// --- GET /v1/stats --------------------------------------------------------

// serverStatsResponse exposes the serving-tier counters: job queue,
// response cache, and registry. The serve bench reads hit rates here.
type serverStatsResponse struct {
	Jobs      jobStatsJSON   `json:"jobs"`
	RespCache respCacheStats `json:"resp_cache"`
	Graphs    int            `json:"graphs"`
	Evictions int64          `json:"evictions"`
}

func (s *Server) handleServerStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, serverStatsResponse{
		Jobs:      s.jobs.statsJSON(),
		RespCache: s.resp.stats(),
		Graphs:    s.reg.Len(),
		Evictions: s.reg.Evictions(),
	})
}
