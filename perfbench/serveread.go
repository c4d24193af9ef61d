package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tabby/internal/backend"
	"tabby/internal/core"
	"tabby/internal/corpus"
	"tabby/internal/cpg"
	"tabby/internal/cypher"
	"tabby/internal/graphdb"
	"tabby/internal/javasrc"
	"tabby/internal/pathfinder"
	"tabby/internal/searchindex"
	"tabby/internal/server"
	"tabby/internal/store"
)

// The serve-read stream comes in blocks of blockSize requests. The
// first hotPerBlock draw a pool entry by a Zipf law — alternately from
// the chains pool and the query pool — and send it verbatim, so after its
// first appearance the response cache can answer it. The rest send a pool
// entry with a unique salt the server cannot have cached: a visit budget
// above the default for chains, a LIMIT above any row count for queries;
// the answer is the unsalted entry's. Cold slots rotate so every ten of
// them hold five chains searches and one query of each of the five
// shapes. With six repeats in ten, the median request is a cache hit and
// the misses set the throughput.
const (
	clients     = 2
	blockSize   = 10
	hotPerBlock = 6
	zipfS       = 1.1
	// chainsPool and queriesPerShape size the fixed request pool.
	chainsPool      = 64
	queriesPerShape = 16
	saltBase        = 100000
)

// sinkMethodNames are sink_names values that resolve (by METHOD_NAME)
// only to registry sinks in the corpus graph; input generation checks it.
var sinkMethodNames = []string{"exec", "lookup", "getByName"}

var sinkTypes = []string{"", "EXEC", "JNDI", "SSRF", "CODE"}

// queryShapes are the five /v1/query shapes; %q takes the anchor.
// In order: an anchor lookup, a 1-hop CALL into sinks, a HAS listing of
// sources under a package, a COUNT aggregate, and a variable-length
// pattern the planner refuses (the interpreter answers it).
var queryShapes = []struct {
	format string
	anchor string // "method" (a Method NAME), "class" (a Class NAME) or "package"
}{
	{`MATCH (m:Method) WHERE m.NAME = %q RETURN m.NAME, m.IS_SINK, m.IS_SOURCE`, "method"},
	{`MATCH (a:Method)-[:CALL]->(b:Method) WHERE b.IS_SINK = true AND a.CLASS = %q RETURN a.NAME, b.NAME`, "class"},
	{`MATCH (c:Class)-[:HAS]->(m:Method) WHERE c.NAME STARTS WITH %q AND m.IS_SOURCE = true RETURN c.NAME, m.NAME`, "package"},
	{`MATCH (c:Class)-[:HAS]->(m:Method) WHERE c.NAME = %q RETURN COUNT(m)`, "class"},
	{`MATCH (a:Method)-[:CALL*1..3]->(b:Method) WHERE a.CLASS = %q AND b.IS_SINK = true RETURN a.NAME, b.NAME`, "class"},
}

// chainsReq is the /v1/chains wire format the benchmark sends.
type chainsReq struct {
	Graph       string   `json:"graph"`
	MaxDepth    int      `json:"max_depth,omitempty"`
	MaxChains   int      `json:"max_chains,omitempty"`
	VisitBudget int      `json:"visit_budget,omitempty"`
	Workers     int      `json:"workers"`
	SinkType    string   `json:"sink_type,omitempty"`
	SinkNames   []string `json:"sink_names,omitempty"`
	SourceNames []string `json:"source_names,omitempty"`
}

func (c chainsReq) filter() chainFilter {
	return chainFilter{MaxDepth: c.MaxDepth, MaxChains: c.MaxChains, SinkType: c.SinkType, SinkNames: c.SinkNames, SourceNames: c.SourceNames}
}

// poolEntry is one distinct request of the fixed pool.
type poolEntry struct {
	chains  *chainsReq
	query   string
	planned bool   // the cypher planner accepts it (else it falls back)
	want    string // canonical reference rows (queries)
	ordered bool

	mu        sync.Mutex
	validated map[[32]byte]bool // response bodies already checked
}

// request is one element of the stream.
type request struct {
	entry *poolEntry
	salt  int // 0 for the verbatim entry
	path  string
	body  []byte
}

func (p *poolEntry) render(graph string, salt int) request {
	if p.chains != nil {
		c := *p.chains
		c.Graph = graph
		if salt > 0 {
			c.VisitBudget = 2_000_000 + salt
		}
		b, _ := json.Marshal(c) // flat struct of strings and ints
		return request{entry: p, salt: salt, path: "/v1/chains", body: b}
	}
	q := p.query
	if salt > 0 {
		q = fmt.Sprintf("%s LIMIT %d", q, saltBase+salt)
	}
	b, _ := json.Marshal(map[string]string{"graph": graph, "query": q})
	return request{entry: p, salt: salt, path: "/v1/query", body: b}
}

// stream maps a request index to its request, deterministically from
// the seed.
type stream struct {
	seed       int64
	graph      string
	hotChains  []*poolEntry // Zipf rank order
	hotQueries []*poolEntry
	chains     []*poolEntry
	byShape    [][]*poolEntry
}

func (s *stream) at(i int) request {
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(i)))
	slot := i % blockSize
	if slot < hotPerBlock {
		hot := s.hotChains
		if slot%2 == 1 {
			hot = s.hotQueries
		}
		z := rand.NewZipf(rng, zipfS, 1, uint64(len(hot)-1))
		return hot[z.Uint64()].render(s.graph, 0)
	}
	cold := (i/blockSize)*(blockSize-hotPerBlock) + slot - hotPerBlock
	if k := cold % 10; k%2 == 0 {
		return s.chains[rng.Intn(len(s.chains))].render(s.graph, i+1)
	} else {
		shape := s.byShape[k/2]
		return shape[rng.Intn(len(shape))].render(s.graph, i+1)
	}
}

// buildPool generates the request pool from the seed. Anchors (method
// names, class names, packages) are drawn from the heap load of the
// snapshot; reference rows come from the reference interpreter on it.
func buildPool(r *run, db *graphdb.DB, graph string) (*stream, error) {
	rng := rand.New(rand.NewSource(r.seed))
	s := &stream{seed: r.seed, graph: graph, byShape: make([][]*poolEntry, len(queryShapes))}

	var methods, classes []string
	pkgs := map[string]bool{}
	for _, id := range db.NodesByLabel(cpg.LabelMethod) {
		if v, ok := db.NodeProp(id, cpg.PropName); ok {
			methods = append(methods, v.(string))
		}
	}
	for _, id := range db.NodesByLabel(cpg.LabelClass) {
		if v, ok := db.NodeProp(id, cpg.PropName); ok {
			name := v.(string)
			classes = append(classes, name)
			if i := strings.LastIndexByte(name, '.'); i > 0 {
				pkgs[name[:i+1]] = true
			}
		}
	}
	var packages []string
	for p := range pkgs {
		packages = append(packages, p)
	}
	sort.Strings(methods)
	sort.Strings(classes)
	sort.Strings(packages)

	// sink_names must seed only registry sinks.
	for _, name := range sinkMethodNames {
		for _, id := range db.FindNodes(cpg.LabelMethod, cpg.PropMethodName, name) {
			if v, _ := db.NodeProp(id, cpg.PropIsSink); v != true {
				return nil, fmt.Errorf("sink name %q also matches non-sink %v", name, id)
			}
		}
	}

	seen := map[string]bool{}
	for len(s.chains) < chainsPool {
		c := &chainsReq{Workers: workers, MaxDepth: 8 + rng.Intn(9), SinkType: sinkTypes[rng.Intn(len(sinkTypes))]}
		switch rng.Intn(4) {
		case 1:
			c.SinkNames = []string{sinkMethodNames[rng.Intn(len(sinkMethodNames))]}
		case 2:
			c.SourceNames = []string{"readObject"}
		}
		if rng.Intn(4) == 0 {
			c.MaxChains = 5 + rng.Intn(40)
		}
		if rng.Intn(3) == 0 { // a third ask for everything at full depth
			*c = chainsReq{Workers: workers, MaxDepth: 12 + rng.Intn(5)}
		}
		key, _ := json.Marshal(c)
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		e := &poolEntry{chains: c, validated: map[[32]byte]bool{}}
		s.chains = append(s.chains, e)
	}
	for si, shape := range queryShapes {
		for len(s.byShape[si]) < queriesPerShape {
			var anchor string
			switch shape.anchor {
			case "method":
				anchor = methods[rng.Intn(len(methods))]
			case "class":
				anchor = classes[rng.Intn(len(classes))]
			default:
				anchor = packages[rng.Intn(len(packages))]
			}
			q := fmt.Sprintf(shape.format, anchor)
			if seen[q] {
				continue
			}
			seen[q] = true
			e, err := queryEntry(db, q)
			if err != nil {
				return nil, err
			}
			s.byShape[si] = append(s.byShape[si], e)
			s.hotQueries = append(s.hotQueries, e)
		}
	}
	s.hotChains = append([]*poolEntry(nil), s.chains...)
	rng.Shuffle(len(s.hotChains), func(i, j int) { s.hotChains[i], s.hotChains[j] = s.hotChains[j], s.hotChains[i] })
	rng.Shuffle(len(s.hotQueries), func(i, j int) { s.hotQueries[i], s.hotQueries[j] = s.hotQueries[j], s.hotQueries[i] })
	return s, nil
}

// queryEntry computes a pool query's reference rows with the reference
// interpreter. They must stay under the server's row cap, and so under
// any salted LIMIT, which therefore cannot change them.
func queryEntry(db *graphdb.DB, q string) (*poolEntry, error) {
	parsed, err := cypher.Parse(q)
	if err != nil {
		return nil, fmt.Errorf("pool query %q: %w", q, err)
	}
	ref, err := cypher.ExecuteGeneric(db, parsed)
	if err != nil {
		return nil, fmt.Errorf("reference run of %q: %w", q, err)
	}
	if len(ref.Rows) >= server.DefaultMaxQueryRows {
		return nil, fmt.Errorf("pool query %q returns %d rows, over the server's row cap", q, len(ref.Rows))
	}
	e := &poolEntry{query: q, ordered: parsed.OrderBy >= 0, validated: map[[32]byte]bool{}}
	if e.want, err = canonRows(ref.Rows, e.ordered); err != nil {
		return nil, err
	}
	_, perr := cypher.PlanQuerySource(cypher.DBSource(db), parsed)
	e.planned = perr == nil
	return e, nil
}

// queryBody is the /v1/query response as the oracle reads it.
type queryBody struct {
	Rows      json.RawMessage `json:"rows"`
	Truncated bool            `json:"truncated"`
}

// check validates one response body for its pool entry. Bodies already
// validated for the entry (repeats, and salted variants whose answer is
// the entry's) are recognized by hash.
func (p *poolEntry) check(orc *oracle, body []byte) error {
	sum := sha256.Sum256(body)
	p.mu.Lock()
	ok := p.validated[sum]
	p.mu.Unlock()
	if ok {
		return nil
	}
	if p.chains != nil {
		if err := orc.checkChainsBody(p.chains.filter(), body); err != nil {
			return err
		}
	} else {
		var qb queryBody
		if err := json.Unmarshal(body, &qb); err != nil {
			return fmt.Errorf("decode query response: %w", err)
		}
		if qb.Truncated {
			return fmt.Errorf("query response truncated")
		}
		if err := checkRows(p.want, qb.Rows, p.ordered); err != nil {
			return err
		}
	}
	p.mu.Lock()
	p.validated[sum] = true
	p.mu.Unlock()
	return nil
}

// serveRead: two clients in a closed loop against a v3 snapshot of the
// cold-build graph, written by core.Engine.SaveSnapshot and opened by
// server.LoadSnapshotFile (the mmap backend where the host supports it).
func serveRead(r *run) error {
	archives := append([]javasrc.ArchiveSource{corpus.RT()}, componentArchives()...)
	var ls *liveServer
	var path string
	var setups []float64
	var snapBytes []float64
	for k := 0; k < setupRepeats; k++ {
		if ls != nil {
			ls.close()
			_ = os.Remove(path) // the closed server's mapping stays valid
		}
		var t *opTrace
		if r.trace {
			t = r.rec.begin(-1-k, "setup")
		}
		path = filepath.Join(r.outDir, fmt.Sprintf("serve-%d-%d-%d.tsnap", os.Getpid(), r.seed, k))
		t0 := time.Now()
		var err error
		ls, err = setupServe(t, archives, path)
		setups = append(setups, time.Since(t0).Seconds())
		t.end()
		if err != nil {
			return fmt.Errorf("serve-read set-up: %w", err)
		}
		if st, err := os.Stat(path); err == nil {
			snapBytes = append(snapBytes, float64(st.Size()))
		}
	}
	defer func() {
		ls.close()
		_ = os.Remove(path)
	}()
	r.set("setup_s", median(setups))

	// Oracle preparation, not part of set-up: a heap load of the same
	// snapshot, the seeded request pool and its reference rows.
	heap, err := store.ReadFile(path)
	if err != nil {
		return fmt.Errorf("heap load of the snapshot: %w", err)
	}
	st, err := buildPool(r, heap.DB, heap.Meta.Name)
	if err != nil {
		return err
	}
	r.note("input: pool of %d chains and %d queries (%d shapes), blocks of %d with %d Zipf(s=%.1f) repeats and %d salted misses, %d clients",
		len(st.chains), len(st.hotQueries), len(queryShapes), blockSize, hotPerBlock, zipfS, blockSize-hotPerBlock, clients)

	var replayBE backend.Backend
	if r.trace {
		if replayBE, err = backend.Open(path); err != nil {
			return fmt.Errorf("replay backend: %w", err)
		}
		defer replayBE.Close()
	}

	type sample struct {
		at         time.Duration
		chains     bool
		lat        float64
		repeat     bool
		traced     bool
		planned    bool
		residual   float64
		expansions float64
		hasReplay  bool
	}
	var (
		mu      sync.Mutex
		samples []sample
		seenReq = map[[32]byte][32]byte{} // request hash → first response hash
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < r.seconds {
				i := int(next.Add(1) - 1)
				req := st.at(i)
				var t *opTrace
				// Whole blocks alternate between traced and untraced, so
				// both halves carry the same request mix.
				if r.trace && (i/blockSize)%2 == 1 {
					t = r.rec.begin(i, "op")
				}
				name := "http.query"
				if req.entry.chains != nil {
					name = "http.chains"
				}
				t0 := time.Now()
				var body []byte
				var err error
				t.do(name, func() { body, err = ls.post(req.path, req.body) })
				lat := time.Since(t0)
				reqSum := sha256.Sum256(req.body)
				repeat := false
				if err == nil {
					err = req.entry.check(r.orc, body)
				}
				if err == nil {
					respSum := sha256.Sum256(body)
					mu.Lock()
					first, seen := seenReq[reqSum]
					if !seen {
						seenReq[reqSum] = respSum
					}
					mu.Unlock()
					repeat = seen
					if seen && first != respSum {
						err = fmt.Errorf("repeated request returned a different body")
					}
				}
				if err != nil {
					r.attempt(fmt.Sprintf("%s %s", req.path, req.body), err)
				} else {
					r.attempt("", nil)
				}
				s := sample{at: time.Since(start), chains: req.entry.chains != nil, lat: ms(lat), repeat: repeat, traced: t != nil, planned: req.entry.planned}
				if r.trace && err == nil {
					rp, rerr := replayRead(t, replayBE, req)
					if rerr != nil {
						r.attempt("replay "+string(req.body), rerr)
					} else if !repeat && t != nil {
						s.hasReplay, s.residual, s.expansions = true, ms(lat)-ms(rp.dur), float64(rp.expansions)
					}
				}
				t.end()
				if err == nil {
					mu.Lock()
					samples = append(samples, s)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	ops := int(next.Load())

	var all, chainsLat, queryLat, traced, untraced, residual, expansions []float64
	repeats, fallbacks, queryMisses := 0, 0, 0
	for _, s := range samples {
		all = append(all, s.lat)
		if s.chains {
			chainsLat = append(chainsLat, s.lat)
		} else {
			queryLat = append(queryLat, s.lat)
			if !s.repeat {
				queryMisses++
				if !s.planned {
					fallbacks++
				}
			}
		}
		if s.repeat {
			repeats++
		}
		if s.traced {
			traced = append(traced, s.lat)
		} else {
			untraced = append(untraced, s.lat)
		}
		if s.hasReplay {
			residual = append(residual, s.residual)
			if s.chains {
				expansions = append(expansions, s.expansions)
			}
		}
	}
	qps := windowedRate(samples, func(s sample) time.Duration { return s.at }, r.seconds)
	r.set("op_p50_ms", median(all))
	r.set("ops_per_s", qps)
	r.note("read_qps %.3f (median of %v windows; %d requests in %.1f s, %d clients); measured repeat share %.4f",
		qps, rateWindow, ops, elapsed.Seconds(), clients, ratio(float64(repeats), float64(len(samples))))
	r.latencyLine("read_p50_ms", all)
	r.latencyLine("chains_p50_ms", chainsLat)
	r.latencyLine("query_p50_ms", queryLat)
	if err := ls.stats(r); err != nil {
		return err
	}
	if r.trace {
		sums := r.rec.summarize()
		layerTimes(r, sums)
		memPerOp(r, before, after, ops)
		r.set("cypher.fallback_share", ratio(float64(fallbacks), float64(queryMisses)))
		r.set("server.residual_ms", median(residual))
		r.set("pathfinder.expansions", median(expansions))
		r.set("store.snapshot_bytes", median(snapBytes))
		gs := replayBE.GraphStats()
		meta := replayBE.Meta()
		r.set("graphdb.nodes", float64(gs.Nodes))
		r.set("graphdb.rels", float64(gs.Rels))
		r.set("cpg.pruned_call_ratio", ratio(float64(meta.PrunedCalls), float64(meta.TotalCalls)))
		r.note("server.residual_ms over cache misses: p50 %.3f ms (n=%d)", median(residual), len(residual))
		overhead(r, traced, untraced)
	}
	return nil
}

// rateWindow is the window serve-read counts completions in; read_qps is
// the median window's rate, so a burst of host noise or the first
// window's cold caches do not move it.
const rateWindow = 2 * time.Second

// windowedRate returns the median, over the whole windows of the run, of
// completions per second.
func windowedRate[T any](xs []T, at func(T) time.Duration, run time.Duration) float64 {
	n := int(run / rateWindow)
	if n == 0 {
		return float64(len(xs)) / run.Seconds()
	}
	counts := make([]float64, n)
	for _, x := range xs {
		if w := int(at(x) / rateWindow); w < n {
			counts[w]++
		}
	}
	return median(counts) / rateWindow.Seconds()
}

// setupServe builds the corpus graph, saves it as a snapshot at path,
// opens it in a fresh server and sends one request of every shape, so
// lazy materialization lands in set-up rather than in the first timed
// request.
func setupServe(t *opTrace, archives []javasrc.ArchiveSource, path string) (*liveServer, error) {
	eng := core.New(core.Options{Workers: workers})
	var rep *core.Report
	if t == nil {
		var err error
		if rep, err = eng.AnalyzeSources(archives); err != nil {
			return nil, err
		}
	} else {
		g, found, err := replayBuild(t, archives)
		if err != nil {
			return nil, err
		}
		rep = &core.Report{Graph: g, Chains: found.Chains, Truncated: found.Truncated}
	}
	var err error
	t.do("store.write", func() {
		var f *os.File
		if f, err = os.Create(path); err != nil {
			return
		}
		if err = eng.SaveSnapshot(f, rep, "g", "perfbench corpus"); err != nil {
			f.Close()
			return
		}
		err = f.Close()
	})
	if err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	srv := server.New(server.Options{Workers: workers})
	var id string
	t.do("backend.open", func() { id, err = srv.LoadSnapshotFile(path) })
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	ls, err := startServer(srv)
	if err != nil {
		return nil, err
	}
	warm := []request{(&poolEntry{chains: &chainsReq{Workers: workers}}).render(id, 0)}
	for _, shape := range queryShapes {
		warm = append(warm, (&poolEntry{query: fmt.Sprintf(shape.format, "java.util.HashMap")}).render(id, 0))
	}
	for _, w := range warm {
		var err error
		t.do("http.warmup", func() { _, err = ls.post(w.path, w.body) })
		if err != nil {
			ls.close()
			return nil, fmt.Errorf("warm-up %s: %w", w.body, err)
		}
	}
	return ls, nil
}

// readReplay is what one in-process replay of a read produced.
type readReplay struct {
	dur        time.Duration
	expansions int
}

// replayRead repeats one request's layer call in process on the
// benchmark's own backend: pathfinder.FindIndex on its index, or the
// cypher cursor drained the way the query handler drains it.
func replayRead(t *opTrace, be backend.Backend, req request) (readReplay, error) {
	var out readReplay
	var err error
	t0 := time.Now()
	if c := req.entry.chains; c != nil {
		ix := be.Index()
		opts := pathfinder.Options{MaxDepth: c.MaxDepth, MaxChains: c.MaxChains, Workers: c.Workers, SourceMethodNames: c.SourceNames}
		if req.salt > 0 {
			opts.VisitBudget = 2_000_000 + req.salt
		}
		opts.SinkNodes = resolveSinks(ix, c.SinkType, c.SinkNames)
		var res *pathfinder.Result
		t.do("pathfinder.find", func() { res, err = pathfinder.FindIndex(ix, opts) })
		if err == nil {
			out.expansions = res.Expansions
		}
	} else {
		name := "cypher.interpreted"
		if req.entry.planned {
			name = "cypher.planned"
		}
		q := req.entry.query
		if req.salt > 0 {
			q = fmt.Sprintf("%s LIMIT %d", q, saltBase+req.salt)
		}
		t.do(name, func() {
			var cur *cypher.Cursor
			if cur, err = cypher.RunAnyCursorSource(be, q); err != nil {
				return
			}
			for n := 0; n <= server.DefaultMaxQueryRows; n++ {
				var row []any
				if row, err = cur.Next(); err != nil || row == nil {
					return
				}
			}
		})
	}
	out.dur = time.Since(t0)
	return out, err
}

// resolveSinks selects seed nodes from the index the way the chains
// handler documents it: by NAME, falling back to METHOD_NAME, then
// restricted to a SINK_TYPE; nil means every sink.
func resolveSinks(ix *searchindex.Index, sinkType string, names []string) []graphdb.ID {
	if len(names) == 0 && sinkType == "" {
		return nil
	}
	method := ix.LabelBits(cpg.LabelMethod)
	members := func(pred func(int32) bool) []graphdb.ID {
		var out []graphdb.ID
		for wi, w := range method {
			for ; w != 0; w &= w - 1 {
				v := int32(wi<<6 | bits.TrailingZeros64(w))
				if pred(v) {
					out = append(out, ix.IDOf(v))
				}
			}
		}
		return out
	}
	var seeds []graphdb.ID
	if len(names) > 0 {
		seen := map[graphdb.ID]bool{}
		for _, name := range names {
			ids := members(func(v int32) bool { return ix.HasName(v) && ix.Name(v) == name })
			if len(ids) == 0 {
				ids = members(func(v int32) bool { return ix.HasMethodName(v) && ix.MethodName(v) == name })
			}
			for _, id := range ids {
				if !seen[id] {
					seen[id] = true
					seeds = append(seeds, id)
				}
			}
		}
	} else {
		seeds = members(ix.IsSink)
	}
	if sinkType != "" {
		kept := seeds[:0]
		for _, id := range seeds {
			if v := ix.IdxOf(id); v >= 0 && ix.HasSinkType(v) && ix.SinkType(v) == sinkType {
				kept = append(kept, id)
			}
		}
		seeds = kept
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	if seeds == nil {
		seeds = []graphdb.ID{}
	}
	return seeds
}
