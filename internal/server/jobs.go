package server

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"tabby/internal/core"
	"tabby/internal/cpg"
	"tabby/internal/javasrc"
)

// jobStatus is the lifecycle of one analyze job:
// queued → running → done | failed.
type jobStatus string

const (
	jobQueued  jobStatus = "queued"
	jobRunning jobStatus = "running"
	jobDone    jobStatus = "done"
	jobFailed  jobStatus = "failed"
)

// job is one submitted /v1/analyze build. All mutable fields are
// guarded by the owning jobManager's mutex; done closes exactly once,
// when the job reaches a terminal status, so waiters never poll.
type job struct {
	id        string
	name      string
	fp        string // result fingerprint (singleflight + result-cache key)
	status    jobStatus
	err       string
	graphID   string
	chains    int
	stats     cpg.Stats
	cacheInfo *analyzeCacheJSON
	evicted   string
	coalesced int  // later submissions merged into this build
	cached    bool // resolved from the result cache, no build at all
	submitted time.Time
	started   time.Time
	elapsed   time.Duration // terminal only: queue wait + build
	done      chan struct{}

	// build inputs, set at submit time and read only by the worker
	engine   *core.Engine
	archives []javasrc.ArchiveSource
	files    int
}

// result is one finished build the server can hand out again without
// building: the registered graph plus the response-shaping outputs.
// Entries live exactly as long as their graph stays registered — the
// registry's eviction hook removes them — so a hit can always resolve
// to a servable graph id.
type result struct {
	graphID string
	chains  int
	stats   cpg.Stats
	// body is the digest of the last analyze body remembered for this
	// result (its key in jobManager.bodies; zero when none), so the two
	// are dropped together.
	body bodyDigest
}

// bodyDigest is the SHA-256 of a raw /v1/analyze request body.
type bodyDigest = [sha256.Size]byte

// bodyMemo is what a byte-identical repeat of an analyze body needs to
// resolve without decoding it: the result fingerprint its corpus hashed
// to, and the two request fields that shape the response.
type bodyMemo struct {
	fp   string
	name string
	wait bool
}

// jobManager runs /v1/analyze builds on one worker behind a bounded
// queue, coalescing concurrent identical submissions
// (singleflight) and resolving repeat uploads from the fingerprint-
// keyed result cache. Heavy compiles therefore never run on a request
// goroutine: submission is O(hash corpus), and the query endpoints
// share nothing with the build path but the registry.
type jobManager struct {
	mu       sync.Mutex
	jobs     map[string]*job
	order    []string        // submission order, for listing
	inflight map[string]*job // fp → queued/running job (singleflight)
	active   map[string]*job // graph name → queued/running job
	results  map[string]*result
	bodies   map[bodyDigest]bodyMemo // at most one per result
	graphFP  map[string]string       // graph id → fp, for eviction invalidation
	finished []string                // terminal job ids, oldest first (pruning)
	queue    chan *job
	queueCap int
	seq      int
	closed   bool

	submitted  int64
	builds     int64 // builds actually started on a worker
	buildsOK   int64
	coalescedN int64
	resultHits int64
	rejected   int64 // queue-full 429s

	// buildHook, when set (tests), runs on the worker at the start of
	// every build — before any real work — so tests can stall a build or
	// make it panic.
	buildHook func(j *job)
}

const (
	// DefaultAnalyzeQueue bounds how many submitted builds may wait
	// behind the running one before submissions are rejected with 429.
	DefaultAnalyzeQueue = 16
	// maxJobRecords bounds how many terminal job records are kept for
	// polling; older ones are forgotten first. The result cache is
	// unaffected — repeat uploads resolve from it regardless.
	maxJobRecords = 512
)

func newJobManager(queueCap int) *jobManager {
	if queueCap <= 0 {
		queueCap = DefaultAnalyzeQueue
	}
	return &jobManager{
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		active:   make(map[string]*job),
		results:  make(map[string]*result),
		bodies:   make(map[bodyDigest]bodyMemo),
		graphFP:  make(map[string]string),
		queue:    make(chan *job, queueCap),
		queueCap: queueCap,
	}
}

// submitErr distinguishes the two submission rejections.
type submitErr struct {
	status int
	msg    string
}

func (e *submitErr) Error() string { return e.msg }

// submit registers a build request and returns its job: a fresh queued
// job, the in-flight job identical submissions coalesced into, or an
// already-done job synthesized from the result cache. reg decides
// name conflicts and whether a cached result's graph is still
// servable.
func (m *jobManager) submit(reg *Registry, name, fp string, eng *core.Engine, archives []javasrc.ArchiveSource, files int) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, &submitErr{status: 503, msg: "server shutting down"}
	}
	m.submitted++

	if j := m.cachedJobLocked(reg, name, fp); j != nil {
		return j, nil
	}

	// Singleflight: an identical build is already queued or running —
	// this submission rides along.
	if j, ok := m.inflight[fp]; ok {
		j.coalesced++
		m.coalescedN++
		return j, nil
	}

	if reg.Has(name) {
		return nil, &submitErr{status: 409, msg: fmt.Sprintf("graph %q already loaded", name)}
	}
	if prev, ok := m.active[name]; ok {
		return nil, &submitErr{status: 409, msg: fmt.Sprintf("graph %q is already being built (job %s)", name, prev.id)}
	}

	j := m.newJobLocked(name, fp)
	j.status = jobQueued
	j.engine = eng
	j.archives = archives
	j.files = files
	select {
	case m.queue <- j:
	default:
		// Queue full: forget the job entirely and push back on the client.
		delete(m.jobs, j.id)
		m.order = m.order[:len(m.order)-1]
		m.rejected++
		return nil, &submitErr{status: 429, msg: fmt.Sprintf("analyze queue full (%d pending builds); retry later", m.queueCap)}
	}
	m.inflight[fp] = j
	m.active[name] = j
	return j, nil
}

// cachedJobLocked resolves a repeat upload: when the identical
// corpus+options was already built and its graph is still registered,
// it returns a done job for it — no build, no queue slot. It returns nil
// on a miss.
func (m *jobManager) cachedJobLocked(reg *Registry, name, fp string) *job {
	res, ok := m.results[fp]
	if !ok || !reg.Has(res.graphID) {
		return nil
	}
	m.resultHits++
	j := m.newJobLocked(name, fp)
	j.status = jobDone
	j.graphID = res.graphID
	j.chains = res.chains
	j.stats = res.stats
	j.cached = true
	close(j.done)
	m.recordTerminalLocked(j)
	return j
}

// resolveBody resolves a byte-identical repeat of a remembered analyze
// body from the result cache, reporting the request's wait flag. It
// reports false when the body is unknown or its result is gone; the
// caller then decodes the body and submits it.
func (m *jobManager) resolveBody(reg *Registry, d bodyDigest) (j *job, wait, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	memo, ok := m.bodies[d]
	if !ok || m.closed {
		return nil, false, false
	}
	if j = m.cachedJobLocked(reg, memo.name, memo.fp); j == nil {
		return nil, false, false
	}
	m.submitted++
	return j, memo.wait, true
}

// rememberBody links a body digest to memo.fp's cached result, replacing
// the digest remembered for it before. Without a cached result (the
// build is still queued or failed) it remembers nothing.
func (m *jobManager) rememberBody(d bodyDigest, memo bodyMemo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	res, ok := m.results[memo.fp]
	if !ok {
		return
	}
	delete(m.bodies, res.body)
	res.body = d
	m.bodies[d] = memo
}

// newJobLocked allocates and indexes a job record.
func (m *jobManager) newJobLocked(name, fp string) *job {
	m.seq++
	j := &job{
		id:        fmt.Sprintf("j%d", m.seq),
		name:      name,
		fp:        fp,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	return j
}

// recordTerminalLocked enrolls a terminal job in the pruning window.
func (m *jobManager) recordTerminalLocked(j *job) {
	m.finished = append(m.finished, j.id)
	for len(m.finished) > maxJobRecords {
		old := m.finished[0]
		m.finished = m.finished[1:]
		delete(m.jobs, old)
		for i, id := range m.order {
			if id == old {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
	}
}

// get returns the job registered under id.
func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// invalidateGraph drops the cached result whose graph was evicted or
// replaced, with the body digest remembered for it. Called from the
// registry's eviction hook (registry lock held); it takes only the
// manager's own lock.
func (m *jobManager) invalidateGraph(graphID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fp, ok := m.graphFP[graphID]
	if !ok {
		return
	}
	if res := m.results[fp]; res != nil {
		delete(m.bodies, res.body)
	}
	delete(m.results, fp)
	delete(m.graphFP, graphID)
}

// close stops accepting submissions and lets the worker drain.
func (m *jobManager) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
}

// runAnalyzeWorker is the build worker: it owns at most one build at a
// time and always survives it. A panicking build — corrupt input
// tripping an invariant, an out-of-bounds bug — is confined to the job,
// which fails with the panic message; the worker keeps serving the
// queue, so a poisoned upload can never wedge the analyze path (the old
// channel-token design leaked its only slot on panic).
func (s *Server) runAnalyzeWorker() {
	for j := range s.jobs.queue {
		s.runJob(j)
	}
}

// runJob executes one build end to end and moves the job to a terminal
// status exactly once.
func (s *Server) runJob(j *job) {
	m := s.jobs
	m.mu.Lock()
	j.status = jobRunning
	j.started = time.Now()
	m.builds++
	hook := m.buildHook
	m.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			s.failJob(j, fmt.Sprintf("analyze panicked: %v", r))
		}
	}()

	if hook != nil {
		hook(j)
	}

	// Builds share the server's analysis cache, which is not
	// concurrent-safe; the mutex also keeps its content-addressed reuse
	// coherent across jobs.
	s.cacheMu.Lock()
	rep, err := j.engine.AnalyzeIncremental(s.cache, j.archives)
	s.cacheMu.Unlock()
	if err != nil {
		s.failJob(j, fmt.Sprintf("analyze failed: %v", err))
		return
	}

	rep.Graph.DB.Freeze()
	snap, err := j.engine.SnapshotFor(rep, j.name, fmt.Sprintf("uploaded corpus (%d files)", j.files))
	if err != nil {
		s.failJob(j, err.Error())
		return
	}
	evicted, err := s.reg.Add(j.name, snap)
	if err != nil {
		s.failJob(j, err.Error())
		return
	}

	m.mu.Lock()
	j.status = jobDone
	j.graphID = j.name
	j.chains = len(rep.Chains)
	j.stats = rep.Graph.Stats
	j.evicted = evicted
	j.elapsed = time.Since(j.submitted)
	if cs := rep.Timings.Cache; cs != nil {
		j.cacheInfo = &analyzeCacheJSON{
			Files:           cs.Compile.Files,
			ParseHits:       cs.Compile.ParseHits,
			BodyHits:        cs.Compile.BodyHits,
			TaintComps:      cs.Taint.Components,
			TaintCompHits:   cs.Taint.ComponentHits,
			MethodsReused:   cs.Taint.MethodsReused,
			MethodsAnalyzed: cs.Taint.MethodsAnalyzed,
			GraphReuse:      cs.GraphReuse,
		}
	}
	m.results[j.fp] = &result{graphID: j.graphID, chains: j.chains, stats: j.stats}
	m.graphFP[j.graphID] = j.fp
	m.buildsOK++
	delete(m.inflight, j.fp)
	delete(m.active, j.name)
	// The job's build inputs are dead weight once it is terminal; drop
	// them so retained job records don't pin whole uploaded corpora.
	j.engine, j.archives = nil, nil
	m.recordTerminalLocked(j)
	m.mu.Unlock()
	close(j.done)
}

// failJob moves a job to failed with msg.
func (s *Server) failJob(j *job, msg string) {
	m := s.jobs
	m.mu.Lock()
	j.status = jobFailed
	j.err = msg
	j.elapsed = time.Since(j.submitted)
	delete(m.inflight, j.fp)
	delete(m.active, j.name)
	j.engine, j.archives = nil, nil
	m.recordTerminalLocked(j)
	m.mu.Unlock()
	close(j.done)
}

// jobStatsJSON is the job-queue section of GET /v1/stats.
type jobStatsJSON struct {
	Submitted  int64 `json:"submitted"`
	Builds     int64 `json:"builds"`
	BuildsOK   int64 `json:"builds_ok"`
	Coalesced  int64 `json:"coalesced"`
	ResultHits int64 `json:"result_hits"`
	Rejected   int64 `json:"rejected"`
	QueueDepth int   `json:"queue_depth"`
	QueueCap   int   `json:"queue_cap"`
	Workers    int   `json:"workers"`
}

func (m *jobManager) statsJSON() jobStatsJSON {
	m.mu.Lock()
	defer m.mu.Unlock()
	return jobStatsJSON{
		Submitted:  m.submitted,
		Builds:     m.builds,
		BuildsOK:   m.buildsOK,
		Coalesced:  m.coalescedN,
		ResultHits: m.resultHits,
		Rejected:   m.rejected,
		QueueDepth: len(m.queue),
		QueueCap:   m.queueCap,
		Workers:    1, // one worker: builds serialize on the shared analysis cache
	}
}

// Builds reports how many builds have actually started on a worker —
// the counter the coalescing tests and the serve bench assert against.
func (s *Server) Builds() int64 {
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	return s.jobs.builds
}
