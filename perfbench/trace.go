package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of that layer. Spans of one operation share Op; the
// operation's root span has Parent -1.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Op     int       `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps every span in memory; nothing is written until the run
// ends. A nil *recorder records nothing, so untraced code paths call the
// same helpers at the cost of one nil check.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// opTrace records the spans of one operation on one goroutine.
type opTrace struct {
	rec   *recorder
	op    int
	stack []int
}

// begin opens the root span of operation op.
func (r *recorder) begin(op int, name string) *opTrace {
	if r == nil {
		return nil
	}
	t := &opTrace{rec: r, op: op}
	t.push(name)
	return t
}

func (t *opTrace) push(name string) {
	r := t.rec
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: time.Now()})
	r.mu.Unlock()
	t.stack = append(t.stack, id)
}

func (t *opTrace) pop() {
	end := time.Now()
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.rec.mu.Lock()
	t.rec.spans[id].End = end
	t.rec.mu.Unlock()
}

// do runs f inside a child span named name.
func (t *opTrace) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	t.push(name)
	defer t.pop()
	f()
}

// end closes the root span.
func (t *opTrace) end() {
	if t != nil {
		t.pop()
	}
}

// opSummary is one operation's reconciliation: the root's wall time,
// each layer's self time inside it, and the root's own self time (the
// part no child span covers).
type opSummary struct {
	Op           int
	Root         string
	Wall         time.Duration
	Self         map[string]time.Duration
	Calls        map[string][]time.Duration // full (inclusive) span durations
	Unattributed time.Duration
}

// summarize computes self times. A span's self time is its duration
// minus the part of it its children cover; children of one parent never
// overlap (each operation runs on one goroutine), so that part is the
// sum of their durations.
func (r *recorder) summarize() []opSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	childSum := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	byOp := map[int]*opSummary{}
	var order []int
	for _, s := range spans {
		o := byOp[s.Op]
		if o == nil {
			o = &opSummary{Op: s.Op, Self: map[string]time.Duration{}, Calls: map[string][]time.Duration{}}
			byOp[s.Op] = o
			order = append(order, s.Op)
		}
		self := s.dur() - childSum[s.ID]
		if s.Parent < 0 {
			o.Root, o.Wall, o.Unattributed = s.Name, s.dur(), self
			continue
		}
		o.Self[s.Name] += self
		o.Calls[s.Name] = append(o.Calls[s.Name], s.dur())
	}
	out := make([]opSummary, 0, len(order))
	for _, op := range order {
		out = append(out, *byOp[op])
	}
	return out
}

// writeJSON dumps every span, one JSON object per line.
func (r *recorder) writeJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// writeFile writes the spans to path.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.writeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reconcile prints, per root kind, the mean self time of every layer
// per operation plus the unattributed remainder, and checks that they
// add up to the mean wall time. It returns the largest absolute gap
// between the sum and the wall time, which is zero up to rounding when
// spans nest properly.
func reconcile(w io.Writer, ops []opSummary) time.Duration {
	byRoot := map[string][]opSummary{}
	var roots []string
	for _, o := range ops {
		if _, ok := byRoot[o.Root]; !ok {
			roots = append(roots, o.Root)
		}
		byRoot[o.Root] = append(byRoot[o.Root], o)
	}
	var worst time.Duration
	for _, root := range roots {
		group := byRoot[root]
		n := time.Duration(len(group))
		self := map[string]time.Duration{}
		var wall, unattr time.Duration
		for _, o := range group {
			wall += o.Wall
			unattr += o.Unattributed
			for k, v := range o.Self {
				self[k] += v
			}
		}
		names := make([]string, 0, len(self))
		for k := range self {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "# reconcile %s (%d ops, mean per op)\n", root, len(group))
		var sum time.Duration
		for _, k := range names {
			fmt.Fprintf(w, "#   %-28s self %9.3f ms\n", k, ms(self[k]/n))
			sum += self[k]
		}
		sum += unattr
		fmt.Fprintf(w, "#   %-28s self %9.3f ms\n", "(unattributed)", ms(unattr/n))
		gap := sum - wall
		if gap < 0 {
			gap = -gap
		}
		if gap > worst {
			worst = gap
		}
		fmt.Fprintf(w, "#   sum %9.3f ms = wall %9.3f ms (gap %d ns over all ops)\n", ms(sum/n), ms(wall/n), gap.Nanoseconds())
	}
	return worst
}

// layerSpans are the span names the workloads record around layer
// calls; each reports as the metric "<name>_ms", the median duration of
// one call.
var layerSpans = []string{
	"javasrc.compile", "taint.analyze", "cpg.build", "searchindex.compile",
	"pathfinder.find", "cypher.planned", "cypher.interpreted",
	"store.write", "backend.open", "core.fingerprint",
}

// layerTimes sets every layer's per-call median and the median
// unattributed time of the traced operations (roots named "op"). A
// layer the operations never call is timed over the traced set-ups
// (roots named "setup") instead: serve-read builds and stores its graph
// only while setting up.
func layerTimes(r *run, ops []opSummary) {
	for _, name := range layerSpans {
		calls := map[string][]float64{}
		for _, o := range ops {
			for _, d := range o.Calls[name] {
				calls[o.Root] = append(calls[o.Root], ms(d))
			}
		}
		if c := calls["op"]; len(c) > 0 {
			r.set(name+"_ms", median(c))
		} else {
			r.set(name+"_ms", median(calls["setup"]))
		}
	}
	var unattr []float64
	for _, o := range ops {
		if o.Root == "op" {
			unattr = append(unattr, ms(o.Unattributed))
		}
	}
	r.set("trace.unattributed_ms", median(unattr))
	if gap := reconcile(r.out, ops); gap > time.Microsecond {
		r.note("WARNING: self times and unattributed time miss the wall time by %v", gap)
	}
}

// overhead sets trace.overhead_ratio: the median wall time of traced
// operations over that of untraced ones, interleaved in one run.
func overhead(r *run, traced, untraced []float64) {
	r.set("trace.overhead_ratio", ratio(median(traced), median(untraced)))
	r.note("trace overhead: traced p50 %.3f ms (n=%d) / untraced p50 %.3f ms (n=%d)", median(traced), len(traced), median(untraced), len(untraced))
}

// memPerOp sets the Go runtime's allocation volume and GC cycles per
// operation over the measured window.
func memPerOp(r *run, before, after runtime.MemStats, ops int) {
	r.set("go.alloc_mb", ratio(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), float64(ops)))
	r.set("go.gc_cycles", ratio(float64(after.NumGC-before.NumGC), float64(ops)))
}
