package main

import (
	"context"
	"runtime/metrics"
	"sync"
	"time"

	"scalesim"
	"scalesim/internal/telemetry"
)

// trace collects one traced pass: the benchmark's own spans (kept in
// memory, written when the run ends) and the per-layer counts recorded at
// the same boundaries. A nil *trace is the untraced pass; its methods are
// no-ops.
type trace struct {
	tracer   *telemetry.Tracer
	root     *telemetry.Span
	workload string
	seed     int64

	mu     sync.Mutex
	layers map[*scalesim.Layer]int
	stages map[string]*stageTotals
	mem    memTotals
	phases map[string]time.Duration

	// Filled by the workloads.
	runWall     time.Duration // time inside Run/Sweep calls (self time base)
	cacheHits   int64
	cacheMisses int64
	renderTime  time.Duration
	reportBytes int64
	explore     exploreTotals
	server      serverTotals
	gc          gcSample
}

type stageTotals struct {
	busy  time.Duration
	calls int64
}

type memTotals struct {
	requests, stallCycles, queueFullCycles int64
	rowHits, rowAccesses                   int64
}

type exploreTotals struct {
	screen, promote             time.Duration
	screened, promoted, front   int
	allocsPerCand, bytesPerCand float64
}

type serverTotals struct {
	acceptMS, queueWaitMS, runMS, fetchMS float64
	rejected                              int
	allHitShare                           float64
}

func newTrace(workload string, seed int64) *trace {
	return &trace{
		tracer:   telemetry.NewTracer(),
		workload: workload,
		seed:     seed,
		layers:   map[*scalesim.Layer]int{},
		stages:   map[string]*stageTotals{},
		phases:   map[string]time.Duration{},
	}
}

// begin and end bracket a traced pass (or the server's attribution
// replay) with a root span; spans opened in between nest under it.
func (t *trace) begin(name string) {
	t.root = t.tracer.Start(name, "pass")
	t.root.SetTrack(1)
	t.root.SetAttr("seed", t.seed)
}

func (t *trace) end() {
	if t != nil {
		t.root.End()
	}
}

// span opens a benchmark span under the pass root; nil when untraced.
func (t *trace) span(name, cat string) *telemetry.Span {
	if t == nil {
		return nil
	}
	return t.root.Child(name, cat)
}

// runOptions returns the options that attach the trace to a Run or Sweep:
// every stage of the default pipeline wrapped for timing, plus the
// program's own phase spans (WithTrace with no directory keeps them in
// memory). topos are the topologies whose layers the stage spans are
// indexed by. Untraced passes get no options and run the default pipeline.
func (t *trace) runOptions(topos ...*scalesim.Topology) []scalesim.Option {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	for _, topo := range topos {
		for i := range topo.Layers {
			t.layers[&topo.Layers[i]] = i
		}
	}
	t.mu.Unlock()
	var stages []scalesim.Stage
	for _, st := range scalesim.DefaultStages() {
		stages = append(stages, timedStage{inner: st, tr: t})
	}
	return []scalesim.Option{scalesim.WithStages(stages...), scalesim.WithTrace("")}
}

// addPhases folds a traced Result's memory-engine phase spans into the
// per-phase totals.
func (t *trace) addPhases(r *scalesim.Result) {
	if t == nil || r == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range r.Spans() {
		if s.Cat == "phase" {
			t.phases[s.Name] += s.Dur
		}
	}
}

// timeRun adds d to the time spent inside Run/Sweep calls.
func (t *trace) timeRun(d time.Duration) {
	if t != nil {
		t.mu.Lock()
		t.runWall += d
		t.mu.Unlock()
	}
}

// timeRender adds one report rendering.
func (t *trace) timeRender(d time.Duration, bytes int) {
	if t != nil {
		t.mu.Lock()
		t.renderTime += d
		t.reportBytes += int64(bytes)
		t.mu.Unlock()
	}
}

func (t *trace) addCache(hits, misses int64) {
	if t != nil {
		t.mu.Lock()
		t.cacheHits += hits
		t.cacheMisses += misses
		t.mu.Unlock()
	}
}

func (t *trace) setGC(g gcSample) {
	if t != nil {
		t.gc = g
	}
}

func (t *trace) write(path string) error { return writeSpans(t.tracer, path) }

// timedStage wraps one pipeline stage: it delegates Name, Apply,
// CacheFingerprint and FidelityLadder, so cache keys and tier selection are
// those of the wrapped stage, and records one span per Apply tagged with
// the layer index and the counts the stage left in the LayerResult.
type timedStage struct {
	inner scalesim.Stage
	tr    *trace
}

func (s timedStage) Name() string { return s.inner.Name() }

// CacheFingerprint forwards the wrapped stage's fingerprint. Only the
// built-in stages are wrapped, and all of them are fingerprinted.
func (s timedStage) CacheFingerprint() string {
	if f, ok := s.inner.(scalesim.StageFingerprinter); ok {
		return f.CacheFingerprint()
	}
	return ""
}

func (s timedStage) FidelityLadder() []scalesim.Fidelity {
	if f, ok := s.inner.(scalesim.StageFidelity); ok {
		return f.FidelityLadder()
	}
	return nil
}

func (s timedStage) Apply(ctx context.Context, sc *scalesim.StageContext, lr *scalesim.LayerResult) error {
	name := s.inner.Name()
	sp := s.tr.root.Child(name, "stage")
	s.tr.mu.Lock()
	idx, ok := s.tr.layers[sc.Layer]
	s.tr.mu.Unlock()
	if !ok {
		idx = -1
	}
	sp.SetTrack(idx + 2) // track 1 holds the pass and workload spans
	sp.SetAttr("layer", idx)
	t0 := time.Now()
	err := s.inner.Apply(ctx, sc, lr)
	d := time.Since(t0)

	s.tr.mu.Lock()
	st := s.tr.stages[name]
	if st == nil {
		st = &stageTotals{}
		s.tr.stages[name] = st
	}
	st.busy += d
	st.calls++
	if name == "memory" && err == nil && sc.Config.Memory.Enabled {
		m := &lr.Memory
		s.tr.mem.requests += m.Requests
		s.tr.mem.stallCycles += m.StallCycles
		s.tr.mem.queueFullCycles += m.QueueFullCyc
		s.tr.mem.rowHits += m.RowHits
		s.tr.mem.rowAccesses += m.RowHits + m.RowMisses + m.RowConflicts
		sp.SetAttr("requests", m.Requests)
		sp.SetAttr("stall_cycles", m.StallCycles)
	}
	s.tr.mu.Unlock()
	sp.SetAttr("total_cycles", lr.TotalCycles)
	sp.End()
	return err
}

// busy returns a stage's total Apply time.
func (t *trace) busy(stage string) time.Duration {
	if st := t.stages[stage]; st != nil {
		return st.busy
	}
	return 0
}

func (t *trace) calls(stage string) int64 {
	if st := t.stages[stage]; st != nil {
		return st.calls
	}
	return 0
}

// metrics renders every per-layer metric; layers a workload does not use
// read 0.
func (t *trace) metrics() map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	var stageBusy time.Duration
	for _, st := range t.stages {
		stageBusy += st.busy
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, st := range []string{"compute", "layout", "memory", "energy"} {
		set(st+".busy_s", t.busy(st).Seconds(), "s")
		set(st+".calls", float64(t.calls(st)), "count")
	}
	set("memory.requests", float64(t.mem.requests), "count")
	set("memory.ns_per_request", ratio(float64(t.busy("memory").Nanoseconds()), float64(t.mem.requests)), "ns")
	set("memory.schedule_build_s", t.phases["schedule.build"].Seconds(), "s")
	set("memory.sram_stream_s", t.phases["sram.stream"].Seconds(), "s")
	set("memory.dram_drain_s", t.phases["dram.drain"].Seconds(), "s")
	set("memory.stall_cycles", float64(t.mem.stallCycles), "cycles")
	set("memory.queue_full_cycles", float64(t.mem.queueFullCycles), "cycles")
	set("memory.row_hit_ratio", ratio(float64(t.mem.rowHits), float64(t.mem.rowAccesses)), "ratio")
	set("cache.hits", float64(t.cacheHits), "count")
	set("cache.misses", float64(t.cacheMisses), "count")
	set("cache.hit_ratio", ratio(float64(t.cacheHits), float64(t.cacheHits+t.cacheMisses)), "ratio")
	self := t.runWall - stageBusy
	if t.runWall == 0 || self < 0 {
		self = 0
	}
	set("run.self_s", self.Seconds(), "s")
	set("report.render_s", t.renderTime.Seconds(), "s")
	set("report.bytes", float64(t.reportBytes), "bytes")
	e := t.explore
	set("explore.screen_s", e.screen.Seconds(), "s")
	set("explore.promote_s", e.promote.Seconds(), "s")
	set("explore.screened", float64(e.screened), "count")
	set("explore.promoted", float64(e.promoted), "count")
	set("explore.front_size", float64(e.front), "count")
	set("explore.allocs_per_candidate", e.allocsPerCand, "count")
	set("explore.bytes_per_candidate", e.bytesPerCand, "bytes")
	set("runtime.gc_cpu_s", t.gc.cpuSeconds, "s")
	set("runtime.gc_cycles", float64(t.gc.cycles), "count")
	s := t.server
	set("server.accept_ms", s.acceptMS, "ms")
	set("server.queue_wait_ms", s.queueWaitMS, "ms")
	set("server.run_ms", s.runMS, "ms")
	set("server.fetch_ms", s.fetchMS, "ms")
	set("server.rejected", float64(s.rejected), "count")
	set("server.all_hit_share", s.allHitShare, "ratio")
	return m
}

// gcSample is a runtime/metrics snapshot of garbage-collector work.
type gcSample struct {
	cpuSeconds float64
	cycles     uint64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var g gcSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.cpuSeconds = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[1].Value.Uint64()
	}
	return g
}

func (g gcSample) sub(o gcSample) gcSample {
	return gcSample{cpuSeconds: g.cpuSeconds - o.cpuSeconds, cycles: g.cycles - o.cycles}
}
