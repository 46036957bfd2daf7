package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"time"

	"scalesim"
	"scalesim/internal/telemetry"
)

// fullPipeline turns on every optional stage the workloads exercise.
func fullPipeline(cfg scalesim.Config) scalesim.Config {
	cfg.Memory.Enabled = true
	cfg.Layout.Enabled = true
	cfg.Energy.Enabled = true
	return cfg
}

// reportFile is one rendered report.
type reportFile struct {
	name    string
	content []byte
}

// render writes every report into memory, timing the report layer when
// traced.
func render(tr *trace, reports ...*scalesim.Report) ([]reportFile, error) {
	sp := tr.span("report", "report")
	defer sp.End()
	t0 := time.Now()
	out := make([]reportFile, 0, len(reports))
	n := 0
	for _, r := range reports {
		var b bytes.Buffer
		if _, err := r.WriteTo(&b); err != nil {
			return nil, fmt.Errorf("render %s: %w", r.Filename(), err)
		}
		out = append(out, reportFile{r.Filename(), b.Bytes()})
		n += b.Len()
	}
	tr.timeRender(time.Since(t0), n)
	sp.SetAttr("bytes", n)
	return out, nil
}

// digest fingerprints rendered reports (names and bytes, in order).
func digest(files []reportFile) string {
	h := sha256.New()
	for _, f := range files {
		fmt.Fprintf(h, "%s\x00%d\x00", f.name, len(f.content))
		h.Write(f.content)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// timedRun wraps one Run/Sweep call in a "run" span and adds its wall time
// to the run layer's total.
func timedRun(tr *trace, name string, fn func() error) error {
	sp := tr.span(name, "run")
	t0 := time.Now()
	err := fn()
	tr.timeRun(time.Since(t0))
	sp.End()
	return err
}

func memoryRequests(r *scalesim.Result) int64 {
	var n int64
	for i := range r.Layers {
		n += r.Layers[i].Memory.Requests
	}
	return n
}

func round(x float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(x*p) / p
}

// ---------------------------------------------------------------------------
// resnet18-event: one full-pipeline Run of resnet18 at EventDriven.

type resnetEvent struct {
	topo *scalesim.Topology
	cfg  scalesim.Config
	sim  *scalesim.Simulator
	// eventCycles is the last pass's total, the tightness denominator.
	eventCycles int64
}

func (*resnetEvent) seeded() bool { return false }

func (w *resnetEvent) setup(int64) (func(), error) {
	topo, err := scalesim.BuiltinTopology("resnet18")
	if err != nil {
		return nil, err
	}
	w.topo = topo
	w.cfg = fullPipeline(scalesim.DefaultConfig())
	w.sim = scalesim.New(w.cfg)
	return nil, nil
}

func (w *resnetEvent) pass(ctx context.Context, _ int, tr *trace) (*passResult, error) {
	opts := append([]scalesim.Option{scalesim.WithParallelism(1)}, tr.runOptions(w.topo)...)
	var res *scalesim.Result
	err := timedRun(tr, "Run", func() (err error) {
		res, err = w.sim.Run(ctx, w.topo, opts...)
		return err
	})
	if err != nil {
		return &passResult{attempted: 1, failed: 1}, err
	}
	tr.addPhases(res)
	files, err := render(tr, res.Reports().All()...)
	if err != nil {
		return &passResult{attempted: 1, failed: 1}, err
	}
	w.eventCycles = res.TotalCycles()
	return &passResult{attempted: 1, digest: digest(files), detail: res}, nil
}

func (w *resnetEvent) verify(_ context.Context, p *passResult) error {
	res := p.detail.(*scalesim.Result)
	want := expected.resnet18
	if got := res.TotalCycles(); got != want.cycles {
		return fmt.Errorf("resnet18 total cycles %d, want %d", got, want.cycles)
	}
	if got := round(res.TotalEnergyMJ(), 3); got != want.energyMJ {
		return fmt.Errorf("resnet18 energy %.3f mJ, want %.3f", got, want.energyMJ)
	}
	if got := memoryRequests(res); got != want.requests {
		return fmt.Errorf("resnet18 memory requests %d, want %d", got, want.requests)
	}
	if p.digest != want.reports {
		return fmt.Errorf("resnet18 reports digest %s, want %s", p.digest, want.reports)
	}
	return nil
}

func (w *resnetEvent) tightness(ctx context.Context) (float64, error) {
	res, err := w.sim.Run(ctx, w.topo, scalesim.WithParallelism(1), scalesim.WithFidelity(scalesim.Analytical))
	if err != nil {
		return 0, err
	}
	return float64(res.TotalCycles()) / float64(w.eventCycles), nil
}

func (*resnetEvent) stressShare(p *passResult, tr *trace) (float64, string, float64) {
	return tr.busy("memory").Seconds() / p.wall.Seconds(), "memory.busy_s", 0.90
}

// ---------------------------------------------------------------------------
// explore-screen-100k: the screened 100k-candidate Explore.

type exploreScreen struct {
	topo  *scalesim.Topology
	space scalesim.Space
	cfg   scalesim.Config
	last  *scalesim.Frontier
}

func (*exploreScreen) seeded() bool { return false }

func (w *exploreScreen) setup(int64) (func(), error) {
	w.topo = &scalesim.Topology{Name: "screen_gemm", Layers: []scalesim.Layer{
		{Name: "fc1", Kind: scalesim.GEMM, M: 128, N: 128, K: 256},
		{Name: "fc2", Kind: scalesim.GEMM, M: 128, N: 64, K: 128},
	}}
	space, err := scalesim.ParseSpace("array_rows=4..103; array_cols=4..103; bandwidth=1..10")
	if err != nil {
		return nil, err
	}
	if space.Size() != 100_000 {
		return nil, fmt.Errorf("space size %d, want 100000", space.Size())
	}
	w.space = space
	w.cfg = scalesim.DefaultConfig()
	return nil, nil
}

func (w *exploreScreen) pass(ctx context.Context, _ int, tr *trace) (*passResult, error) {
	opts := []scalesim.ExploreOption{
		scalesim.WithExploreObjectives(scalesim.CyclesObjective(), scalesim.UtilizationObjective()),
		scalesim.WithExploreStrategy(scalesim.GridSearch),
		scalesim.WithExploreBudget(100_000),
		scalesim.WithExploreBatchSize(8192),
		scalesim.WithPromoteTopK(16),
		scalesim.WithExploreParallelism(1),
	}
	var ph *explorePhases
	if tr != nil {
		ph = newExplorePhases(tr)
		opts = append(opts, scalesim.WithExploreProgress(ph.observe))
	}
	// Explore runs its evaluations internally, so its time is not added to
	// the run layer's total (run.self_s covers wrapped Run/Sweep calls).
	sp := tr.span("Explore", "explore")
	f, err := scalesim.Explore(ctx, w.cfg, w.topo, w.space, opts...)
	sp.End()
	if err != nil {
		return &passResult{attempted: 1, failed: 1}, err
	}
	if ph != nil {
		ph.finish(f)
	}
	files, err := render(tr, f.CSVReport())
	if err != nil {
		return &passResult{attempted: 1, failed: 1}, err
	}
	w.last = f
	return &passResult{attempted: 1, digest: digest(files), detail: f}, nil
}

func (w *exploreScreen) verify(_ context.Context, p *passResult) error {
	f := p.detail.(*scalesim.Frontier)
	want := expected.explore
	if f.Screened != want.screened || f.Promoted != want.promoted || len(f.Points) != want.front {
		return fmt.Errorf("explore screened/promoted/frontier %d/%d/%d, want %d/%d/%d",
			f.Screened, f.Promoted, len(f.Points), want.screened, want.promoted, want.front)
	}
	if p.digest != want.frontierCSV {
		return fmt.Errorf("explore frontier CSV digest %s, want %s", p.digest, want.frontierCSV)
	}
	return nil
}

// tightness re-runs every frontier design at the Analytical tier and
// compares its total cycles with the promoted (EventDriven) result.
func (w *exploreScreen) tightness(ctx context.Context) (float64, error) {
	var fast, slow int64
	for _, p := range w.last.Points {
		res, err := scalesim.New(p.Config).Run(ctx, w.topo,
			scalesim.WithParallelism(1), scalesim.WithFidelity(scalesim.Analytical))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.Name, err)
		}
		fast += res.TotalCycles()
		slow += p.Result.TotalCycles()
	}
	return float64(fast) / float64(slow), nil
}

func (*exploreScreen) stressShare(p *passResult, tr *trace) (float64, string, float64) {
	return tr.explore.screen.Seconds() / p.wall.Seconds(), "explore.screen_s", 0.80
}

// explorePhases splits a traced Explore into its screening and promotion
// phases from the progress callbacks' timestamps per fidelity.
type explorePhases struct {
	tr            *trace
	mu            sync.Mutex
	start         time.Time
	lastScreen    time.Time
	lastPromote   time.Time
	screen, promo *telemetry.Span
}

func newExplorePhases(tr *trace) *explorePhases {
	return &explorePhases{tr: tr, start: time.Now(), screen: tr.span("explore.screen", "explore")}
}

func (e *explorePhases) observe(p scalesim.ExploreProgress) {
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if p.Fidelity == scalesim.Analytical {
		e.lastScreen = now
		return
	}
	if e.promo == nil {
		// The first accurate-tier evaluation closes the screening span.
		e.screen.End()
		e.promo = e.tr.span("explore.promote", "explore")
	}
	e.lastPromote = now
}

func (e *explorePhases) finish(f *scalesim.Frontier) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.screen.End()
	if e.promo != nil {
		e.promo.End()
	}
	x := &e.tr.explore
	if !e.lastScreen.IsZero() {
		x.screen = e.lastScreen.Sub(e.start)
		if !e.lastPromote.IsZero() {
			x.promote = e.lastPromote.Sub(e.lastScreen)
		}
	}
	x.screened, x.promoted, x.front = f.Screened, f.Promoted, len(f.Points)
	e.tr.addCache(f.CacheStats.Hits, f.CacheStats.Misses)
}

// ---------------------------------------------------------------------------
// vit-table5-sweep: the paper's Table 5 array study on ViT-base.

var vitArrays = []int{32, 64, 128}

type vitSweep struct {
	topo   *scalesim.Topology
	points []scalesim.SweepPoint
	// eventCycles is the last pass's total, the tightness denominator.
	eventCycles int64
	printed     bool
}

func (*vitSweep) seeded() bool { return false }

func (w *vitSweep) setup(int64) (func(), error) {
	topo, err := scalesim.BuiltinTopology("vit_base")
	if err != nil {
		return nil, err
	}
	w.topo = topo
	w.points = w.points[:0]
	for _, a := range vitArrays {
		cfg := fullPipeline(scalesim.DefaultConfig())
		cfg.ArrayRows, cfg.ArrayCols = a, a
		cfg.Dataflow = scalesim.OutputStationary
		w.points = append(w.points, scalesim.SweepPoint{
			Name: fmt.Sprintf("vit_base/%dx%d", a, a), Config: cfg, Topology: topo})
	}
	return nil, nil
}

// vitOutcome is what verify needs from a sweep pass.
type vitOutcome struct {
	results      []scalesim.SweepResult
	hits, misses int64
}

func (w *vitSweep) pass(ctx context.Context, _ int, tr *trace) (*passResult, error) {
	cache := scalesim.NewCache(0, 0)
	opts := append([]scalesim.Option{scalesim.WithParallelism(1), scalesim.WithCache(cache)}, tr.runOptions(w.topo)...)
	var results []scalesim.SweepResult
	err := timedRun(tr, "Sweep", func() (err error) {
		results, err = scalesim.Sweep(ctx, w.points, opts...)
		return err
	})
	p := &passResult{attempted: len(w.points)}
	if err != nil {
		p.failed = len(w.points)
		return p, err
	}
	var reports []*scalesim.Report
	var total int64
	for _, sr := range results {
		if sr.Err != nil {
			p.failed++
			continue
		}
		tr.addPhases(sr.Result)
		reports = append(reports, sr.Result.Reports().All()...)
		total += sr.Result.TotalCycles()
	}
	if p.failed > 0 {
		return p, fmt.Errorf("%d of %d sweep points failed", p.failed, len(w.points))
	}
	files, err := render(tr, reports...)
	if err != nil {
		return p, err
	}
	st := cache.Stats()
	tr.addCache(st.Hits, st.Misses)
	w.eventCycles = total
	p.digest = digest(files)
	p.detail = &vitOutcome{results: results, hits: st.Hits, misses: st.Misses}
	return p, nil
}

func (w *vitSweep) verify(_ context.Context, p *passResult) error {
	out := p.detail.(*vitOutcome)
	want := expected.vit
	best, bestEdP := 0, math.Inf(1)
	for i, sr := range out.results {
		r := sr.Result
		if got := r.TotalCycles(); got != want.cycles[i] {
			return fmt.Errorf("%s total cycles %d, want %d", sr.Point.Name, got, want.cycles[i])
		}
		if got := round(r.TotalEnergyMJ(), 1); got != want.energyMJ[i] {
			return fmt.Errorf("%s energy %.1f mJ, want %.1f", sr.Point.Name, got, want.energyMJ[i])
		}
		if edp := r.EdP(); edp < bestEdP {
			best, bestEdP = vitArrays[i], edp
		}
	}
	if best != want.edpWinner {
		return fmt.Errorf("EdP winner %dx%d, want %dx%d", best, best, want.edpWinner, want.edpWinner)
	}
	if out.hits != want.cacheHits || out.misses != want.cacheMisses {
		return fmt.Errorf("cache hits/misses %d/%d, want %d/%d", out.hits, out.misses, want.cacheHits, want.cacheMisses)
	}
	if p.digest != want.reports {
		return fmt.Errorf("vit reports digest %s, want %s", p.digest, want.reports)
	}
	if !w.printed {
		w.printed = true
		printPaperComparison(out.results)
	}
	return nil
}

// printPaperComparison prints the simulator's Table 5 ratios beside the
// paper's, as information only.
func printPaperComparison(results []scalesim.SweepResult) {
	c32, c128 := results[0].Result.TotalCycles(), results[2].Result.TotalCycles()
	e32, e128 := results[0].Result.TotalEnergyMJ(), results[2].Result.TotalEnergyMJ()
	lat := float64(c32) / float64(c128)
	eff := e128 / e32
	logf("Table 5 (ViT-base), simulated vs paper — information only:")
	logf("  latency ratio 128x128 vs 32x32:           %.2fx simulated vs %.2fx paper (%+.1f%%)",
		lat, paperTable5.latencyRatio, 100*(lat/paperTable5.latencyRatio-1))
	logf("  energy-efficiency ratio 32x32 vs 128x128: %.2fx simulated vs %.2fx paper (%+.1f%%)",
		eff, paperTable5.efficiencyRatio, 100*(eff/paperTable5.efficiencyRatio-1))
	best, bestEdP := 0, math.Inf(1)
	for i, sr := range results {
		if edp := sr.Result.EdP(); edp < bestEdP {
			best, bestEdP = vitArrays[i], edp
		}
	}
	logf("  EdP winner: %dx%d simulated vs %dx%d paper", best, best, paperTable5.edpWinner, paperTable5.edpWinner)
}

func (w *vitSweep) tightness(ctx context.Context) (float64, error) {
	results, err := scalesim.Sweep(ctx, w.points, scalesim.WithParallelism(1),
		scalesim.WithCache(scalesim.NewCache(0, 0)), scalesim.WithFidelity(scalesim.Analytical))
	if err != nil {
		return 0, err
	}
	var fast int64
	for _, sr := range results {
		if sr.Err != nil {
			return 0, fmt.Errorf("%s: %w", sr.Point.Name, sr.Err)
		}
		fast += sr.Result.TotalCycles()
	}
	return float64(fast) / float64(w.eventCycles), nil
}

func (*vitSweep) stressShare(p *passResult, tr *trace) (float64, string, float64) {
	return tr.busy("memory").Seconds() / p.wall.Seconds(), "memory.busy_s", 0.90
}
