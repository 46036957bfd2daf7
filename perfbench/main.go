// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator only through its public entry points — scalesim.Run, Sweep and
// Explore, and the job server's HTTP handler on a loopback listener — and
// times each layer from outside, around calls into it.
//
// Usage (from the repository root, via the build wrapper):
//
//	bash perfbench/run.sh --workload resnet18-event --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the command measures untraced passes for --seconds and
// prints the end-to-end metrics; with --trace 1 it runs one untraced and
// one traced pass and prints the per-layer metrics. Either way the last
// line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; any output mismatch makes
// "correct" false and the exit code 1. See README.md for the workloads and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"scalesim/internal/telemetry"
)

// workload is one benchmark input set. setup builds the inputs (timed as
// setup_s); pass runs the measured work once.
type workload interface {
	// seeded reports whether the workload draws its inputs from --seed.
	seeded() bool
	// setup builds the workload's inputs and returns the function that
	// releases them (nil when nothing needs releasing). It is timed; the
	// release is not.
	setup(seed int64) (teardown func(), err error)
	// pass runs pass number n. tr is nil for untraced passes; a traced pass
	// records its layer spans and counts into tr.
	pass(ctx context.Context, n int, tr *trace) (*passResult, error)
	// verify checks a pass's outputs against committed values (and, for
	// the server, against direct library runs). It runs untimed.
	verify(ctx context.Context, p *passResult) error
	// tightness returns Analytical-tier over EventDriven-tier total cycles
	// for the workload's runs, computed untimed.
	tightness(ctx context.Context) (float64, error)
	// stressShare returns the share of a traced pass's wall time spent in
	// the layer the workload was chosen to stress, that layer's name, and
	// the share below which the benchmark warns of drift.
	stressShare(p *passResult, tr *trace) (share float64, layer string, floor float64)
}

// attributer is implemented by workloads whose pipeline stages run where
// the benchmark cannot wrap them (inside the server's workers). After the
// traced pass, attribute replays that pass's work through the library with
// wrapped stages, recording into tr.
type attributer interface {
	attribute(ctx context.Context, tr *trace) error
}

// passResult is what one pass produced.
type passResult struct {
	wall       time.Duration
	allocBytes uint64
	// peakRSS is the pass's resident-set high-water mark in bytes, 0 where
	// the kernel cannot reset it per pass.
	peakRSS   uint64
	mallocs   uint64
	attempted int
	failed    int
	// jobs holds per-job round-trip times (the server); library workloads
	// leave it empty and count the whole pass as one job.
	jobs []time.Duration
	// digest fingerprints every report byte (for the server, every
	// payload) the pass produced; traced and untraced passes must agree.
	digest string
	// detail carries workload-specific outputs for verify.
	detail any
}

// jobTimes returns the pass's per-job latencies.
func (p *passResult) jobTimes() []time.Duration {
	if len(p.jobs) > 0 {
		return p.jobs
	}
	return []time.Duration{p.wall}
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

func newWorkload(name string) (workload, error) {
	switch name {
	case "resnet18-event":
		return &resnetEvent{}, nil
	case "explore-screen-100k":
		return &exploreScreen{}, nil
	case "vit-table5-sweep":
		return &vitSweep{}, nil
	case "serve-job-mix":
		return &serveMix{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: resnet18-event, explore-screen-100k, vit-table5-sweep, serve-job-mix)", name)
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed (only serve-job-mix draws from it)")
	seconds := flag.Float64("seconds", 10, "measuring time for --trace 0")
	traced := flag.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced pass")
	out := flag.String("out", ".bench_build", "directory for the span file of a traced run")
	flag.Parse()
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if w.seeded() {
		logf("workload %s seed %d: job specs are drawn from the seed", *name, *seed)
	} else {
		logf("workload %s seed %d: fixed built-in inputs, the seed is recorded but unused", *name, *seed)
	}
	ctx := context.Background()
	var res *result
	switch *traced {
	case 0:
		res, err = measure(ctx, w, *seed, time.Duration(*seconds*float64(time.Second)))
	case 1:
		res, err = traceRun(ctx, w, *name, *seed, *out)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(1)
		}
	}
	logf("failed_ratio %g (%d failed of %d attempted)", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		logf("%-28s %14.6g %s", k, m.Value, m.Unit)
	}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// measure runs the --trace 0 protocol: repeated set-up, then untraced
// passes until the measuring time is spent, each verified after timing.
//
// Every host timing is computed per pass and reported as its best value
// over the run's passes: on a small shared machine, background load slows
// whole stretches of a run by tens of percent, so a run's median follows
// the machine while its best pass follows the program. The medians over
// passes are logged beside.
func measure(ctx context.Context, w workload, seed int64, seconds time.Duration) (*result, error) {
	setup, err := setupTime(w, seed)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var walls, allocs, rss, p50s, tails, rates []float64
	tailLabel := ""
	var start time.Time
	// Pass 0 warms up (lazy initialization, heap growth); it is verified
	// but not measured. Measured passes start while the fastest one so far
	// still fits in the measuring time.
	for n := 0; n <= 1 || time.Since(start).Seconds()+slices.Min(walls) <= seconds.Seconds(); n++ {
		if n == 1 {
			start = time.Now()
		}
		p, err := timedPass(ctx, w, n, nil)
		res.Attempted += p.attempted
		res.Failed += p.failed
		if err != nil {
			res.Correct = false
			return res, fmt.Errorf("pass %d: %w", n, err)
		}
		if err := w.verify(ctx, p); err != nil {
			res.Correct = false
			return res, fmt.Errorf("pass %d: %w", n, err)
		}
		logf("pass %d: %.4fs, %.1f MB allocated, peak RSS %.1f MB", n, p.wall.Seconds(),
			float64(p.allocBytes)/1e6, float64(p.peakRSS)/(1<<20))
		if n == 0 {
			continue
		}
		var jobs []float64
		for _, d := range p.jobTimes() {
			jobs = append(jobs, float64(d)/float64(time.Millisecond))
		}
		tail, label := tailLatency(jobs)
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.allocBytes)/1e6)
		if p.peakRSS > 0 {
			rss = append(rss, float64(p.peakRSS)/(1<<20))
		}
		p50s = append(p50s, median(jobs))
		tails = append(tails, tail)
		rates = append(rates, float64(len(jobs))/p.wall.Seconds())
		tailLabel = label
	}
	tight, err := w.tightness(ctx)
	if err != nil {
		res.Correct = false
		return res, fmt.Errorf("analytical tightness: %w", err)
	}
	if tight > 1 {
		res.Correct = false
		return res, fmt.Errorf("analytical_tightness %.6f > 1: the Analytical tier is not a lower bound", tight)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	logf("%d measured passes; job_tail_ms is each pass's %s", len(walls), tailLabel)
	logf("medians over passes: wall %.4fs, job p50 %.4f ms, job tail %.4f ms, %.4f jobs/s",
		median(walls), median(p50s), median(tails), median(rates))
	res.Metrics = map[string]metric{
		"setup_s":              {setup, "s"},
		"wall_s":               {slices.Min(walls), "s"},
		"alloc_mb":             {median(allocs), "MB"},
		"peak_rss_mb":          {peakRSS(rss), "MB"},
		"job_p50_ms":           {slices.Min(p50s), "ms"},
		"job_tail_ms":          {slices.Min(tails), "ms"},
		"jobs_per_s":           {slices.Max(rates), "1/s"},
		"analytical_tightness": {tight, "ratio"},
	}
	return res, nil
}

// traceRun runs the --trace 1 protocol: one untraced pass, then one traced
// pass whose outputs must match it byte for byte. The spans are written as
// Chrome trace-event JSON under out when the run ends.
func traceRun(ctx context.Context, w workload, name string, seed int64, out string) (*result, error) {
	teardown, err := w.setup(seed)
	if err != nil {
		return nil, err
	}
	if teardown != nil {
		teardown()
	}
	res := &result{Correct: false, Metrics: map[string]metric{}}
	var plain *passResult
	// A warm-up pass, then the untraced pass the traced one is compared with.
	for i := 0; i < 2; i++ {
		plain, err = timedPass(ctx, w, 0, nil)
		res.Attempted += plain.attempted
		res.Failed += plain.failed
		if err == nil {
			err = w.verify(ctx, plain)
		}
		if err != nil {
			return res, fmt.Errorf("untraced pass: %w", err)
		}
	}
	tr := newTrace(name, seed)
	p, err := timedPass(ctx, w, 0, tr)
	res.Attempted += p.attempted
	res.Failed += p.failed
	if err == nil {
		err = w.verify(ctx, p)
	}
	if err != nil {
		return res, fmt.Errorf("traced pass: %w", err)
	}
	if p.digest != plain.digest {
		return res, fmt.Errorf("traced pass outputs differ from the untraced pass (digest %s vs %s)", p.digest, plain.digest)
	}
	if a, ok := w.(attributer); ok {
		tr.begin("attribution replay")
		err := a.attribute(ctx, tr)
		tr.end()
		if err != nil {
			return res, fmt.Errorf("attribution replay: %w", err)
		}
	}
	if x := &tr.explore; x.screened > 0 {
		x.allocsPerCand = float64(p.mallocs) / float64(x.screened)
		x.bytesPerCand = float64(p.allocBytes) / float64(x.screened)
	}
	res.Correct = res.Failed == 0
	res.Metrics = tr.metrics()
	res.Metrics["trace.overhead_ratio"] = metric{p.wall.Seconds() / plain.wall.Seconds(), "ratio"}
	share, layer, floor := w.stressShare(p, tr)
	res.Metrics["stress.share"] = metric{share, "ratio"}
	if share < floor {
		logf("WARNING: %s took %.1f%% of the traced pass, below the %.0f%% this workload was chosen for; it no longer stresses that layer",
			layer, 100*share, 100*floor)
	} else {
		logf("%s took %.1f%% of the traced pass (floor %.0f%%)", layer, 100*share, 100*floor)
	}
	path := filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.trace.json", name, seed))
	if err := tr.write(path); err != nil {
		return res, err
	}
	logf("spans written to %s", path)
	return res, nil
}

// setupTime repeats the workload's set-up and returns the seconds per
// set-up of the fastest batch. Set-ups run in batches of at least a
// millisecond (library set-ups take microseconds, so a batch amortizes
// the clock and the collector's work evenly) until a third of a second is
// spent and at least 11 batches ran, after one untimed warm-up batch.
// Teardowns run untimed.
func setupTime(w workload, seed int64) (float64, error) {
	one := func() (time.Duration, error) {
		t0 := time.Now()
		teardown, err := w.setup(seed)
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		if teardown != nil {
			teardown()
		}
		return d, nil
	}
	d, err := one()
	if err != nil {
		return 0, err
	}
	batch := int(time.Millisecond/max(d, time.Microsecond)) + 1
	best := math.Inf(1)
	start := time.Now()
	for i := -1; i < 11 || time.Since(start) < 300*time.Millisecond; i++ {
		var sum time.Duration
		for j := 0; j < batch; j++ {
			d, err := one()
			if err != nil {
				return 0, err
			}
			sum += d
		}
		if i >= 0 {
			best = math.Min(best, sum.Seconds()/float64(batch))
		}
	}
	return best, nil
}

// timedPass collects garbage, then runs and times one pass, recording the
// bytes and objects it allocated.
func timedPass(ctx context.Context, w workload, n int, tr *trace) (*passResult, error) {
	// Return every free page to the OS and restart the kernel's RSS
	// high-water mark, so the pass's peak is its own.
	debug.FreeOSMemory()
	resetRSS := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0 := readGC()
	if tr != nil {
		tr.begin(tr.workload)
	}
	t0 := time.Now()
	p, err := w.pass(ctx, n, tr)
	wall := time.Since(t0)
	tr.end()
	runtime.ReadMemStats(&after)
	if p == nil {
		p = &passResult{attempted: 1, failed: 1}
	}
	if resetRSS {
		p.peakRSS = vmHWM()
	}
	if p.wall == 0 {
		// Workloads that exclude per-pass set-up report their own wall.
		p.wall = wall
	}
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
	tr.setGC(readGC().sub(gc0))
	return p, err
}

// median returns the middle of xs (mean of the middle pair), 0 if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLatency returns the highest of p99.9, p99, p95 and p90 that has at
// least ten samples beyond it (nearest rank), with a label naming it and
// the sample count. With fewer than 100 samples no such percentile exists
// and the maximum stands in; a library workload's pass is a single job.
func tailLatency(xs []float64) (float64, string) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, "empty"
	}
	for _, p := range []float64{99.9, 99, 95, 90} {
		if float64(n)*(1-p/100) >= 10 {
			i := int(math.Ceil(float64(n)*p/100)) - 1
			return s[max(i, 0)], fmt.Sprintf("p%g of %d samples", p, n)
		}
	}
	return s[n-1], fmt.Sprintf("maximum of %d samples", n)
}

// peakRSS returns the median per-pass peak resident set in MB: a single
// pass's peak depends on how far the collector lagged the allocator, which
// host load changes. Where the kernel cannot reset the high-water mark per
// pass, it falls back to the process's peak.
func peakRSS(perPass []float64) float64 {
	if len(perPass) > 0 {
		return median(perPass)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// vmHWM reads the resident-set high-water mark from /proc/self/status.
func vmHWM() uint64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// writeSpans renders a tracer as Chrome trace-event JSON at path.
func writeSpans(t *telemetry.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dir: %w", err)
	}
	var b strings.Builder
	if err := t.WriteChromeTrace(&b); err != nil {
		return fmt.Errorf("render spans: %w", err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
