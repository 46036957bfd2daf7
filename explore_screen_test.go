package scalesim_test

// Contract tests for the Analytical screen of Explore: every screened value
// equals a standalone Analytical Run, the frontier is byte-identical at any
// parallelism, tracing and cancellation keep their contracts, the shared
// default energy table cannot be reached through DefaultERT, and screening
// allocates a bounded amount per candidate.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"scalesim"
)

// screenSpace is a few hundred candidates: wide enough for the strategies
// to differ and for several batches per worker.
func screenSpace(t testing.TB) scalesim.Space {
	t.Helper()
	sp, err := scalesim.ParseSpace("array_rows=4..11; array_cols=4..11; dataflow=os,ws,is; bandwidth=1..2")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestExploreScreenMatchesStandaloneRun is the screen's differential test:
// for a seeded sample of candidates, the objective values the screen
// computed (into reused per-worker storage) equal those of a standalone
// Analytical Run of the same configuration.
func TestExploreScreenMatchesStandaloneRun(t *testing.T) {
	topo := exploreTopology()
	base := memoryConfig()
	base.Energy.Enabled = true
	space := screenSpace(t)
	objs := []scalesim.Objective{scalesim.CyclesObjective(), scalesim.EnergyObjective(),
		scalesim.EDPObjective(), scalesim.DRAMTrafficObjective(), scalesim.UtilizationObjective()}

	// The screen runs before any promotion, so the first value recorded per
	// candidate label and objective is the screened one.
	type key struct {
		label string
		obj   int
	}
	var mu sync.Mutex
	screened := map[key]float64{}
	recording := make([]scalesim.Objective, len(objs))
	for i, obj := range objs {
		fn := obj.Fn
		recording[i] = obj
		recording[i].Fn = func(r *scalesim.Result) float64 {
			v := fn(r)
			mu.Lock()
			defer mu.Unlock()
			if _, ok := screened[key{r.Config.RunName, i}]; !ok {
				screened[key{r.Config.RunName, i}] = v
			}
			return v
		}
	}
	f, err := scalesim.Explore(context.Background(), base, topo, space,
		scalesim.WithExploreObjectives(recording...),
		scalesim.WithExploreStrategy(scalesim.GridSearch),
		scalesim.WithExploreBudget(int(space.Size())),
		scalesim.WithExploreBatchSize(32),
		scalesim.WithExploreParallelism(3),
		scalesim.WithPromoteTopK(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	if int64(f.Screened) != space.Size() || f.Infeasible != 0 {
		t.Fatalf("screened %d (infeasible %d) of %d candidates", f.Screened, f.Infeasible, space.Size())
	}

	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 24; n++ {
		c := make(scalesim.Candidate, len(space))
		for i := range space {
			c[i] = rng.Intn(space[i].Len())
		}
		label := space.Label(c)
		res, err := scalesim.New(space.Apply(base, c)).Run(context.Background(), topo,
			scalesim.WithFidelity(scalesim.Analytical))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i, obj := range objs {
			got, ok := screened[key{label, i}]
			if !ok {
				t.Fatalf("%s was never screened", label)
			}
			if want := obj.Fn(res); got != want {
				t.Errorf("%s: screened %s = %v, standalone Analytical Run = %v", label, obj.Name, got, want)
			}
		}
	}
}

// TestExploreScreenDeterministicAcrossParallelism holds the screened
// frontier (CSV and JSON) byte-identical at parallelism 1, 2 and 8 for
// every built-in strategy, with top-K and margin promotion.
func TestExploreScreenDeterministicAcrossParallelism(t *testing.T) {
	topo := exploreTopology()
	cfg := memoryConfig()
	cfg.Energy.Enabled = true
	for _, strat := range []scalesim.SearchStrategy{
		scalesim.GridSearch, scalesim.RandomSearch, scalesim.EvolutionSearch,
	} {
		t.Run(string(strat), func(t *testing.T) {
			var want []byte
			for _, par := range []int{1, 2, 8} {
				f, err := scalesim.Explore(context.Background(), cfg, topo, screenSpace(t),
					scalesim.WithExploreObjectives(scalesim.CyclesObjective(), scalesim.EnergyObjective()),
					scalesim.WithExploreStrategy(strat),
					scalesim.WithExploreBudget(96),
					scalesim.WithExploreBatchSize(16),
					scalesim.WithExploreSeed(5),
					scalesim.WithExploreParallelism(par),
					scalesim.WithPromoteTopK(3),
					scalesim.WithPromoteMargin(0.02),
				)
				if err != nil {
					t.Fatal(err)
				}
				if f.Screened != 96 || len(f.Points) == 0 {
					t.Fatalf("par %d: screened %d, frontier %d", par, f.Screened, len(f.Points))
				}
				got := frontierBytes(t, f)
				if want == nil {
					want = got
				} else if !bytes.Equal(want, got) {
					t.Errorf("frontier at parallelism %d differs from parallelism 1:\n%s\n---\n%s", par, want, got)
				}
			}
		})
	}
}

// TestExploreScreenTraceFilePerCandidate: with WithExploreTrace every
// screened candidate writes its own trace file (promotion rewrites the
// files of the candidates it re-runs, under the same names).
func TestExploreScreenTraceFilePerCandidate(t *testing.T) {
	dir := t.TempDir()
	space := exploreSpace(t)
	f, err := scalesim.Explore(context.Background(), scalesim.DefaultConfig(), exploreTopology(), space,
		scalesim.WithExploreStrategy(scalesim.GridSearch),
		scalesim.WithExploreBudget(int(space.Size())),
		scalesim.WithExploreParallelism(2),
		scalesim.WithPromoteTopK(2),
		scalesim.WithExploreTrace(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != f.Screened || int64(f.Screened) != space.Size() {
		t.Fatalf("%d trace files for %d screened candidates (space %d)", len(files), f.Screened, space.Size())
	}
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(b, []byte(`"traceEvents"`)) {
			t.Errorf("%s is not a trace-event file", filepath.Base(p))
		}
	}
}

// TestExploreScreenCancelDeterministic cancels in the middle of a screen
// batch: Explore returns the context error, the unfinished batch is
// discarded, nothing is promoted, and the partial frontier is the same at
// any parallelism.
func TestExploreScreenCancelDeterministic(t *testing.T) {
	var want []byte
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		f, err := scalesim.Explore(ctx, scalesim.DefaultConfig(), exploreTopology(), screenSpace(t),
			scalesim.WithExploreStrategy(scalesim.GridSearch),
			scalesim.WithExploreBudget(40),
			scalesim.WithExploreBatchSize(4),
			scalesim.WithExploreParallelism(par),
			scalesim.WithPromoteTopK(2),
			scalesim.WithExploreProgress(func(p scalesim.ExploreProgress) {
				if p.Fidelity == scalesim.Analytical && p.Evaluated >= 10 {
					cancel()
				}
			}),
		)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par %d: err = %v, want context.Canceled", par, err)
		}
		if f == nil {
			t.Fatalf("par %d: cancelled explore returned nil frontier", par)
		}
		// Candidate 10 falls in the third batch of four: two batches
		// completed before it.
		if f.Screened != 8 || f.Promoted != 0 || f.Evaluated != 0 || f.Infeasible != 0 || len(f.Points) != 0 {
			t.Errorf("par %d: screened=%d promoted=%d evaluated=%d infeasible=%d points=%d, want 8/0/0/0/0",
				par, f.Screened, f.Promoted, f.Evaluated, f.Infeasible, len(f.Points))
		}
		got := frontierBytes(t, f)
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Errorf("cancelled frontier at parallelism %d differs:\n%s\n---\n%s", par, want, got)
		}
	}
}

// TestExploreDefaultERTIsolated: runs without WithERT share one default
// energy table, so DefaultERT must hand out a copy — mutating it changes
// neither a default Run's energy nor the next DefaultERT.
func TestExploreDefaultERTIsolated(t *testing.T) {
	cfg := scalesim.DefaultConfig()
	cfg.Energy.Enabled = true
	topo := exploreTopology()
	ctx := context.Background()
	energy := func(opts ...scalesim.Option) float64 {
		t.Helper()
		res, err := scalesim.New(cfg, opts...).Run(ctx, topo)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalEnergyMJ()
	}
	before := energy()
	ert := scalesim.DefaultERT()
	orig := ert.Entries["mac"]["mac_random"]
	ert.Set("mac", "mac_random", orig*1000)
	if got := energy(); got != before {
		t.Errorf("default Run energy %v after mutating a DefaultERT copy, want %v", got, before)
	}
	if got := energy(scalesim.WithERT(ert)); got == before {
		t.Errorf("WithERT(mutated table) energy %v equals the default's: the mutation had no effect", got)
	}
	if got := scalesim.DefaultERT().Entries["mac"]["mac_random"]; got != orig {
		t.Errorf("fresh DefaultERT mac_random = %v, want %v", got, orig)
	}
}

// screenAllocs runs a screened Explore over the first budget points of a
// grid and returns the heap allocations and bytes it made. The workload is
// the benchmark's; the single objective keeps the promoted set (the
// fastest designs and their ties) the same size at every budget, so the
// difference between two budgets is screening cost alone.
func screenAllocs(t testing.TB, budget int) (allocs, bytes float64) {
	t.Helper()
	topo := &scalesim.Topology{Name: "screen_gemm", Layers: []scalesim.Layer{
		{Name: "fc1", Kind: scalesim.GEMM, M: 128, N: 128, K: 256},
		{Name: "fc2", Kind: scalesim.GEMM, M: 128, N: 64, K: 128},
	}}
	space, err := scalesim.ParseSpace("array_rows=4..203; array_cols=4..203")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := scalesim.Explore(context.Background(), scalesim.DefaultConfig(), topo, space,
		scalesim.WithExploreObjectives(scalesim.CyclesObjective()),
		scalesim.WithExploreStrategy(scalesim.GridSearch),
		scalesim.WithExploreBudget(budget),
		scalesim.WithExploreBatchSize(256),
		scalesim.WithExploreParallelism(1),
		scalesim.WithPromoteTopK(16),
	)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if f.Screened != budget {
		t.Fatalf("screened %d, want %d", f.Screened, budget)
	}
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// Per-candidate allocation bound of the Analytical screen, in steady state.
const (
	maxScreenAllocsPerCandidate = 6
	maxScreenBytesPerCandidate  = 1024
)

// TestExploreScreenAllocsPerCandidate bounds what one more screened
// candidate costs: the marginal allocations and bytes between budgets N
// and 2N, so fixed costs (promotion, the frontier) cancel out.
func TestExploreScreenAllocsPerCandidate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const n = 10_000
	measure := func(budget int) (allocs, bytes float64) {
		// The least of three runs filters out allocations made elsewhere
		// in the process.
		for i := 0; i < 3; i++ {
			a, b := screenAllocs(t, budget)
			if i == 0 || a < allocs {
				allocs = a
			}
			if i == 0 || b < bytes {
				bytes = b
			}
		}
		return allocs, bytes
	}
	a1, b1 := measure(n)
	a2, b2 := measure(2 * n)
	allocs, bytes := (a2-a1)/n, (b2-b1)/n
	t.Logf("marginal cost per screened candidate: %.2f allocs, %.0f B", allocs, bytes)
	if allocs > maxScreenAllocsPerCandidate || bytes > maxScreenBytesPerCandidate {
		t.Errorf("screening costs %.2f allocs and %.0f B per candidate, want at most %d and %d",
			allocs, bytes, maxScreenAllocsPerCandidate, maxScreenBytesPerCandidate)
	}
}
