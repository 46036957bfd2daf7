package sram

// Fold-level parity with the closed-form demand schedule, over the shared
// simtest harness grid: the DRAM schedule's fold structure and the systolic
// fold schedule are two views of the same tiling and must agree on fold
// count, per-fold pipeline length, total compute cycles, and (without
// on-chip reuse) the drained output volume.

import (
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/simtest"
	"scalesim/internal/systolic"
)

func TestScheduleMatchesFoldScheduleGrid(t *testing.T) {
	for _, c := range simtest.Cases() {
		fs, err := systolic.NewFoldSchedule(c.Dataflow, c.R, c.C, c.G)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := BuildSchedule(c.Dataflow, c.R, c.C, c.G, ScheduleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if sched.NumFolds() != fs.NumFolds() {
			t.Errorf("%s: %d memory folds != %d schedule folds",
				c.Name, sched.NumFolds(), fs.NumFolds())
		}
		var f Fold
		for i := 0; i < sched.NumFolds(); i++ {
			sched.Fold(i, &f)
			if f.ComputeCycles != fs.PerFold {
				t.Fatalf("%s: fold %d compute %d != per-fold %d",
					c.Name, i, f.ComputeCycles, fs.PerFold)
			}
		}
		if got, want := sched.TotalCycles(), fs.TotalCycles(); got != want {
			t.Errorf("%s: schedule compute cycles %d != fold schedule %d",
				c.Name, got, want)
		}
		var ofmapWrites int64
		fs.ForEachFold(func(f *systolic.FoldInfo) bool {
			_, _, ow, _ := f.Volumes()
			ofmapWrites += ow
			return true
		})
		if got := sched.WriteWords(); got != ofmapWrites {
			t.Errorf("%s: DRAM write words %d != fold-schedule ofmap volume %d",
				c.Name, got, ofmapWrites)
		}
	}
}

// TestBuildScheduleAllocsIndependentOfFolds pins the per-index fold view:
// building a schedule validates the request and runs the reuse analysis,
// but derives no fold, so its allocations do not grow with the fold count.
func TestBuildScheduleAllocsIndependentOfFolds(t *testing.T) {
	opts := ScheduleOptions{FilterRatio: 0.5, IfmapSRAMWords: 1 << 16, FilterSRAMWords: 1 << 16, OfmapSRAMWords: 1 << 16}
	few := systolic.Gemm{M: 64, N: 48, K: 40}
	// At least 256 × 512 folds on a 4×4 array under every dataflow, with
	// the contraction dimension halved by the filter ratio.
	many := systolic.Gemm{M: 2048, N: 2048, K: 2048}
	for _, df := range []config.Dataflow{config.OutputStationary, config.WeightStationary, config.InputStationary} {
		allocs := func(g systolic.Gemm) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := BuildSchedule(df, 4, 4, g, opts); err != nil {
					t.Fatal(err)
				}
			})
		}
		sched, err := BuildSchedule(df, 4, 4, many, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n := sched.NumFolds(); n < 1<<16 {
			t.Fatalf("%v: large GEMM has only %d folds, want ≥ 65536", df, n)
		}
		if a, b := allocs(few), allocs(many); a != b {
			t.Errorf("%v: BuildSchedule allocs %v for a few folds, %v for %d folds",
				df, a, b, sched.NumFolds())
		}
	}
}
