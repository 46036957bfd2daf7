package sram

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"scalesim/internal/dram"
	"scalesim/internal/simtest"
)

// TestSpanLineCountMatchesLines pins LineCount to its oracle: for random
// spans and line geometries the closed-form count must equal the number of
// addresses Lines materializes, including the shared-boundary-line dedup.
func TestSpanLineCountMatchesLines(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	geoms := [][2]int64{{4, 64}, {4, 32}, {2, 64}, {8, 128}, {4, 4}}
	for i := 0; i < 500; i++ {
		s := Span{
			Base:      int64(rng.Intn(4096)),
			Rows:      int64(1 + rng.Intn(20)),
			RowWords:  int64(1 + rng.Intn(200)),
			RowStride: int64(rng.Intn(260)),
		}
		for _, g := range geoms {
			wb, lb := g[0], g[1]
			want := int64(len(s.Lines(nil, wb, lb)))
			if got := s.LineCount(wb, lb); got != want {
				t.Fatalf("span %+v wb=%d lb=%d: LineCount %d, len(Lines) %d", s, wb, lb, got, want)
			}
		}
	}
	// Degenerate spans contribute nothing either way.
	empty := Span{Base: 64, Rows: 3, RowWords: 0, RowStride: 16}
	if got := empty.LineCount(4, 64); got != 0 {
		t.Fatalf("empty span: LineCount %d, want 0", got)
	}
}

// TestEstimateBoundsSimulateGrid is the analytical-tier differential test:
// on the shared simtest case grid the closed-form Estimate must agree with
// the event-driven Simulate exactly on everything that is a property of the
// schedule (compute cycles, word and request counts) and lower-bound
// everything that is a property of controller timing (total and stall
// cycles) — the screen may be optimistic, never pessimistic.
func TestEstimateBoundsSimulateGrid(t *testing.T) {
	techs := map[string]dram.Tech{"ddr4": dram.DDR4_2400(), "hbm2": dram.HBM2_2000()}
	for techName, tech := range techs {
		for _, channels := range []int{1, 4} {
			for _, c := range simtest.Cases() {
				tech, channels, c := tech, channels, c
				t.Run(fmt.Sprintf("%s/%dch/%s", techName, channels, c.Name), func(t *testing.T) {
					t.Parallel()
					sched, err := BuildSchedule(c.Dataflow, c.R, c.C, c.G, ScheduleOptions{})
					if err != nil {
						t.Fatal(err)
					}
					opts := Options{MaxRequestsPerCycle: 2, StreamWindowWords: 2048}
					est := Estimate(sched, tech, channels, opts)
					sys, err := dram.New(tech, dram.Options{Channels: channels, QueueDepth: 16})
					if err != nil {
						t.Fatal(err)
					}
					sim, err := Simulate(context.Background(), sched, sys, opts)
					if err != nil {
						t.Fatal(err)
					}
					if est.ComputeCycles != sim.ComputeCycles {
						t.Errorf("ComputeCycles: analytical %d, event %d", est.ComputeCycles, sim.ComputeCycles)
					}
					if est.ReadWords != sim.ReadWords || est.WriteWords != sim.WriteWords {
						t.Errorf("words: analytical %d/%d, event %d/%d",
							est.ReadWords, est.WriteWords, sim.ReadWords, sim.WriteWords)
					}
					if est.ReadRequests != sim.ReadRequests || est.WriteRequests != sim.WriteRequests {
						t.Errorf("requests: analytical %d/%d, event %d/%d",
							est.ReadRequests, est.WriteRequests, sim.ReadRequests, sim.WriteRequests)
					}
					if est.TotalCycles > sim.TotalCycles {
						t.Errorf("TotalCycles: analytical %d exceeds event %d — not a lower bound",
							est.TotalCycles, sim.TotalCycles)
					}
					if est.StallCycles > sim.StallCycles {
						t.Errorf("StallCycles: analytical %d exceeds event %d", est.StallCycles, sim.StallCycles)
					}
				})
			}
		}
	}
}

// TestEstimateBoundsSimulateRandomized fuzzes the bound with seeded random
// shapes, queue depths and request widths: whatever the replay tunables,
// the analytical cycle counts must stay at or below the event engine's.
func TestEstimateBoundsSimulateRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i, c := range simtest.RandomCases(23, 24) {
		qd := 1 + rng.Intn(16)
		mrc := 1 + rng.Intn(4)
		t.Run(fmt.Sprintf("%02d/%s", i, c.Name), func(t *testing.T) {
			sched, err := BuildSchedule(c.Dataflow, c.R, c.C, c.G, ScheduleOptions{})
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{MaxRequestsPerCycle: mrc, StreamWindowWords: 1024}
			est := Estimate(sched, dram.DDR4_2400(), 2, opts)
			sys, err := dram.New(dram.DDR4_2400(), dram.Options{Channels: 2, QueueDepth: qd})
			if err != nil {
				t.Fatal(err)
			}
			sim, err := Simulate(context.Background(), sched, sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			if est.TotalCycles > sim.TotalCycles {
				t.Errorf("TotalCycles: analytical %d exceeds event %d", est.TotalCycles, sim.TotalCycles)
			}
			if est.ReadWords != sim.ReadWords || est.WriteWords != sim.WriteWords {
				t.Errorf("words diverge: analytical %d/%d, event %d/%d",
					est.ReadWords, est.WriteWords, sim.ReadWords, sim.WriteWords)
			}
		})
	}
}
