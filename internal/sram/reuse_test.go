package sram

import (
	"context"
	"testing"
	"testing/quick"

	"scalesim/internal/config"
	"scalesim/internal/systolic"
)

func TestReuseShrinksTraffic(t *testing.T) {
	g := systolic.Gemm{M: 256, N: 256, K: 256}
	for _, df := range config.Dataflows() {
		noReuse, err := BuildSchedule(df, 16, 16, g, ScheduleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		big := ScheduleOptions{
			IfmapSRAMWords:  1 << 22,
			FilterSRAMWords: 1 << 22,
			OfmapSRAMWords:  1 << 22,
		}
		withReuse, err := BuildSchedule(df, 16, 16, g, big)
		if err != nil {
			t.Fatal(err)
		}
		if withReuse.ReadWords() > noReuse.ReadWords() {
			t.Errorf("%v: reuse increased reads %d > %d", df, withReuse.ReadWords(), noReuse.ReadWords())
		}
		if withReuse.ReadWords() == noReuse.ReadWords() {
			t.Errorf("%v: infinite SRAM removed no re-fetches", df)
		}
		// With unlimited SRAM the traffic approaches compulsory misses.
		minReads := int64(g.M*g.K + g.K*g.N)
		if withReuse.ReadWords() < minReads {
			t.Errorf("%v: reads %d below compulsory %d", df, withReuse.ReadWords(), minReads)
		}
		if withReuse.WriteWords() < int64(g.M*g.N) {
			t.Errorf("%v: writes %d below output size", df, withReuse.WriteWords())
		}
	}
}

func TestReuseUnlimitedIsCompulsory(t *testing.T) {
	// With unlimited scratchpads, WS traffic must be exactly compulsory:
	// each operand once, output written once.
	g := systolic.Gemm{M: 100, N: 64, K: 200}
	big := ScheduleOptions{
		IfmapSRAMWords:  1 << 30,
		FilterSRAMWords: 1 << 30,
		OfmapSRAMWords:  1 << 30,
	}
	sched, err := BuildSchedule(config.WeightStationary, 16, 16, g, big)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(g.M*g.K + g.K*g.N); sched.ReadWords() != want {
		t.Errorf("reads %d, want compulsory %d", sched.ReadWords(), want)
	}
	if want := int64(g.M * g.N); sched.WriteWords() != want {
		t.Errorf("writes %d, want %d", sched.WriteWords(), want)
	}
}

func TestReuseMonotoneProperty(t *testing.T) {
	// Property: more SRAM never increases scheduled DRAM traffic.
	f := func(m8, n8, k8 uint8, small8 uint8) bool {
		g := systolic.Gemm{
			M: int(m8)%150 + 4, N: int(n8)%150 + 4, K: int(k8)%150 + 4,
		}
		small := int64(small8)*64 + 64
		for _, df := range config.Dataflows() {
			a, err := BuildSchedule(df, 8, 8, g, ScheduleOptions{
				IfmapSRAMWords: small, FilterSRAMWords: small, OfmapSRAMWords: small,
			})
			if err != nil {
				return false
			}
			b, err := BuildSchedule(df, 8, 8, g, ScheduleOptions{
				IfmapSRAMWords: small * 8, FilterSRAMWords: small * 8, OfmapSRAMWords: small * 8,
			})
			if err != nil {
				return false
			}
			if b.ReadWords() > a.ReadWords() || b.WriteWords() > a.WriteWords() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSimulateWithReuseFasterOrEqual(t *testing.T) {
	g := systolic.Gemm{M: 300, N: 128, K: 192}
	run := func(sramWords int64) int64 {
		sched, err := BuildSchedule(config.WeightStationary, 16, 16, g, ScheduleOptions{
			IfmapSRAMWords: sramWords, FilterSRAMWords: sramWords, OfmapSRAMWords: sramWords,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys := newDDR4(t, 1, 64)
		res, err := Simulate(context.Background(), sched, sys, Options{
			MaxRequestsPerCycle: 1, StreamWindowWords: sramWords / 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalCycles
	}
	smallCycles := run(4 * 1024)
	bigCycles := run(1 << 22)
	if bigCycles > smallCycles {
		t.Errorf("large SRAM (%d cycles) slower than small (%d cycles)", bigCycles, smallCycles)
	}
}

func TestWriteBackpressureBoundsProgress(t *testing.T) {
	// A tiny queue forces the paced WS writes to block the pipeline;
	// the run must still terminate and record queue-full pressure.
	g := systolic.Gemm{M: 400, N: 64, K: 64}
	sched, err := BuildSchedule(config.WeightStationary, 16, 16, g, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys := newDDR4(t, 1, 4)
	res, err := Simulate(context.Background(), sched, sys, Options{MaxRequestsPerCycle: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueFullCyc == 0 {
		t.Error("tiny queue produced no queue-full pressure")
	}
	if res.DRAM.Writes == 0 {
		t.Error("no writes completed")
	}
}

func TestScheduleSparseReducesFilterTraffic(t *testing.T) {
	g := systolic.Gemm{M: 64, N: 64, K: 256}
	dense, err := BuildSchedule(config.WeightStationary, 16, 16, g, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := BuildSchedule(config.WeightStationary, 16, 16, g, ScheduleOptions{FilterRatio: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if sp.TotalCycles() >= dense.TotalCycles() {
		t.Errorf("sparse compute %d not below dense %d", sp.TotalCycles(), dense.TotalCycles())
	}
	if sp.ReadWords() >= dense.ReadWords() {
		t.Errorf("sparse reads %d not below dense %d", sp.ReadWords(), dense.ReadWords())
	}
}
