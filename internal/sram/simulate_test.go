package sram

import (
	"context"
	"errors"
	"testing"
	"time"

	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/systolic"
)

func newDDR4(t *testing.T, channels, queue int) *dram.System {
	t.Helper()
	sys, err := dram.New(dram.DDR4_2400(), dram.Options{
		Channels: channels, QueueDepth: queue, DisableRefresh: true,
	})
	if err != nil {
		t.Fatalf("dram.New: %v", err)
	}
	return sys
}

func TestBuildScheduleVolumes(t *testing.T) {
	g := systolic.Gemm{M: 100, N: 60, K: 80}
	for _, df := range config.Dataflows() {
		sched, err := BuildSchedule(df, 16, 16, g, ScheduleOptions{})
		if err != nil {
			t.Fatalf("%v: %v", df, err)
		}
		est := systolic.Estimate(df, 16, 16, g.M, g.N, g.K)
		if got := sched.TotalCycles(); got != est.ComputeCycles {
			t.Errorf("%v: schedule cycles %d != estimate %d", df, got, est.ComputeCycles)
		}
		// Reads must cover at least one copy of each input operand and
		// writes at least one copy of the output.
		minReads := int64(g.M * g.K) // ifmap appears at least once
		if sched.ReadWords() < minReads {
			t.Errorf("%v: read words %d < %d", df, sched.ReadWords(), minReads)
		}
		if w := sched.WriteWords(); w < int64(g.M*g.N) {
			t.Errorf("%v: write words %d < output size %d", df, w, g.M*g.N)
		}
	}
}

func TestSpanLines(t *testing.T) {
	// 16-word rows at stride 100: each row covers one line when aligned
	// (row 0) and straddles two lines when not, so 4 rows need 4–8 lines.
	sp := Span{Base: 0, Rows: 4, RowWords: 16, RowStride: 100}
	lines := sp.Lines(nil, 4, 64)
	if len(lines) < 4 || len(lines) > 8 {
		t.Fatalf("got %d lines, want between 4 and 8", len(lines))
	}
	// Aligned rows: exactly one line each.
	sp = Span{Base: 0, Rows: 4, RowWords: 16, RowStride: 128}
	if lines = sp.Lines(nil, 4, 64); len(lines) != 4 {
		t.Fatalf("aligned: got %d lines, want 4", len(lines))
	}
	// Contiguous span: 64 words × 4B = 256 B = 4 lines.
	sp = Span{Base: 0, Rows: 1, RowWords: 64, RowStride: 64}
	lines = sp.Lines(nil, 4, 64)
	if len(lines) != 4 {
		t.Fatalf("contiguous: got %d lines, want 4", len(lines))
	}
}

func TestSimulateTerminatesAndStalls(t *testing.T) {
	g := systolic.Gemm{M: 200, N: 64, K: 96}
	sched, err := BuildSchedule(config.WeightStationary, 16, 16, g, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys := newDDR4(t, 1, 32)
	res, err := Simulate(context.Background(), sched, sys, Options{MaxRequestsPerCycle: 1, StreamWindowWords: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles < res.ComputeCycles {
		t.Errorf("total %d < compute %d", res.TotalCycles, res.ComputeCycles)
	}
	if res.DRAM.Reads == 0 || res.DRAM.Writes == 0 {
		t.Errorf("no DRAM traffic recorded: %+v", res.DRAM)
	}
	if res.ReadWords < int64(g.M*g.K) {
		t.Errorf("read words %d too small", res.ReadWords)
	}
}

func TestSimulateLargerQueueNoSlower(t *testing.T) {
	g := systolic.Gemm{M: 300, N: 96, K: 128}
	var prev int64 = 1 << 62
	for _, q := range []int{8, 64, 256} {
		sched, err := BuildSchedule(config.OutputStationary, 16, 16, g, ScheduleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sys := newDDR4(t, 2, q)
		res, err := Simulate(context.Background(), sched, sys, Options{MaxRequestsPerCycle: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Allow small non-monotonic noise from scheduling artifacts.
		if res.TotalCycles > prev+prev/10 {
			t.Errorf("queue %d: cycles %d much worse than smaller queue (%d)", q, res.TotalCycles, prev)
		}
		prev = res.TotalCycles
	}
}

func TestSimulateMoreChannelsMoreThroughput(t *testing.T) {
	g := systolic.Gemm{M: 400, N: 128, K: 256}
	var prev float64
	for _, ch := range []int{1, 4} {
		sched, err := BuildSchedule(config.WeightStationary, 32, 32, g, ScheduleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sys := newDDR4(t, ch, 128)
		res, err := Simulate(context.Background(), sched, sys, Options{MaxRequestsPerCycle: 4})
		if err != nil {
			t.Fatal(err)
		}
		if ch > 1 && res.ThroughputMBps < prev {
			t.Errorf("channels %d: throughput %.1f < single-channel %.1f", ch, res.ThroughputMBps, prev)
		}
		prev = res.ThroughputMBps
	}
}

// TestSimulateCanceledBeforeFirstRequest: a context that is already
// cancelled ends the replay with ctx.Err() before any request reaches the
// memory system.
func TestSimulateCanceledBeforeFirstRequest(t *testing.T) {
	sched, err := BuildSchedule(config.WeightStationary, 16, 16,
		systolic.Gemm{M: 64, N: 64, K: 64}, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys := newDDR4(t, 1, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Simulate(ctx, sched, sys, Options{})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if st := sys.Stats(); sys.Now() != 0 || sys.Pending() != 0 || st.Reads+st.Writes != 0 {
		t.Errorf("memory system touched: now %d, pending %d, stats %+v", sys.Now(), sys.Pending(), st)
	}
}

// TestSimulateDeadlineInterruptsReplay: a deadline that expires while the
// replay runs stops it at the next fold boundary, well before the replay
// would have finished.
func TestSimulateDeadlineInterruptsReplay(t *testing.T) {
	run := func(ctx context.Context) (time.Duration, error) {
		sched, err := BuildSchedule(config.WeightStationary, 16, 16,
			systolic.Gemm{M: 512, N: 256, K: 512}, ScheduleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err = Simulate(ctx, sched, newDDR4(t, 1, 32), Options{MaxRequestsPerCycle: 1})
		return time.Since(start), err
	}
	full, err := run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), full/20)
	defer cancel()
	took, err := run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took > full/2 {
		t.Errorf("deadline of %v stopped the replay after %v; the full replay takes %v", full/20, took, full)
	}
	t.Logf("full replay %v, stopped after %v", full, took)
}
