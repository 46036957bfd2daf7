package sram

import "scalesim/internal/dram"

// Closed-form (Analytical-tier) counterpart of Simulate: the same
// Schedule, answered with arithmetic instead of replay. Traffic volumes
// and request counts are exact — they are properties of the schedule, not
// of controller timing — and the cycle counts are a proven lower bound on
// what Simulate reports for the same schedule (see the differential tests
// in estimate_test.go and the facade's fidelity suite).

// LineCount returns the number of line-sized transactions covering the
// span — len(Span.Lines(...)) without materializing the addresses, in
// O(Rows) instead of O(lines).
func (s Span) LineCount(wordBytes, lineBytes int64) int64 {
	if wordBytes <= 0 {
		wordBytes = 4
	}
	if lineBytes <= 0 {
		lineBytes = 64
	}
	var n int64
	var prev int64 = -1
	first := true
	for r := int64(0); r < s.Rows; r++ {
		if s.RowWords <= 0 {
			continue // empty row: Lines() appends nothing, prev unchanged
		}
		lo := (s.Base + r*s.RowStride) * wordBytes / lineBytes
		hi := ((s.Base+r*s.RowStride+s.RowWords)*wordBytes - 1) / lineBytes
		cnt := hi - lo + 1
		// Lines() compares each line against the immediately preceding
		// appended one, so across a row boundary only the new row's FIRST
		// line can be skipped (once lo is appended, prev tracks the new
		// row). Overlapping rows re-emit their interior lines; mirror that.
		if !first && prev == lo {
			cnt--
		}
		n += cnt
		prev = hi
		first = false
	}
	return n
}

// Estimate computes the Analytical-tier memory result for a schedule:
// ComputeCycles straight from the fold structure, exact read/write word
// and line counts, and TotalCycles as the larger of the compute time and
// the read-service bound (MinServiceCycles over the schedule's read
// lines). The result's StallCycles therefore never exceeds the
// event-driven engine's for the same schedule — Analytical screens
// optimistically, it never overstates a design.
//
// Only Options.WordBytes and Options.LineBytes are consulted; the replay
// tunables (queues, windows, tick mode) have no closed-form meaning.
func Estimate(sched *Schedule, tech dram.Tech, channels int, opts Options) *Result {
	opts.defaults()
	wb, lb := int64(opts.WordBytes), int64(opts.LineBytes)
	res := &Result{ComputeCycles: sched.TotalCycles()}
	var readLines, writeLines int64
	var f Fold
	for i := 0; i < sched.NumFolds(); i++ {
		sched.Fold(i, &f)
		res.ReadWords += f.StationaryWords() + f.StreamWords()
		res.WriteWords += f.WriteWords()
		for _, sp := range f.Stationary {
			readLines += sp.LineCount(wb, lb)
		}
		for _, sp := range f.Stream {
			readLines += sp.LineCount(wb, lb)
		}
		for _, sp := range f.Writes {
			writeLines += sp.LineCount(wb, lb)
		}
	}
	res.ReadRequests, res.WriteRequests = readLines, writeLines
	res.TotalCycles = res.ComputeCycles
	if bound := dram.MinServiceCycles(tech, channels, readLines); bound > res.TotalCycles {
		res.TotalCycles = bound
	}
	res.StallCycles = res.TotalCycles - res.ComputeCycles
	// Bandwidth over the modeled interval at the memory clock, mirroring
	// Simulate's definition with the bound standing in for wall cycles.
	bytes := float64(readLines+writeLines) * float64(tech.BurstBytes())
	if secs := float64(res.TotalCycles) / (tech.ClockMHz * 1e6); secs > 0 {
		res.ThroughputMBps = bytes / secs / 1e6
	}
	return res
}
