package systolic

import (
	"fmt"
	"sync"

	"scalesim/internal/config"
	"scalesim/internal/topology"
)

// Operand address-space bases (word addresses), following the SCALE-Sim
// convention of disjoint regions per operand. The ifmap and filter regions
// are topology.MaxOperandWords long, which Layer.Validate enforces, so
// operands never alias.
const (
	IfmapBase  int64 = 0
	FilterBase int64 = topology.MaxOperandWords
	OfmapBase  int64 = 2 * topology.MaxOperandWords
)

// Demand is the set of scratchpad accesses issued in one array cycle.
// Slices are reused between callbacks; consumers must copy what they keep.
type Demand struct {
	Cycle       int64
	IfmapReads  []int64
	FilterReads []int64
	OfmapWrites []int64
	OfmapReads  []int64 // partial-sum read-backs
}

func (d *Demand) reset(cycle int64) {
	d.Cycle = cycle
	d.IfmapReads = d.IfmapReads[:0]
	d.FilterReads = d.FilterReads[:0]
	d.OfmapWrites = d.OfmapWrites[:0]
	d.OfmapReads = d.OfmapReads[:0]
}

// Total returns the number of accesses in the cycle.
func (d *Demand) Total() int {
	return len(d.IfmapReads) + len(d.FilterReads) + len(d.OfmapWrites) + len(d.OfmapReads)
}

// DemandFunc consumes one cycle of demand. Returning false stops streaming.
type DemandFunc func(*Demand) bool

// demandPool recycles Demand structs (and their grown backing slices)
// across Materialize and Stream calls, so per-cycle consumers — the SRAM
// trace writer, the Table IV baseline, the differential tests — do not
// churn the GC. Safe because the Demand contract already forbids consumers
// from retaining the slices.
var demandPool = sync.Pool{New: func() any { return new(Demand) }}

// Gemm describes the GEMM being streamed.
type Gemm struct {
	M, N, K int
}

// Stream generates the cycle-accurate demand trace of the GEMM on an R×C
// array under the dataflow, invoking fn once per cycle that has at least one
// access. Cycles advance fold by fold; the stream's last cycle is exactly
// Estimate(...).ComputeCycles − 1.
//
// Stream is the differential-test oracle and has no production caller:
// production code walks FoldSchedule (Materialize for per-cycle demand),
// which the differential tests hold emission-identical to it.
//
// Within each fold of length 2R+C+T−2:
//
//	cycles [0, R):          stationary-operand fill, one tile row per cycle
//	cycles [R, R+T):        streaming reads (skewless edge feed)
//	cycles [R+T, fold end): pipeline drain; outputs of OS folds emit here
//
// For WS/IS, outputs stream out one tile-column batch per cycle during the
// streaming phase, offset by the array fill latency.
func Stream(df config.Dataflow, r, c int, g Gemm, fn DemandFunc) error {
	if r <= 0 || c <= 0 {
		return fmt.Errorf("systolic: non-positive array %dx%d", r, c)
	}
	if g.M <= 0 || g.N <= 0 || g.K <= 0 {
		return fmt.Errorf("systolic: non-positive GEMM %+v", g)
	}
	mp := MappingFor(df, g.M, g.N, g.K)
	fr := CeilDiv(mp.Sr, r)
	fc := CeilDiv(mp.Sc, c)
	perFold := FoldCycles(r, c, mp.T)

	d := demandPool.Get().(*Demand)
	defer demandPool.Put(d)
	base := int64(0)
	for i := 0; i < fr; i++ {
		tileR := min(r, mp.Sr-i*r)
		for j := 0; j < fc; j++ {
			tileC := min(c, mp.Sc-j*c)
			if !streamFold(df, r, c, g, i, j, tileR, tileC, mp.T, base, perFold, d, fn) {
				return nil
			}
			base += perFold
		}
	}
	return nil
}

// streamFold emits one fold. Returns false if the consumer stopped.
func streamFold(df config.Dataflow, r, c int, g Gemm, fr, fc, tileR, tileC, t int,
	base, perFold int64, d *Demand, fn DemandFunc) bool {

	rowOff := fr * r // offset along Sr
	colOff := fc * c // offset along Sc

	emit := func() bool {
		if d.Total() == 0 {
			return true
		}
		return fn(d)
	}

	// Phase 1: stationary fill, cycles base .. base+R-1 (row i fills at
	// base+i). OS has no stationary operand to read.
	if df != config.OutputStationary {
		for i := 0; i < tileR; i++ {
			d.reset(base + int64(i))
			for j := 0; j < tileC; j++ {
				switch df {
				case config.WeightStationary:
					// B[k=rowOff+i, n=colOff+j]
					d.FilterReads = append(d.FilterReads,
						FilterBase+int64(rowOff+i)*int64(g.N)+int64(colOff+j))
				case config.InputStationary:
					// A[m=colOff+j, k=rowOff+i]
					d.IfmapReads = append(d.IfmapReads,
						IfmapBase+int64(colOff+j)*int64(g.K)+int64(rowOff+i))
				}
			}
			if !emit() {
				return false
			}
		}
	}

	// Phase 2: streaming, cycles base+R .. base+R+T-1, plus output drain.
	streamBase := base + int64(r)
	// Outputs of WS/IS exit the column bottoms after the psums traverse
	// the full array depth (unused rows still forward), skewed across the
	// columns. We emit them drainLat cycles after their feeding stream
	// cycle, clamped inside the fold; the final batch lands exactly on
	// the fold's last cycle, matching the closed-form 2R+C+T−2.
	drainLat := int64(r + c - 1)
	for step := 0; step < t; step++ {
		cycle := streamBase + int64(step)
		d.reset(cycle)
		switch df {
		case config.OutputStationary:
			// Row r streams A[m=rowOff+r, k=step]; col c streams
			// B[k=step, n=colOff+c].
			for i := 0; i < tileR; i++ {
				d.IfmapReads = append(d.IfmapReads,
					IfmapBase+int64(rowOff+i)*int64(g.K)+int64(step))
			}
			for j := 0; j < tileC; j++ {
				d.FilterReads = append(d.FilterReads,
					FilterBase+int64(step)*int64(g.N)+int64(colOff+j))
			}
		case config.WeightStationary:
			// Row k streams A[m=step, k=rowOff+i].
			for i := 0; i < tileR; i++ {
				d.IfmapReads = append(d.IfmapReads,
					IfmapBase+int64(step)*int64(g.K)+int64(rowOff+i))
			}
		case config.InputStationary:
			// Row k streams B[k=rowOff+i, n=step].
			for i := 0; i < tileR; i++ {
				d.FilterReads = append(d.FilterReads,
					FilterBase+int64(rowOff+i)*int64(g.N)+int64(step))
			}
		}
		if !emit() {
			return false
		}

		// Output emission for WS/IS: the results fed by stream step
		// exit at step+drainLat; interleave here so cycles stay ordered
		// when drainLat keeps them within the fold.
		if df != config.OutputStationary {
			outCycle := streamBase + int64(step) + drainLat
			if outCycle > base+perFold-1 {
				outCycle = base + perFold - 1
			}
			d.reset(outCycle)
			for j := 0; j < tileC; j++ {
				var addr int64
				if df == config.WeightStationary {
					// O[m=step, n=colOff+j]
					addr = OfmapBase + int64(step)*int64(g.N) + int64(colOff+j)
				} else {
					// O[m=colOff+j, n=step]
					addr = OfmapBase + int64(colOff+j)*int64(g.N) + int64(step)
				}
				d.OfmapWrites = append(d.OfmapWrites, addr)
				if fr > 0 { // partial-sum read-back for non-first K folds
					d.OfmapReads = append(d.OfmapReads, addr)
				}
			}
			if !emit() {
				return false
			}
		}
	}

	// Phase 3: OS drains the output tile during the last tileR cycles.
	if df == config.OutputStationary {
		drainStart := base + perFold - int64(tileR)
		for i := 0; i < tileR; i++ {
			d.reset(drainStart + int64(i))
			for j := 0; j < tileC; j++ {
				d.OfmapWrites = append(d.OfmapWrites,
					OfmapBase+int64(rowOff+i)*int64(g.N)+int64(colOff+j))
			}
			if !emit() {
				return false
			}
		}
	}
	return true
}

// StreamStats accumulates aggregate statistics from a demand stream.
type StreamStats struct {
	Cycles       int64 // last demanded cycle + 1
	IfmapReads   int64
	FilterReads  int64
	OfmapWrites  int64
	OfmapReads   int64
	PeakPerCycle int
}

// CollectStats runs Stream and tallies the demand volume. It is the
// oracle for FoldSchedule.Stats and has no production caller.
func CollectStats(df config.Dataflow, r, c int, g Gemm) (StreamStats, error) {
	var st StreamStats
	err := Stream(df, r, c, g, func(d *Demand) bool {
		if d.Cycle+1 > st.Cycles {
			st.Cycles = d.Cycle + 1
		}
		st.IfmapReads += int64(len(d.IfmapReads))
		st.FilterReads += int64(len(d.FilterReads))
		st.OfmapWrites += int64(len(d.OfmapWrites))
		st.OfmapReads += int64(len(d.OfmapReads))
		if d.Total() > st.PeakPerCycle {
			st.PeakPerCycle = d.Total()
		}
		return true
	})
	return st, err
}
