package experiments

import (
	"context"
	"io"

	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/sram"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// runLayerMemory replays one layer against a fresh DRAM system.
func runLayerMemory(df config.Dataflow, r, c int, l *topology.Layer,
	channels, queue, maxReq int, windowWords int64) (*sram.Result, error) {
	m, n, k := l.GEMMDims()
	// The stream window is half the ifmap scratchpad; size the reuse
	// analysis consistently across the three scratchpads.
	schedOpts := sram.ScheduleOptions{
		IfmapSRAMWords:  windowWords * 2,
		FilterSRAMWords: windowWords * 2,
		OfmapSRAMWords:  windowWords * 2,
	}
	sched, err := sram.BuildSchedule(df, r, c, systolic.Gemm{M: m, N: n, K: k}, schedOpts)
	if err != nil {
		return nil, err
	}
	sys, err := dram.New(dram.DDR4_2400(), dram.Options{
		Channels: channels, QueueDepth: queue,
	})
	if err != nil {
		return nil, err
	}
	return sram.Simulate(context.TODO(), sched, sys, sram.Options{
		MaxRequestsPerCycle: maxReq,
		StreamWindowWords:   windowWords,
	})
}

// Fig9Params configures the DRAM-channel study (paper Fig. 9): per-layer
// memory throughput of ResNet-18 on a TPU-like core as the DDR4 channel
// count sweeps 1–8.
type Fig9Params struct {
	Channels  []int
	Layers    int // 0 = all ResNet-18 layers
	ArrayRows int
	ArrayCols int
	Queue     int
}

// DefaultFig9 matches the paper's setup.
func DefaultFig9() Fig9Params {
	return Fig9Params{
		Channels:  []int{1, 2, 4, 8},
		Layers:    0,
		ArrayRows: 128, ArrayCols: 128,
		Queue: 128,
	}
}

// QuickFig9 trims layers and channels for benchmarking.
func QuickFig9() Fig9Params {
	p := DefaultFig9()
	p.Channels = []int{1, 4}
	p.Layers = 3
	p.ArrayRows, p.ArrayCols = 32, 32
	return p
}

// Fig9Point is one layer × channel-count measurement.
type Fig9Point struct {
	LayerName      string
	Channels       int
	ThroughputMBps float64
	TotalCycles    int64
}

// RunFig9 executes the sweep (weight-stationary, the TPU dataflow).
func RunFig9(p Fig9Params) ([]Fig9Point, error) {
	topo := topology.ResNet18()
	if p.Layers > 0 {
		topo = topo.Sub(0, p.Layers)
	}
	var out []Fig9Point
	for _, ch := range p.Channels {
		for li := range topo.Layers {
			l := &topo.Layers[li]
			res, err := runLayerMemory(config.WeightStationary,
				p.ArrayRows, p.ArrayCols, l, ch, p.Queue, ch, 1<<18)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig9Point{
				LayerName:      l.Name,
				Channels:       ch,
				ThroughputMBps: res.ThroughputMBps,
				TotalCycles:    res.TotalCycles,
			})
		}
	}
	return out, nil
}

// WriteFig9CSV renders the per-layer throughput series.
func WriteFig9CSV(w io.Writer, pts []Fig9Point) error {
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{p.LayerName, itoa(p.Channels),
			f64(p.ThroughputMBps), i64(p.TotalCycles)})
	}
	return writeCSV(w, []string{"layer", "channels", "throughput_MBps", "total_cycles"}, rows)
}

// Fig10Params configures the request-queue study (paper Fig. 10): stall
// fraction and total cycles for several workloads at total request-queue
// capacities of 32, 128 and 512 entries shared across the DRAM channels
// (small per-channel queues throttle both the outstanding requests and the
// controller's row-hit reordering).
type Fig10Params struct {
	Queues    []int
	Workloads []string // builtin topology names
	Layers    int      // per-workload layer cap (0 = all)
	ArrayRows int
	ArrayCols int
	Channels  int
	MaxReq    int // interface line requests per cycle
}

// DefaultFig10 matches the paper's three queue depths across several
// models on a multi-channel TPU-like memory system.
func DefaultFig10() Fig10Params {
	return Fig10Params{
		Queues:    []int{32, 128, 512},
		Workloads: []string{"alexnet", "resnet18", "vit_small"},
		Layers:    6,
		ArrayRows: 64, ArrayCols: 64,
		Channels: 8,
		MaxReq:   8,
	}
}

// QuickFig10 trims for benchmarking.
func QuickFig10() Fig10Params {
	p := DefaultFig10()
	p.Queues = []int{32, 512}
	p.Workloads = []string{"alexnet"}
	p.Layers = 2
	p.ArrayRows, p.ArrayCols = 32, 32
	return p
}

// Fig10Point is one workload × queue-depth measurement.
type Fig10Point struct {
	Workload      string
	Queue         int
	ComputeCycles int64
	StallCycles   int64
	TotalCycles   int64
	StallFraction float64
}

// RunFig10 executes the sweep.
func RunFig10(p Fig10Params) ([]Fig10Point, error) {
	var out []Fig10Point
	for _, name := range p.Workloads {
		topo, err := topology.Builtin(name)
		if err != nil {
			return nil, err
		}
		if p.Layers > 0 {
			topo = topo.Sub(0, p.Layers)
		}
		for _, q := range p.Queues {
			var compute, stalls int64
			channels := p.Channels
			if channels <= 0 {
				channels = 1
			}
			maxReq := p.MaxReq
			if maxReq <= 0 {
				maxReq = 1
			}
			perChannel := q / channels
			if perChannel < 1 {
				perChannel = 1
			}
			for li := range topo.Layers {
				res, err := runLayerMemory(config.WeightStationary,
					p.ArrayRows, p.ArrayCols, &topo.Layers[li], channels, perChannel, maxReq, 1<<16)
				if err != nil {
					return nil, err
				}
				compute += res.ComputeCycles
				stalls += res.StallCycles
			}
			total := compute + stalls
			pt := Fig10Point{Workload: name, Queue: q,
				ComputeCycles: compute, StallCycles: stalls, TotalCycles: total}
			if total > 0 {
				pt.StallFraction = float64(stalls) / float64(total)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// WriteFig10CSV renders the stall study.
func WriteFig10CSV(w io.Writer, pts []Fig10Point) error {
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{p.Workload, itoa(p.Queue),
			i64(p.ComputeCycles), i64(p.StallCycles), i64(p.TotalCycles),
			f64(p.StallFraction)})
	}
	return writeCSV(w, []string{"workload", "queue", "compute_cycles",
		"stall_cycles", "total_cycles", "stall_fraction"}, rows)
}

// DataflowDRAMParams configures the §IX-B case study: WS vs OS on six
// ResNet-18 layers, with and without DRAM stalls.
type DataflowDRAMParams struct {
	Layers    int
	ArrayRows int
	ArrayCols int
	Queue     int
	Channels  int
}

// DefaultDataflowDRAM matches the paper: six ResNet-18 layers.
func DefaultDataflowDRAM() DataflowDRAMParams {
	return DataflowDRAMParams{Layers: 6, ArrayRows: 32, ArrayCols: 32, Queue: 32, Channels: 1}
}

// QuickDataflowDRAM trims for benchmarking.
func QuickDataflowDRAM() DataflowDRAMParams {
	return DataflowDRAMParams{Layers: 2, ArrayRows: 32, ArrayCols: 32, Queue: 32, Channels: 1}
}

// DataflowDRAMResult compares WS and OS with and without memory stalls.
type DataflowDRAMResult struct {
	WSCompute, OSCompute int64
	WSTotal, OSTotal     int64
}

// ComputeAdvantageWS is (OS − WS)/OS on compute-only cycles (positive when
// WS wins, the v2 view).
func (r *DataflowDRAMResult) ComputeAdvantageWS() float64 {
	if r.OSCompute == 0 {
		return 0
	}
	return float64(r.OSCompute-r.WSCompute) / float64(r.OSCompute)
}

// TotalAdvantageOS is (WS − OS)/WS on stall-inclusive cycles (positive when
// OS wins, the v3 view).
func (r *DataflowDRAMResult) TotalAdvantageOS() float64 {
	if r.WSTotal == 0 {
		return 0
	}
	return float64(r.WSTotal-r.OSTotal) / float64(r.WSTotal)
}

// RunDataflowDRAM executes the case study.
func RunDataflowDRAM(p DataflowDRAMParams) (*DataflowDRAMResult, error) {
	topo := topology.ResNet18().Sub(1, 1+p.Layers) // the residual 3×3 stack
	res := &DataflowDRAMResult{}
	for li := range topo.Layers {
		l := &topo.Layers[li]
		ws, err := runLayerMemory(config.WeightStationary, p.ArrayRows, p.ArrayCols,
			l, p.Channels, p.Queue, 1, 1<<14)
		if err != nil {
			return nil, err
		}
		os, err := runLayerMemory(config.OutputStationary, p.ArrayRows, p.ArrayCols,
			l, p.Channels, p.Queue, 1, 1<<14)
		if err != nil {
			return nil, err
		}
		res.WSCompute += ws.ComputeCycles
		res.OSCompute += os.ComputeCycles
		res.WSTotal += ws.TotalCycles
		res.OSTotal += os.TotalCycles
	}
	return res, nil
}

// WriteDataflowDRAMCSV renders the comparison.
func WriteDataflowDRAMCSV(w io.Writer, r *DataflowDRAMResult) error {
	rows := [][]string{
		{"ws", i64(r.WSCompute), i64(r.WSTotal)},
		{"os", i64(r.OSCompute), i64(r.OSTotal)},
	}
	return writeCSV(w, []string{"dataflow", "compute_cycles", "total_cycles"}, rows)
}
