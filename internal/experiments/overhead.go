package experiments

import (
	"context"
	"io"
	"time"

	"scalesim"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// Table4Params configures the simulation-time overhead study (paper
// Table IV): wall-clock cost of each v3 feature relative to the v2-style
// baseline run on a TPU-like configuration.
type Table4Params struct {
	Workloads []string
	Layers    int // per-workload cap (0 = all)
}

// DefaultTable4 matches the paper's workloads.
func DefaultTable4() Table4Params {
	return Table4Params{
		Workloads: []string{"alexnet", "resnet18", "vit_large", "vit_small"},
		Layers:    4,
	}
}

// QuickTable4 trims for benchmarking.
func QuickTable4() Table4Params {
	return Table4Params{Workloads: []string{"alexnet"}, Layers: 2}
}

// Table4Row is one workload's feature-overhead ratios (feature runtime /
// baseline runtime).
type Table4Row struct {
	Workload  string
	Baseline  time.Duration
	MultiCore float64
	Sparse24  float64
	Sparse14  float64
	Energy    float64
	Memory    float64
	Layout    float64
}

// RunTable4 measures each feature's wall time against the v2-style run.
func RunTable4(p Table4Params) ([]Table4Row, error) {
	var out []Table4Row
	for _, name := range p.Workloads {
		topo, err := topology.Builtin(name)
		if err != nil {
			return nil, err
		}
		if p.Layers > 0 {
			topo = topo.Sub(0, p.Layers)
		}

		base := scalesim.DefaultConfig()
		base.ArrayRows, base.ArrayCols = 64, 64
		// Give the memory feature a high-bandwidth interface so its
		// overhead measures simulation cost, not stall cycles.
		base.Memory.Channels = 4
		base.BandwidthWords = 64

		// Every run includes the cycle-accurate demand streaming that
		// SCALE-Sim v2 performs for its traces, so feature overheads are
		// measured against a realistic baseline.
		timeRun := func(cfg scalesim.Config, t *topology.Topology) (time.Duration, error) {
			start := time.Now()
			// Sequential so the ratios measure model cost, not pool width.
			_, err := scalesim.New(cfg).Run(context.Background(), t, scalesim.WithParallelism(1))
			if err != nil {
				return 0, err
			}
			for li := range t.Layers {
				m, n, k := t.Layers[li].GEMMDims()
				fs, err := systolic.NewFoldSchedule(cfg.Dataflow, cfg.ArrayRows, cfg.ArrayCols,
					systolic.Gemm{M: m, N: n, K: k})
				if err != nil {
					return 0, err
				}
				fs.Materialize(func(d *systolic.Demand) bool { return true })
			}
			return time.Since(start), nil
		}

		baseT, err := timeRun(base, topo)
		if err != nil {
			return nil, err
		}
		if baseT <= 0 {
			baseT = time.Microsecond
		}
		row := Table4Row{Workload: name, Baseline: baseT}

		mc := base
		mc.MultiCore.Enabled = true
		mc.MultiCore.PartitionRows, mc.MultiCore.PartitionCols = 2, 2
		if d, err := timeRun(mc, topo); err != nil {
			return nil, err
		} else {
			row.MultiCore = float64(d) / float64(baseT)
		}

		sp := base
		sp.Sparsity.Enabled = true
		if d, err := timeRun(sp, topo.WithSparsity(topology.Sparsity{N: 2, M: 4})); err != nil {
			return nil, err
		} else {
			row.Sparse24 = float64(d) / float64(baseT)
		}
		if d, err := timeRun(sp, topo.WithSparsity(topology.Sparsity{N: 1, M: 4})); err != nil {
			return nil, err
		} else {
			row.Sparse14 = float64(d) / float64(baseT)
		}

		en := base
		en.Energy.Enabled = true
		if d, err := timeRun(en, topo); err != nil {
			return nil, err
		} else {
			row.Energy = float64(d) / float64(baseT)
		}

		mem := base
		mem.Memory.Enabled = true
		if d, err := timeRun(mem, topo); err != nil {
			return nil, err
		} else {
			row.Memory = float64(d) / float64(baseT)
		}

		lay := base
		lay.Layout.Enabled = true
		if d, err := timeRun(lay, topo); err != nil {
			return nil, err
		} else {
			row.Layout = float64(d) / float64(baseT)
		}

		out = append(out, row)
	}
	return out, nil
}

// WriteTable4CSV renders the overhead ratios.
func WriteTable4CSV(w io.Writer, rows []Table4Row) error {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Workload,
			f64(r.Baseline.Seconds()),
			f64(r.MultiCore), f64(r.Sparse24), f64(r.Sparse14),
			f64(r.Energy), f64(r.Memory), f64(r.Layout)})
	}
	return writeCSV(w, []string{"workload", "baseline_s", "multicore_x",
		"sparsity24_x", "sparsity14_x", "accelergy_x", "ramulator_x", "layout_x"}, out)
}
