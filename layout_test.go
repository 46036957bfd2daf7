package scalesim_test

import (
	"context"
	"testing"

	"scalesim"
	"scalesim/internal/config"
	"scalesim/internal/layout"
	"scalesim/internal/systolic"
)

// oracleLayoutSlowdown replays a GEMM's per-cycle demand stream through
// the bank-conflict analyzers, storing each operand in the dataflow's
// stream-natural order: the per-cycle oracle the layout stage's closed
// form is proven against.
func oracleLayoutSlowdown(t *testing.T, lc config.LayoutConfig, df config.Dataflow, r, c int, g systolic.Gemm) float64 {
	t.Helper()
	var an [3]*layout.Analyzer
	for i := range an {
		a, err := layout.NewAnalyzer(layout.Config{
			Banks: lc.Banks, PortsPerBank: lc.PortsPerBank, TotalBandwidth: lc.OnChipBandwidth,
		})
		if err != nil {
			t.Fatal(err)
		}
		an[i] = a
	}
	ifmapT, filterT, ofmapT := layout.NaturalTransforms(df, g.M, g.N, g.K)
	var ifBuf, flBuf, ofBuf []int64
	err := systolic.Stream(df, r, c, g, func(d *systolic.Demand) bool {
		ifBuf = layout.ApplyTransform(ifBuf[:0], d.IfmapReads, systolic.IfmapBase, ifmapT)
		flBuf = layout.ApplyTransform(flBuf[:0], d.FilterReads, systolic.FilterBase, filterT)
		ofBuf = layout.ApplyTransform(ofBuf[:0], d.OfmapWrites, systolic.OfmapBase, ofmapT)
		an[0].Observe(ifBuf)
		an[1].Observe(flBuf)
		an[2].Observe(ofBuf)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return layout.CombinedSlowdown(an[:]...)
}

// TestDifferentialSparseLayoutSlowdown pins the layout stage's handling of
// N:M-sparse layers: at both fidelity tiers, every layer's slowdown equals
// the per-cycle oracle replay of the layer's dense GEMM under the
// weight-stationary dataflow the compute stage fixes for sparse runs. The
// odd layer dims and narrow banked memories make most slowdowns nonzero.
func TestDifferentialSparseLayoutSlowdown(t *testing.T) {
	topo := &scalesim.Topology{Name: "mix", Layers: []scalesim.Layer{
		{Name: "c1", Kind: scalesim.Conv, IfmapH: 10, IfmapW: 10, FilterH: 3, FilterW: 3,
			Channels: 7, NumFilters: 25, Stride: 1},
		{Name: "c2", Kind: scalesim.Conv, IfmapH: 9, IfmapW: 7, FilterH: 1, FilterW: 1,
			Channels: 21, NumFilters: 33, Stride: 2},
		{Name: "g1", Kind: scalesim.GEMM, M: 64, N: 25, K: 75},
		{Name: "g2", Kind: scalesim.GEMM, M: 17, N: 33, K: 12},
	}}
	ctx := context.Background()
	nonzero := 0
	for _, arr := range [][2]int{{8, 8}, {8, 16}, {16, 4}} {
		cfg := scalesim.DefaultConfig()
		cfg.ArrayRows, cfg.ArrayCols = arr[0], arr[1]
		cfg.Dataflow = scalesim.OutputStationary // sparse runs override it
		cfg.Sparsity.Enabled = true
		cfg.Layout.Enabled = true
		for _, mem := range [][3]int{{2, 1, 8}, {1, 1, 4}} {
			cfg.Layout.Banks, cfg.Layout.PortsPerBank, cfg.Layout.OnChipBandwidth = mem[0], mem[1], mem[2]
			checkSparseLayout(t, ctx, cfg, topo, &nonzero)
		}
	}
	if nonzero == 0 {
		t.Fatal("every layout slowdown was zero; the comparison shows nothing")

	}
}

func checkSparseLayout(t *testing.T, ctx context.Context, cfg scalesim.Config, topo *scalesim.Topology, nonzero *int) {
	t.Helper()
	for _, sp := range []scalesim.Sparsity{{N: 2, M: 4}, {N: 1, M: 4}} {
		for _, fid := range []scalesim.Fidelity{scalesim.Analytical, scalesim.EventDriven} {
			res, err := scalesim.New(cfg).Run(ctx, topo.WithSparsity(sp), scalesim.WithFidelity(fid))
			if err != nil {
				t.Fatalf("%dx%d %+v %s %v: %v", cfg.ArrayRows, cfg.ArrayCols, cfg.Layout, sp, fid, err)
			}
			for i := range res.Layers {
				lr := &res.Layers[i]
				want := oracleLayoutSlowdown(t, cfg.Layout, config.WeightStationary,
					cfg.ArrayRows, cfg.ArrayCols, systolic.Gemm{M: lr.M, N: lr.N, K: lr.K})
				if lr.LayoutSlowdown != want {
					t.Errorf("%dx%d %+v %s %v layer %s: slowdown %v, oracle replay %v",
						cfg.ArrayRows, cfg.ArrayCols, cfg.Layout, sp, fid, lr.Layer.Name, lr.LayoutSlowdown, want)
				}
				if want != 0 {
					*nonzero++
				}
			}
		}
	}
}
