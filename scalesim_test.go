package scalesim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"scalesim/internal/config"
)

func TestRunDenseDefault(t *testing.T) {
	cfg := DefaultConfig()
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != len(topo.Layers) {
		t.Fatalf("got %d layer results, want %d", len(res.Layers), len(topo.Layers))
	}
	for i, l := range res.Layers {
		if l.ComputeCycles <= 0 {
			t.Errorf("layer %d: non-positive compute cycles %d", i, l.ComputeCycles)
		}
		if l.Utilization <= 0 || l.Utilization > 1 {
			t.Errorf("layer %d: utilization %f out of (0,1]", i, l.Utilization)
		}
	}
}

func TestRunWithEnergy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Energy.Enabled = true
	topo, err := BuiltinTopology("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.TotalEnergyMJ(); e <= 0 {
		t.Fatalf("total energy %f not positive", e)
	}
	if res.EdP() <= 0 {
		t.Fatal("EdP not positive")
	}
}

func TestRunSparse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sparsity.Enabled = true
	cfg.Sparsity.Format = config.BlockedELLPACK
	topo, err := BuiltinTopology("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	dense, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	sp := topo.WithSparsity(Sparsity{N: 1, M: 4})
	spRes, err := New(cfg).Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if spRes.TotalCycles() >= dense.TotalCycles() {
		t.Errorf("1:4 sparse cycles %d not below dense %d",
			spRes.TotalCycles(), dense.TotalCycles())
	}
	found := false
	for i := range spRes.Layers {
		if s := spRes.Layers[i].Sparse; s != nil {
			found = true
			if s.CompressedFilterWords >= s.OriginalFilterWords {
				t.Errorf("layer %d: compressed %d >= original %d",
					i, s.CompressedFilterWords, s.OriginalFilterWords)
			}
		}
	}
	if !found {
		t.Error("no sparse report rows produced")
	}
}

func TestRunWithMemoryModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Memory.Enabled = true
	cfg.Memory.Channels = 2
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	topo = topo.Sub(2, 4) // two mid-size layers keep the test fast
	res, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Layers {
		l := &res.Layers[i]
		if l.TotalCycles < l.ComputeCycles {
			t.Errorf("layer %d: total %d < compute %d", i, l.TotalCycles, l.ComputeCycles)
		}
		if l.Memory.Requests == 0 {
			t.Errorf("layer %d: no memory requests recorded", i)
		}
	}
}

func TestRunMultiCore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MultiCore.Enabled = true
	cfg.MultiCore.PartitionRows = 2
	cfg.MultiCore.PartitionCols = 2
	topo, err := BuiltinTopology("vit_base_ff")
	if err != nil {
		t.Fatal(err)
	}
	single := DefaultConfig()
	sres, err := New(single).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if mres.TotalCycles() >= sres.TotalCycles() {
		t.Errorf("4 cores (%d cycles) not faster than 1 core (%d cycles)",
			mres.TotalCycles(), sres.TotalCycles())
	}
}

func TestRunLayout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 16, 16
	cfg.Layout.Enabled = true
	cfg.Layout.Banks = 4
	cfg.Layout.PortsPerBank = 1
	cfg.Layout.OnChipBandwidth = 32
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	topo = topo.Sub(2, 3)
	res, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if res.Layers[0].LayoutSlowdown == 0 {
		t.Log("layout slowdown is exactly 0; acceptable but unusual")
	}
}

// TestReports checks the compute and energy reports of an energy-enabled
// run: compute rows carry the layer names, the energy report its header.
func TestReports(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Energy.Enabled = true
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	rs := res.Reports()
	if rs.Energy == nil {
		t.Fatal("energy report missing although energy modeling was enabled")
	}
	var comp, en bytes.Buffer
	if _, err := rs.Compute.WriteTo(&comp); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Energy.WriteTo(&en); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(comp.String(), "Conv1") {
		t.Error("compute report missing layer rows")
	}
	if !strings.Contains(en.String(), "TotalEnergyMJ") {
		t.Error("energy report missing header")
	}
}
