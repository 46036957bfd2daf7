package scalesim

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestWriteTraces(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 8, 8
	cfg.Memory.Enabled = true

	topo := &Topology{Name: "tiny", Layers: []Layer{
		{Name: "G0", Kind: 1 /* GEMM */, M: 24, N: 16, K: 32},
	}}
	if err := New(cfg).WriteTraces(topo, dir); err != nil {
		t.Fatal(err)
	}

	for _, suffix := range []string{
		"_sram_ifmap_read.csv", "_sram_filter_read.csv",
		"_sram_ofmap_write.csv", "_dram_trace.csv",
	} {
		path := filepath.Join(dir, "G0"+suffix)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("%s: %v", suffix, err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", suffix)
		}
	}

	// SRAM trace rows must be "cycle, addr..." with non-negative,
	// non-decreasing... (cycles may interleave across phases, so just
	// validate the format and address region).
	f, err := os.Open(filepath.Join(dir, "G0_sram_ifmap_read.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	rows := 0
	for sc.Scan() {
		fields := strings.Split(sc.Text(), ", ")
		if len(fields) < 2 {
			t.Fatalf("malformed row %q", sc.Text())
		}
		for _, fld := range fields {
			if _, err := strconv.ParseInt(fld, 10, 64); err != nil {
				t.Fatalf("non-integer field %q", fld)
			}
		}
		rows++
	}
	if rows == 0 {
		t.Error("ifmap trace has no rows")
	}

	// DRAM trace has a header and R/W rows.
	data, err := os.ReadFile(filepath.Join(dir, "G0_dram_trace.csv"))
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "cycle, address, type, latency") {
		t.Error("dram trace missing header")
	}
	if !strings.Contains(s, ", R, ") || !strings.Contains(s, ", W, ") {
		t.Error("dram trace missing read or write rows")
	}
}

// TestWriteTracesCached: with a cache attached, repeated-shape layers and
// repeated WriteTraces calls serve the rendered trace bytes from the cache
// — and the files are byte-identical to the uncached ones.
func TestWriteTracesCached(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 8, 8
	cfg.Memory.Enabled = true
	topo := &Topology{Name: "tiny", Layers: []Layer{
		{Name: "G0", Kind: 1, M: 24, N: 16, K: 32},
		{Name: "G1", Kind: 1, M: 24, N: 16, K: 32}, // same shape as G0
		{Name: "G2", Kind: 1, M: 16, N: 16, K: 16},
	}}

	plainDir := t.TempDir()
	if err := New(cfg).WriteTraces(topo, plainDir); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0, 0)
	sim := New(cfg, WithCache(cache))
	cachedDir := t.TempDir()
	if err := sim.WriteTraces(topo, cachedDir); err != nil {
		t.Fatal(err)
	}
	// G1 shares G0's shape: its four files must come from the cache, so
	// the cache saw strictly fewer misses than layers×files.
	st := cache.Stats()
	if st.Hits == 0 {
		t.Errorf("repeated-shape trace emission produced no cache hits: %+v", st)
	}

	suffixes := []string{
		"_sram_ifmap_read.csv", "_sram_filter_read.csv",
		"_sram_ofmap_write.csv", "_dram_trace.csv",
	}
	compare := func(dir string) {
		t.Helper()
		for _, l := range topo.Layers {
			for _, suffix := range suffixes {
				want, err := os.ReadFile(filepath.Join(plainDir, l.Name+suffix))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(dir, l.Name+suffix))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got) {
					t.Errorf("%s%s: cached trace differs from uncached", l.Name, suffix)
				}
			}
		}
	}
	compare(cachedDir)

	// Second emission (the after-a-Run scenario): everything is a hit and
	// the files still match.
	if _, err := sim.Run(context.Background(), topo); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	againDir := t.TempDir()
	if err := sim.WriteTraces(topo, againDir); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Misses != before.Misses {
		t.Errorf("second WriteTraces re-simulated: misses %d -> %d", before.Misses, after.Misses)
	}
	compare(againDir)
}

// TestWriteTracesOversizedNotCached: traces too large for the cache's
// byte budget are still written correctly, just not retained (and the
// capped tee must not have corrupted them).
func TestWriteTracesOversizedNotCached(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 8, 8
	cfg.Memory.Enabled = true
	topo := &Topology{Name: "tiny", Layers: []Layer{
		{Name: "G0", Kind: 1, M: 24, N: 16, K: 32},
	}}

	plainDir := t.TempDir()
	if err := New(cfg).WriteTraces(topo, plainDir); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0, 64) // MaxEntryBytes = 32: every blob is oversized
	cachedDir := t.TempDir()
	if err := New(cfg, WithCache(cache)).WriteTraces(topo, cachedDir); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Errorf("oversized trace blobs were cached: %+v", st)
	}
	for _, suffix := range []string{
		"_sram_ifmap_read.csv", "_sram_filter_read.csv",
		"_sram_ofmap_write.csv", "_dram_trace.csv",
	} {
		want, err := os.ReadFile(filepath.Join(plainDir, "G0"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(cachedDir, "G0"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s: file written through capped tee differs", suffix)
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("Conv 1/2:ab"); got != "Conv_1_2_ab" {
		t.Errorf("sanitize: %q", got)
	}
}

// TestWriteTracesDRAMMatchesMemoryReport holds the DRAM trace to the
// simulation behind the MEMORY_REPORT row: with unequal read and write
// queue depths both must see the same controller, so the trace's request
// count and mean read round-trip equal the report's.
func TestWriteTracesDRAMMatchesMemoryReport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 16, 16
	cfg.Memory.Enabled = true
	cfg.Memory.ReadQueueDepth, cfg.Memory.WriteQueueDepth = 32, 2
	topo := &Topology{Name: "tiny", Layers: []Layer{
		{Name: "G0", Kind: 1 /* GEMM */, M: 64, N: 48, K: 40},
	}}
	sim := New(cfg)
	res, err := sim.Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sim.WriteTraces(topo, dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "G0_dram_trace.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var requests, reads, readLat int64
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if i == 0 {
			continue // header
		}
		fields := strings.Split(line, ", ")
		if len(fields) != 4 {
			t.Fatalf("malformed row %q", line)
		}
		requests++
		if fields[2] == "R" {
			lat, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			reads++
			readLat += lat
		}
	}
	mem := res.Layers[0].Memory
	if requests != mem.Requests {
		t.Errorf("trace has %d requests, MEMORY_REPORT %d", requests, mem.Requests)
	}
	if reads == 0 {
		t.Fatal("trace has no reads")
	}
	if got := float64(readLat) / float64(reads); math.Abs(got-mem.AvgReadLatency) > 1e-9*mem.AvgReadLatency {
		t.Errorf("trace mean read latency %.4f, MEMORY_REPORT %.4f", got, mem.AvgReadLatency)
	}
}
