package layout

import "fmt"

// Config describes one banked on-chip SRAM for conflict analysis.
type Config struct {
	// Banks is the number of independent banks.
	Banks int
	// PortsPerBank is the number of line accesses a bank serves per cycle.
	PortsPerBank int
	// TotalBandwidth is the global words-per-cycle budget the banks share
	// (the v2 pure-bandwidth model divides demand by this).
	TotalBandwidth int
}

// Validate reports the first malformed field.
func (c *Config) Validate() error {
	if c.Banks <= 0 {
		return fmt.Errorf("layout: non-positive banks %d", c.Banks)
	}
	if c.PortsPerBank <= 0 {
		return fmt.Errorf("layout: non-positive ports %d", c.PortsPerBank)
	}
	if c.TotalBandwidth <= 0 {
		return fmt.Errorf("layout: non-positive bandwidth %d", c.TotalBandwidth)
	}
	return nil
}

// BandwidthPerBank is the words one bank line delivers.
func (c *Config) BandwidthPerBank() int {
	b := c.TotalBandwidth / c.Banks
	if b < 1 {
		b = 1
	}
	return b
}

// Analyzer accumulates the latency of parallel access groups under both the
// realistic multi-bank layout model and the v2 pure-bandwidth baseline.
type Analyzer struct {
	cfg Config

	// scratch map reused across groups: (bank, line) → seen marker.
	touched map[[2]int64]struct{}
	perBank []int64

	// Closed-form run state (see closedform.go): memoized group cycles per
	// (stride, count) indexed by base residue, and a scratch address buffer.
	runMemo map[runKey][]int64
	runBuf  []int64

	LayoutCycles   int64
	BaselineCycles int64
	Groups         int64
	ConflictEvents int64 // groups where some bank needed >1 access round
}

// NewAnalyzer builds an Analyzer; cfg must validate.
func NewAnalyzer(cfg Config) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Analyzer{
		cfg:     cfg,
		touched: make(map[[2]int64]struct{}, 64),
		perBank: make([]int64, cfg.Banks),
	}, nil
}

// Config returns the analyzer's configuration.
func (a *Analyzer) Config() Config { return a.cfg }

// GroupCycles returns the cycles the layout model needs to serve one group
// of concurrently demanded word addresses laid out with `lineWidth` words
// per line (line = addr/lineWidth, bank = (addr%lineWidth)/bwPerBank).
func (a *Analyzer) GroupCycles(addrs []int64) int64 {
	if len(addrs) == 0 {
		return 0
	}
	lineWidth := int64(a.cfg.BandwidthPerBank() * a.cfg.Banks)
	bwPerBank := int64(a.cfg.BandwidthPerBank())
	for k := range a.touched {
		delete(a.touched, k)
	}
	for i := range a.perBank {
		a.perBank[i] = 0
	}
	for _, addr := range addrs {
		line := addr / lineWidth
		bank := (addr % lineWidth) / bwPerBank
		key := [2]int64{bank, line}
		if _, ok := a.touched[key]; ok {
			continue
		}
		a.touched[key] = struct{}{}
		a.perBank[bank]++
	}
	ports := int64(a.cfg.PortsPerBank)
	var worst int64
	for _, rows := range a.perBank {
		need := (rows + ports - 1) / ports
		if need > worst {
			worst = need
		}
	}
	if worst == 0 {
		worst = 1
	}
	return worst
}

// baseline returns the v2 bandwidth-model cycles for n parallel words.
func (a *Analyzer) baseline(n int) int64 {
	if n == 0 {
		return 0
	}
	bw := int64(a.cfg.TotalBandwidth)
	return (int64(n) + bw - 1) / bw
}

// Observe records one parallel access group under both models. It is the
// per-cycle replay the differential tests hold ObserveRun to; production
// code scores whole runs through AnalyzeSchedule.
func (a *Analyzer) Observe(addrs []int64) {
	if len(addrs) == 0 {
		return
	}
	lc := a.GroupCycles(addrs)
	bc := a.baseline(len(addrs))
	a.LayoutCycles += lc
	a.BaselineCycles += bc
	a.Groups++
	if lc > 1 {
		a.ConflictEvents++
	}
}

// Slowdown returns (layout − baseline)/baseline; negative values mean the
// banked layout outperforms the flat bandwidth model.
func (a *Analyzer) Slowdown() float64 {
	if a.BaselineCycles == 0 {
		return 0
	}
	return float64(a.LayoutCycles-a.BaselineCycles) / float64(a.BaselineCycles)
}

// Reset clears the accumulated counters, keeping the configuration.
func (a *Analyzer) Reset() {
	a.LayoutCycles, a.BaselineCycles, a.Groups, a.ConflictEvents = 0, 0, 0, 0
}
