// Package expr is the experiment harness: one runner per table and figure
// of the paper's evaluation (§7), producing the same rows/series the paper
// reports. Runners are scale- and budget-parameterized so the full
// reproduction (cmd/magis-bench) and the fast benchmark suite
// (bench_test.go) share one code path.
package expr

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"magis/internal/baselines"
	"magis/internal/cost"
	"magis/internal/models"
	"magis/internal/opt"
)

// Config controls experiment scale.
type Config struct {
	// Scale shrinks workload batch sizes ((0,1]; 1 = paper configuration).
	Scale float64
	// Budget is MAGIS's per-run search budget (the paper uses 3 minutes).
	Budget time.Duration
	// Device is the simulated accelerator (default RTX3090).
	Device *cost.Device
	// Ctx cancels in-flight optimizations (default context.Background()).
	// A cancelled run still contributes its best-so-far state, so an
	// interrupted experiment renders partial but valid rows.
	Ctx context.Context
	// Workers is the search's candidate-evaluation parallelism
	// (opt.Options.Workers; 0 = GOMAXPROCS). It changes only how fast the
	// budget is spent, not which states a given amount of search reaches.
	Workers int
	// MemBudget is a soft live-memory budget for each search
	// (opt.Options.MemBudget; 0 = off): a long experiment sweep on a
	// constrained host sheds search state instead of getting OOM-killed,
	// and its rows reflect best-so-far plans.
	MemBudget int64
}

func (c Config) defaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Budget == 0 {
		c.Budget = 3 * time.Second
	}
	if c.Device == nil {
		c.Device = cost.RTX3090()
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	return c
}

// Model returns a fresh cost model for the configured device.
func (c Config) Model() *cost.Model { return cost.NewModel(c.Device) }

// Workloads instantiates the Table 2 suite at the configured scale.
func (c Config) Workloads() []*models.Workload {
	return models.Table2(c.Scale)
}

// SystemNames is the comparison order used in every figure.
var SystemNames = []string{"MAGIS", "POFO", "DTR", "XLA", "TVM", "TI"}

// magisMinMem runs MAGIS in memory-minimization mode under a latency cap.
func magisMinMem(cfg Config, w *models.Workload, latLimit float64) (*opt.Result, error) {
	return opt.OptimizeCtx(cfg.ctx(), w.G, cfg.Model(), opt.Options{
		Mode:         opt.MemoryUnderLatency,
		LatencyLimit: latLimit,
		TimeBudget:   cfg.Budget,
		Workers:      cfg.Workers,
		MemBudget:    cfg.MemBudget,
	})
}

// magisMinLat runs MAGIS in latency-minimization mode under a memory cap.
func magisMinLat(cfg Config, w *models.Workload, memLimit int64) (*opt.Result, error) {
	return opt.OptimizeCtx(cfg.ctx(), w.G, cfg.Model(), opt.Options{
		Mode:       opt.LatencyUnderMemory,
		MemLimit:   memLimit,
		TimeBudget: cfg.Budget,
		Workers:    cfg.Workers,
		MemBudget:  cfg.MemBudget,
	})
}

// ctx returns the configured context, tolerating un-defaulted Configs.
func (c Config) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// FormatTable renders rows of labelled float cells as an aligned text
// table; NaN renders as the given failure marker.
func FormatTable(title string, cols []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(cols)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// Cell formats a ratio/overhead value, with markers for failures.
func Cell(v float64, marker string) string {
	if math.IsNaN(v) {
		return marker
	}
	return fmt.Sprintf("%.2f", v)
}

func systemByName(name string) baselines.Optimizer {
	switch name {
	case "POFO":
		return baselines.POFO{}
	case "DTR":
		return baselines.DTR{}
	case "XLA":
		return baselines.XLA{}
	case "TVM":
		return baselines.TVM{}
	case "TI":
		return baselines.TorchInductor{}
	}
	return nil
}
