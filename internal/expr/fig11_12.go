package expr

import (
	"fmt"
	"math"
	"strings"

	"magis/internal/baselines"
	"magis/internal/models"
	"magis/internal/opt"
)

// Fig11Curve is one system's memory/latency trade-off curve for one
// workload (Fig. 11's axes: memory ratio vs latency overhead).
type Fig11Curve struct {
	Workload string
	System   string
	Points   []opt.ParetoPoint
}

// Fig11 traces trade-off curves for the four case-study workloads.
// ratios is the memory-constraint grid (default 0.9 .. 0.3).
func Fig11(cfg Config, ws []*models.Workload, ratios []float64) []Fig11Curve {
	cfg = cfg.defaults()
	if ws == nil {
		all := cfg.Workloads()
		ws = []*models.Workload{all[0], all[1], all[3], all[5]} // ResNet, BERT, UNet, GPT-Neo
	}
	if ratios == nil {
		ratios = []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3}
	}
	var curves []Fig11Curve
	for _, w := range ws {
		if cfg.Ctx.Err() != nil {
			return curves
		}
		m := cfg.Model()
		base := opt.Baseline(w.G, m)
		pts, err := opt.SweepCtx(cfg.Ctx, w.G, m, ratios, cfg.Budget, opt.Options{Workers: cfg.Workers})
		if err == nil {
			curves = append(curves, Fig11Curve{w.Name, "MAGIS", pts})
		}
		for _, name := range SystemNames[1:] {
			o := systemByName(name)
			var pts []opt.ParetoPoint
			for _, r := range append([]float64{1.0}, ratios...) {
				if cfg.Ctx.Err() != nil {
					break
				}
				limit := int64(r * float64(base.PeakMem))
				res := o.OptimizeMem(w.G, m, limit)
				if !res.OK {
					continue
				}
				pts = append(pts, opt.ParetoPoint{
					MemRatio:    float64(res.PeakMem) / float64(base.PeakMem),
					LatOverhead: res.Latency/base.Latency - 1,
				})
			}
			curves = append(curves, Fig11Curve{w.Name, name, opt.Pareto(pts)})
		}
	}
	return curves
}

// Fig12Point is one point of the micro-batching comparison (Fig. 12):
// system (POFO, POFO with micro-batch factor, or MAGIS) at one memory
// limit.
type Fig12Point struct {
	System      string
	MemRatio    float64
	LatOverhead float64
	OK          bool
}

// Fig12 reproduces the Fig. 12 study on ViT: POFO with whole-graph
// micro-batching (factors 32/16/8) against plain POFO and MAGIS across a
// grid of memory limits.
func Fig12(cfg Config, w *models.Workload, ratios []float64, factors []int) []Fig12Point {
	cfg = cfg.defaults()
	if w == nil {
		w = cfg.Workloads()[2] // ViT-base
	}
	if ratios == nil {
		ratios = []float64{0.8, 0.6, 0.4, 0.3}
	}
	if factors == nil {
		factors = []int{32, 16, 8}
	}
	m := cfg.Model()
	base := opt.Baseline(w.G, m)
	var pts []Fig12Point
	run := func(name string, o baselines.Optimizer) {
		for _, r := range ratios {
			if cfg.Ctx.Err() != nil {
				return
			}
			limit := int64(r * float64(base.PeakMem))
			res := o.OptimizeMem(w.G, m, limit)
			p := Fig12Point{System: name, MemRatio: math.NaN(), LatOverhead: math.NaN(), OK: res.OK}
			if res.OK {
				p.MemRatio = float64(res.PeakMem) / float64(base.PeakMem)
				p.LatOverhead = res.Latency/base.Latency - 1
			}
			pts = append(pts, p)
		}
	}
	run("POFO", baselines.POFO{})
	for _, f := range factors {
		if f > w.Batch {
			continue
		}
		run(fmt.Sprintf("POFO(mb=%d)", f), baselines.MicroBatch{Inner: baselines.POFO{}, Factor: f})
	}
	for _, r := range ratios {
		limit := int64(r * float64(base.PeakMem))
		p := Fig12Point{System: "MAGIS", MemRatio: math.NaN(), LatOverhead: math.NaN()}
		if res, err := magisMinLat(cfg, w, limit); err == nil && res.Best.PeakMem <= limit {
			p.OK = true
			p.MemRatio = float64(res.Best.PeakMem) / float64(base.PeakMem)
			p.LatOverhead = res.Best.Latency/base.Latency - 1
		}
		pts = append(pts, p)
	}
	return pts
}

// RenderFig12 formats the micro-batching comparison.
func RenderFig12(pts []Fig12Point) string {
	cols := []string{"system", "mem-ratio", "lat-overhead"}
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{p.System, Cell(p.MemRatio, "FAIL"), Cell(p.LatOverhead, "FAIL")})
	}
	return FormatTable("Fig 12: MAGIS vs POFO with micro-batching (ViT)", cols, rows)
}

// RenderFig11 formats the curves as point lists.
func RenderFig11(curves []Fig11Curve) string {
	var b strings.Builder
	b.WriteString("== Fig 11: memory/latency trade-off curves ==\n")
	for _, c := range curves {
		fmt.Fprintf(&b, "%-14s %-6s:", c.Workload, c.System)
		for _, p := range c.Points {
			fmt.Fprintf(&b, " (%.2f, %+.2f)", p.MemRatio, p.LatOverhead)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
