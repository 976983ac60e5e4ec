// Command magis optimizes one workload's training graph under a memory or
// latency constraint and prints the result, mirroring the optimization
// modes of §6.2.
//
// Usage:
//
//	magis -model bert -mode mem -limit 0.10 -budget 30s
//	magis -model unet -mode latency -limit 0.6 -budget 1m
//
// With -mode mem, -limit is the allowed latency overhead (0.10 = +10%) and
// peak memory is minimized; with -mode latency, -limit is the memory ratio
// vs the unoptimized baseline (0.6 = 60%) and latency is minimized.
//
// -audit cross-validates the optimized plan's three peak estimators
// (differential plan audit) and walks the adaptive re-optimization ladder
// if the plan is infeasible; -faults N additionally replays the plan under
// N seeded fault scenarios (cost-model noise, swap-bandwidth degradation,
// transient transfer failures, co-tenant budget squeezes) before trusting
// it. A plan repaired by a ladder rung replaces the base result, including
// for -emit.
//
// SIGINT/SIGTERM cancels the search; the best state found so far is
// printed and the process exits 0 (the search is anytime — an interrupted
// run is a valid, just less optimized, result).
//
// -verify numerically executes the optimized plan against the memory
// planner's concrete arena offsets (trapping use-after-free and overlap
// bugs) and cross-checks its outputs against the unoptimized graph on
// seeded inputs; a failed verification exits 1.
//
// -checkpoint makes the search crash-safe: it periodically snapshots its
// full state to the given path (atomically), and a later run with
// -resume <path> continues from the snapshot under the remaining budget —
// including after SIGKILL. A resumed run takes its workload and options
// from the snapshot; -model/-mode/-limit/-budget are ignored.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"magis/internal/cliutil"
	"magis/internal/codegen"
	"magis/internal/cost"
	"magis/internal/faults"
	"magis/internal/graph"
	"magis/internal/graphio"
	"magis/internal/ingest"
	"magis/internal/models"
	"magis/internal/opt"
	"magis/internal/robust"
	"magis/internal/sched"
	"magis/internal/verify"
)

func main() {
	var (
		model   = flag.String("model", "mlp", "workload: resnet|bert|vit|unet|unetpp|gptneo|btlm|mlp")
		scale   = flag.Float64("scale", 1, "batch-size scale factor (0,1]")
		mode    = flag.String("mode", "mem", "optimize: mem (under latency limit) | latency (under memory limit)")
		limit   = flag.Float64("limit", 0.10, "constraint: latency overhead for -mode mem, memory ratio for -mode latency")
		budget  = flag.Duration("budget", 10*time.Second, "search time budget (paper: 3m)")
		level   = flag.Int("L", 4, "F-Tree max level")
		workers = flag.Int("workers", 0, "parallel candidate evaluations (0 = GOMAXPROCS, 1 = sequential)")
		iters   = flag.Int("iters", 0, "cap search expansions (0 = budget-bound only; fixed work => deterministic result)")
		emit    = flag.String("emit", "", "write a PyTorch script for the optimized graph to this path")
		load    = flag.String("load", "", "optimize a graph document (graphio format) through the hardened ingest pipeline instead of -model")
		saveG   = flag.String("save-graph", "", "write the selected workload's graph document to this path and exit (no search)")
		memBudg = flag.String("mem-budget", "", "soft live-memory budget for the search itself (e.g. 512MiB); over budget the search sheds frontier state and, at worst, stops with its best-so-far (empty = off)")

		ckpt   = flag.String("checkpoint", "", "periodically snapshot the search to this path (crash-safe; see -resume)")
		resume = flag.String("resume", "", "continue an interrupted search from this checkpoint under its remaining budget")

		verifyPlan = flag.Bool("verify", false, "numerically verify the optimized plan: arena-safe execution + output cross-check vs the input graph")
		verifySeed = flag.Uint64("verify-seed", 1, "seed for the verification inputs")

		audit     = flag.Bool("audit", false, "differential plan audit + re-optimization ladder (implied by -faults)")
		faultsN   = flag.Int("faults", 0, "replay the plan under N seeded fault scenarios (0 = off)")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the deterministic fault injector")
		headroom  = flag.Float64("headroom", 0.10, "budget margin the re-optimization ladder reserves, in (0,0.9]")
	)
	flag.Parse()

	// Validate every flag before doing any work, so a typo fails in
	// milliseconds rather than after a multi-second baseline evaluation.
	if err := (cliutil.Search{Scale: *scale, Budget: *budget, Workers: *workers,
		Headroom: *headroom, Faults: *faultsN}).Validate(); err != nil {
		fatalf("%v", err)
	}
	if *mode != "mem" && *mode != "latency" {
		fatalf("unknown -mode %q: want mem or latency", *mode)
	}
	if *iters < 0 {
		fatalf("invalid -iters %d: must be >= 0", *iters)
	}
	memBudget, err := cliutil.ParseBytes(*memBudg)
	if err != nil {
		fatalf("-mem-budget: %v", err)
	}
	if *resume != "" {
		if *ckpt != "" {
			fatalf("-resume and -checkpoint are mutually exclusive: a resumed search keeps checkpointing to its own snapshot path")
		}
		if *audit || *faultsN > 0 {
			fatalf("-audit/-faults cannot be combined with -resume (run them on the finished result instead)")
		}
		if *verifyPlan {
			fatalf("-verify cannot be combined with -resume: the snapshot has no input graph to cross-check against")
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	m := cost.NewModel(cost.RTX3090())
	var (
		res   *opt.Result
		o     opt.Options
		input *graph.Graph
		wName string
	)
	start := time.Now()
	if *resume != "" {
		info, err := opt.ReadCheckpointInfo(nil, *resume)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("resuming %s from %s: %d expansion(s) done, %v already spent\n",
			info.Label, *resume, info.Iterations, info.Elapsed.Round(time.Millisecond))
		res, err = opt.Resume(ctx, nil, *resume, m, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		wName = info.Label
	} else {
		var w *models.Workload
		if *load != "" {
			// Loaded graph documents are untrusted input: they go through
			// the same strict decode, structural limits, and search-cost
			// preflight the service applies, so a hostile file fails with a
			// positional reason instead of a panic mid-search.
			f, err := os.Open(*load)
			if err != nil {
				fatalf("%v", err)
			}
			g, _, err := ingest.Decode(f, ingest.Limits{})
			f.Close()
			if err != nil {
				fatalf("-load %s: %v", *load, err)
			}
			if err := ingest.Preflight(g, opt.Options{Workers: *workers}, ingest.Limits{}); err != nil {
				fatalf("-load %s: %v", *load, err)
			}
			w = &models.Workload{Name: fmt.Sprintf("graph-%016x", g.WLHash()), G: g}
		} else {
			var err error
			w, err = models.ByName(*model, *scale)
			if err != nil {
				fatalf("%v", err)
			}
		}
		if *saveG != "" {
			f, err := os.Create(*saveG)
			if err != nil {
				fatalf("%v", err)
			}
			if err := graphio.Save(f, w.G, nil); err != nil {
				fatalf("-save-graph: %v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("-save-graph: %v", err)
			}
			fmt.Printf("wrote %s (%d nodes) to %s\n", w.Name, w.G.Len(), *saveG)
			return
		}
		base := opt.Baseline(w.G, m)
		fmt.Printf("workload: %s\n", w)
		fmt.Printf("baseline: %s\n", base.Summary())

		o = opt.Options{TimeBudget: *budget, MaxLevel: *level, Workers: *workers,
			MaxIterations: *iters, MemBudget: memBudget}
		switch *mode {
		case "mem":
			o.Mode = opt.MemoryUnderLatency
			o.LatencyLimit = base.Latency * (1 + *limit)
			fmt.Printf("goal: minimize memory, latency <= +%.0f%%\n", 100**limit)
		case "latency":
			o.Mode = opt.LatencyUnderMemory
			o.MemLimit = int64(*limit * float64(base.PeakMem))
			fmt.Printf("goal: minimize latency, memory <= %.0f%% (%.2f GB)\n", 100**limit, gb(o.MemLimit))
		}
		if *ckpt != "" {
			o.Checkpoint = opt.Checkpoint{Path: *ckpt, Label: w.Name}
			fmt.Printf("checkpointing to %s\n", *ckpt)
		}

		res, err = opt.OptimizeCtx(ctx, w.G, m, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		input = w.G
		wName = w.Name
	}
	base := res.Baseline
	best := res.Best
	fmt.Printf("\nsearch stopped: %s after %v (%d iterations, %d transformations, %d duplicates filtered)\n",
		res.Stopped, time.Since(start).Round(time.Millisecond),
		res.Stats.Iterations, res.Stats.Trans, res.Stats.Filtered)
	if n := res.Diagnostics.Panics(); n > 0 {
		fmt.Printf("contained: %d rule panic(s); quarantined rules: %s\n",
			n, strings.Join(res.Diagnostics.Quarantined(), ", "))
	}
	if gov := res.Governor; gov != nil && gov.Stage > 0 {
		fmt.Printf("governor: budget %.2f GB, peak %.2f GB — stage %d: %d state(s) evicted, %d knob shrink(s), %d pool flush(es)\n",
			gb(gov.Budget), gb(gov.PeakBytes), gov.Stage, gov.EvictedStates, gov.Shrinks, gov.Flushes)
	}
	if ck := res.Checkpoint; ck != nil {
		if ck.Err != "" {
			fmt.Fprintf(os.Stderr, "checkpoint degraded: %s\n", ck.Err)
		} else {
			fmt.Printf("checkpoint: %d snapshot(s) written to %s\n", ck.Writes, ck.Path)
		}
	}
	fmt.Printf("best:     %s\n", best.Summary())
	fmt.Printf("result:   peak %.2f GB (%.0f%% of baseline), latency %.2f ms (%+.1f%%)\n",
		gb(best.PeakMem), 100*float64(best.PeakMem)/float64(base.PeakMem),
		best.Latency*1e3, 100*(best.Latency/base.Latency-1))
	enabled := best.FT.EnabledNodes()
	fmt.Printf("fission:  %d region(s) enabled", len(enabled))
	for _, n := range enabled {
		fmt.Printf("  [|S|=%d n=%d]", len(n.T.S), n.N)
	}
	fmt.Println()
	fmt.Println("\nconvergence:")
	for _, h := range res.History {
		fmt.Printf("  t=%-10v peak %.2f GB  latency %.2f ms\n",
			h.Elapsed.Round(time.Millisecond), gb(h.PeakMem), h.Latency*1e3)
	}

	if *audit || *faultsN > 0 {
		lo := robust.Options{
			Opt:          o,
			Headroom:     *headroom,
			Faults:       faults.Defaults(*faultSeed, *faultsN),
			ReplayFaults: *faultsN > 0,
			Verify:       *verifyPlan,
			VerifySeed:   *verifySeed,
			Initial:      res,
		}
		fmt.Println("\nexecution feasibility:")
		lad, err := robust.Reoptimize(ctx, input, m, lo)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, a := range lad.Attempts {
			fmt.Printf("rung %-11s", a.Rung)
			if a.Err != "" {
				fmt.Printf(" skipped: %s\n", a.Err)
				continue
			}
			if a.MemLimit > 0 {
				fmt.Printf(" limit %.2f GB ", gb(a.MemLimit))
			}
			fmt.Printf(" peak %.2f GB  latency %.2f ms  feasible=%v\n",
				gb(a.PeakMem), a.Latency*1e3, a.Feasible)
			fmt.Print(a.Audit)
			if a.Replay != nil {
				fmt.Printf("  %s\n", a.Replay)
			}
			if a.Verify != nil {
				fmt.Printf("  %s", a.Verify)
			}
		}
		fmt.Printf("ladder: %s\n", lad.Summary())
		if lad.Survived && lad.Repaired {
			best = lad.Best
			fmt.Printf("repaired: %s\n", best.Summary())
		} else if !lad.Survived {
			fmt.Println("warning: no rung produced a feasible plan; keeping the base result")
		}
	}

	if *verifyPlan {
		mg, err := best.FT.Materialize(best.G)
		if err != nil {
			fatalf("materialize for verification: %v", err)
		}
		rep := verify.Check(input, mg, *verifySeed)
		rep.Workload = wName
		fmt.Printf("\n%s", rep)
		if !rep.OK() {
			os.Exit(1)
		}
	}

	if *emit != "" {
		mg, err := best.FT.Materialize(best.G)
		if err != nil {
			fmt.Fprintf(os.Stderr, "materialize for codegen: %v (emitting without fission)\n", err)
			mg = best.G.Clone()
		}
		sc := &sched.Scheduler{}
		src, err := codegen.PyTorch(mg, sc.ScheduleGraph(mg), codegen.Options{
			Label: fmt.Sprintf("%s (%s mode, limit %.2f)", wName, *mode, *limit),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*emit, []byte(src), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nPyTorch script written to %s\n", *emit)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func gb(b int64) float64 { return float64(b) / (1 << 30) }
