// Command magis-bench regenerates the paper's evaluation tables and
// figures (Table 2, Figs. 9-16) on the simulated substrate.
//
// Usage:
//
//	magis-bench [-scale 0.25] [-budget 5s] [-workers N] table2 fig9 ... | all
//	magis-bench -cpuprofile cpu.pprof -memprofile mem.pprof fig15
//	magis-bench -scale 0.05 -budget 2s -faults 8 audit
//
// At -scale 1 and -budget 3m this is the paper's configuration; smaller
// values trade fidelity for runtime. -workers sets the search's parallel
// candidate evaluation (0 = GOMAXPROCS); profiles are written on exit and
// inspected with `go tool pprof`.
//
// The audit target is the execution-feasibility harness: each workload's plan is cross-validated
// by the differential audit, replayed under -faults seeded fault scenarios
// (-fault-seed), and — when infeasible — repaired through the adaptive
// re-optimization ladder with a -headroom budget margin.
//
// The verify target numerically verifies a miniature version of each
// evaluation workload: its graph is optimized, executed against the
// memory plan's concrete arena offsets, and cross-checked against the
// unoptimized graph (see internal/verify). -mutate corrupts one plan
// offset per workload first and expects the checker to trap it; any
// unclean verification report makes the process exit 1.
//
// SIGINT/SIGTERM cancels in-flight searches: the current target renders
// with whatever best-so-far states were reached, remaining targets are
// skipped, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"magis/internal/cliutil"
	"magis/internal/cost"
	"magis/internal/expr"
	"magis/internal/faults"
	"magis/internal/graph"
	"magis/internal/memplan"
	"magis/internal/models"
	"magis/internal/opt"
	"magis/internal/robust"
	"magis/internal/sched"
	"magis/internal/tensor"
	"magis/internal/verify"
)

func main() {
	var (
		scale      = flag.Float64("scale", 1, "workload batch scale factor (paper: 1)")
		budget     = flag.Duration("budget", 5*time.Second, "MAGIS search budget per run (paper: 3m)")
		workers    = flag.Int("workers", 0, "parallel candidate evaluations per search (0 = GOMAXPROCS, 1 = sequential)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this path")
		memprofile = flag.String("memprofile", "", "write an allocation profile taken at exit to this path")

		memBudg = flag.String("mem-budget", "", "soft live-memory budget per search (e.g. 512MiB); over budget a search sheds state and settles best-so-far instead of OOMing (empty = off)")

		verifySeed = flag.Uint64("verify-seed", 1, "seed for the verify target's numeric inputs")
		oracleSeqs = flag.Int("oracle-seqs", 100, "randomized rewrite sequences the oracle target compares")
		oracleSeed = flag.Int64("oracle-seed", 42, "seed for the oracle target's rewrite sequences")
		mutate     = flag.Bool("mutate", false, "verify target: corrupt one memory-plan offset per workload first; the arena checker must then trap it and the run exits non-zero")

		soakURL   = flag.String("soak-url", "http://127.0.0.1:8080", "soak target: base URL of the magis-serve instance to drive")
		soakJobs  = flag.Int("soak-jobs", 60, "soak target: traffic submissions to attempt")
		soakSeed  = flag.Int64("soak-seed", 1, "soak target: seed for the traffic mix")
		soakPois  = flag.String("soak-poison", "", "soak target: poisoned model name (must match the server's -chaos-poison-model; empty skips the breaker phase)")
		soakModel = flag.String("soak-model", "mlp", "soak target: healthy model driven by the traffic mix")
		soakWait  = flag.Duration("soak-settle", 2*time.Minute, "soak target: how long to wait for jobs to settle")
		soakP99   = flag.Duration("soak-hit-p99", 2*time.Second, "soak target: SLO floor for cache-hit p99 latency")
		soakDegr  = flag.Float64("soak-max-degraded", 0.5, "soak target: SLO floor for the degraded fraction of completed jobs")

		hostileURL    = flag.String("hostile-url", "http://127.0.0.1:8080", "hostile target: base URL of the magis-serve instance to attack")
		hostileFlood  = flag.Int("hostile-flood", 200, "hostile target: bully-client flood submissions")
		hostileGood   = flag.Int("hostile-good", 10, "hostile target: well-behaved submissions riding through the flood")
		hostileP95    = flag.Duration("hostile-good-p95", 2*time.Second, "hostile target: SLO floor for the good client's p95 response time under flood")
		hostileSettle = flag.Duration("hostile-settle", 2*time.Minute, "hostile target: how long to wait for jobs to settle")
		hostileLoris  = flag.Bool("hostile-loris", true, "hostile target: run the slow-loris phase (server must enforce read timeouts)")

		faultsN   = flag.Int("faults", 0, "fault scenarios per workload in the audit target (0 = audit only)")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the deterministic fault injector")
		headroom  = flag.Float64("headroom", 0.10, "budget margin the re-optimization ladder reserves, in (0,0.9]")
		ckDir     = flag.String("checkpoint", "", "checkpoint the audit target's ladders into per-workload subdirectories of this path (re-running on the same path resumes them)")
	)
	flag.Parse()
	if err := (cliutil.Search{Scale: *scale, Budget: *budget, Workers: *workers,
		Headroom: *headroom, Faults: *faultsN}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	memBudget, err := cliutil.ParseBytes(*memBudg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-mem-budget: %v\n", err)
		os.Exit(2)
	}

	known := map[string]bool{
		"table2": true, "fig9": true, "fig10": true, "fig11": true,
		"fig12": true, "fig13": true, "fig14": true, "fig15": true, "fig16": true,
		"audit": true, "verify": true, "oracle": true, "soak": true,
		"hostile": true,
	}
	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"table2"}
	}
	if len(targets) == 1 && targets[0] == "all" {
		targets = []string{"table2", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"}
	}
	for _, t := range targets {
		if !known[t] {
			fmt.Fprintf(os.Stderr, "unknown target %q (want table2, fig9..fig16, audit, verify, oracle, soak, hostile, or all)\n", t)
			os.Exit(2)
		}
	}
	if *mutate && !slices.Contains(targets, "verify") {
		fmt.Fprintln(os.Stderr, "-mutate only applies to the verify target")
		os.Exit(2)
	}

	// Profiling starts after argument validation so a typo can't leave a
	// truncated profile behind. Both profiles cover the whole run; the
	// deferred writers run on normal exit and on SIGINT (the signal only
	// cancels the context — main still returns normally).
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("CPU profile written to %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the heap profile reflects real retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Printf("heap profile written to %s\n", *memprofile)
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := expr.Config{Scale: *scale, Budget: *budget, Ctx: ctx, Workers: *workers, MemBudget: memBudget}

	verifyFailed := false
	for _, t := range targets {
		if ctx.Err() != nil {
			fmt.Printf("interrupted: skipping remaining targets from %s on\n", t)
			break
		}
		start := time.Now()
		switch t {
		case "table2":
			fmt.Print(expr.RenderTable2(expr.Table2(cfg)))
		case "fig9":
			fmt.Print(expr.RenderFig9(expr.Fig9(cfg, nil, nil)))
		case "fig10":
			fmt.Print(expr.RenderFig10(expr.Fig10(cfg, nil, nil)))
		case "fig11":
			fmt.Print(expr.RenderFig11(expr.Fig11(cfg, nil, nil)))
		case "fig12":
			fmt.Print(expr.RenderFig12(expr.Fig12(cfg, nil, nil, nil)))
		case "fig13":
			fmt.Print(expr.RenderFig13(expr.Fig13(cfg, nil)))
		case "fig14":
			fmt.Print(expr.RenderFig14(expr.Summarize(expr.Fig14(cfg, 10, 10))))
		case "fig15":
			fmt.Print(expr.RenderFig15(expr.Fig15(cfg, nil)))
		case "fig16":
			fmt.Print(expr.RenderFig16(expr.Fig16(cfg, nil)))
		case "audit":
			runAudit(ctx, cfg, *faultsN, *faultSeed, *headroom, *ckDir)
		case "verify":
			if !runVerify(ctx, cfg, *verifySeed, *mutate) {
				verifyFailed = true
			}
		case "oracle":
			if !runOracle(*oracleSeqs, *oracleSeed) {
				verifyFailed = true
			}
		case "soak":
			if !runSoak(ctx, soakConfig{
				URL:      *soakURL,
				Jobs:     *soakJobs,
				Seed:     *soakSeed,
				Poison:   *soakPois,
				Healthy:  *soakModel,
				SettleTo: *soakWait,
				HitP99:   *soakP99,
				MaxDegr:  *soakDegr,
			}) {
				verifyFailed = true
			}
		case "hostile":
			if !runHostile(ctx, hostileConfig{
				URL:      *hostileURL,
				Flood:    *hostileFlood,
				Good:     *hostileGood,
				GoodP95:  *hostileP95,
				SettleTo: *hostileSettle,
				Loris:    *hostileLoris,
			}) {
				verifyFailed = true
			}
		}
		if ctx.Err() != nil {
			fmt.Printf("(%s interrupted after %v; rows reflect best-so-far states)\n\n",
				t, time.Since(start).Round(time.Millisecond))
			continue
		}
		fmt.Printf("(%s took %v)\n\n", t, time.Since(start).Round(time.Millisecond))
	}
	if verifyFailed {
		os.Exit(1)
	}
}

// runOracle runs the differential evaluation oracle: incremental and
// from-scratch evaluation side by side on randomized rewrite sequences,
// asserting identical hashes, valid schedules, and consistent peaks (see
// opt.RunOracle). A non-empty mismatch list makes the process exit 1.
func runOracle(sequences int, seed int64) bool {
	rep := opt.RunOracle(opt.OracleConfig{
		Model: cost.NewModel(cost.RTX3090()),
		Graphs: []*graph.Graph{
			models.MLP(512, 64, 128, 10, 3).G,
			models.UNet(4, 64).G,
			models.TransformerLM("oracle-lm", 1, 8, 32, 2, 2, 128, tensor.TF32, false).G,
		},
		Sequences: sequences,
		Seed:      seed,
	})
	fmt.Print(rep)
	return rep.OK()
}

// verifySuite is the numeric-verification face of the seven evaluation
// workloads: same architectures as Table 2, shrunk until a pure-Go
// float64 execution of forward+backward+SGD finishes in seconds.
func verifySuite() []*models.Workload {
	return []*models.Workload{
		models.ResNet50Config(2, 32, []int{1, 1, 1, 1}),
		models.TransformerLM("BERT-mini", 2, 16, 64, 2, 4, 256, tensor.TF32, false),
		models.ViTBase(1, 16, 16),
		models.UNetConfig(1, 32, 8, 2),
		models.UNetPPConfig(1, 32, 8, 2),
		models.TransformerLM("GPT-Neo-mini", 1, 16, 64, 2, 4, 256, tensor.BF16, false),
		models.TransformerLM("BTLM-mini", 1, 16, 80, 2, 4, 256, tensor.BF16, false),
	}
}

// runVerify numerically verifies every suite workload: the graph is
// optimized under the usual memory objective, materialized, executed
// against its memory plan's concrete arena offsets, and cross-checked
// against the unoptimized graph on seeded inputs. With mutate set, the
// optimization step is skipped and one plan offset is corrupted instead —
// the checker must trap it, so a "failing" run is the expected outcome
// and the non-zero exit is what scripts/verify_mutation.sh asserts.
// Returns true when every report is clean.
func runVerify(ctx context.Context, cfg expr.Config, seed uint64, mutate bool) bool {
	m := cost.NewModel(cost.RTX3090())
	ok := true
	if mutate {
		fmt.Printf("mutation smoke: one corrupted plan offset per workload, seed %d\n", seed)
	} else {
		fmt.Printf("numeric plan verification: optimized vs reference execution, seed %d\n", seed)
	}
	for _, w := range verifySuite() {
		if ctx.Err() != nil {
			fmt.Println("interrupted: skipping remaining workloads")
			break
		}
		var rep *verify.Report
		if mutate {
			sc := &sched.Scheduler{}
			order := sc.ScheduleGraph(w.G)
			plan, err := memplan.Build(w.G, order)
			if err != nil {
				fmt.Printf("verify %s: FAIL — memplan: %v\n", w.Name, err)
				ok = false
				continue
			}
			desc, injected := verify.InjectOffsetFault(plan)
			if !injected {
				fmt.Printf("verify %s: FAIL — no concurrently-live blocks to corrupt\n", w.Name)
				ok = false
				continue
			}
			fmt.Printf("injected: %s\n", desc)
			rep = verify.CheckPlan(w.G, w.G, order, plan, seed)
			if rep.OK() {
				fmt.Printf("verify %s: injected fault went UNDETECTED\n", w.Name)
			}
		} else {
			base := opt.Baseline(w.G, m)
			res, err := opt.OptimizeCtx(ctx, w.G, m, opt.Options{
				Mode:          opt.MemoryUnderLatency,
				LatencyLimit:  base.Latency * 1.1,
				TimeBudget:    cfg.Budget,
				Workers:       cfg.Workers,
				MaxIterations: 60,
			})
			if err != nil {
				fmt.Printf("verify %s: FAIL — optimize: %v\n", w.Name, err)
				ok = false
				continue
			}
			mg, err := res.Best.FT.Materialize(res.Best.G)
			if err != nil {
				fmt.Printf("verify %s: FAIL — materialize: %v\n", w.Name, err)
				ok = false
				continue
			}
			rep = verify.Check(w.G, mg, seed)
		}
		rep.Workload = w.Name
		if !rep.OK() {
			ok = false
		}
		fmt.Print(rep)
	}
	return ok
}

// runAudit is the execution-feasibility harness: per workload it audits
// the baseline plan against a zero-headroom budget (the worst of the three
// peak estimators), replays it under the seeded fault scenarios, and walks
// the re-optimization ladder when the plan is infeasible. With ckDir set,
// each workload's ladder checkpoints into its own subdirectory: an
// interrupted audit re-run on the same path replays completed rungs
// instead of re-searching them.
func runAudit(ctx context.Context, cfg expr.Config, scenarios int, seed int64, headroom float64, ckDir string) {
	m := cost.NewModel(cost.RTX3090())
	b := func(n int) int {
		s := int(float64(n) * cfg.Scale)
		if s < 1 {
			return 1
		}
		return s
	}
	workloads := []*models.Workload{
		models.MLP(b(8192), 256, 512, 10, 4),
		models.UNet(b(32), 256),
	}
	fmt.Printf("execution-feasibility audit: %d fault scenario(s), seed %d, headroom %.0f%%\n",
		scenarios, seed, 100*headroom)
	fmt.Printf("%-16s %-10s %-12s %-10s %-12s %-10s %s\n",
		"workload", "budget", "rung", "peak", "latency", "audit", "replay")
	for _, w := range workloads {
		if ctx.Err() != nil {
			fmt.Println("interrupted: skipping remaining workloads")
			return
		}
		base := opt.Baseline(w.G, m)
		ar := faults.Audit(base.EvalG, base.Sched, faults.AuditConfig{Model: m})
		budget := ar.SchedPeak
		if ar.SimPeak > budget {
			budget = ar.SimPeak
		}
		if ar.ArenaSize > budget {
			budget = ar.ArenaSize
		}
		ro := robust.Options{
			Opt: opt.Options{
				Mode:       opt.LatencyUnderMemory,
				MemLimit:   budget,
				TimeBudget: cfg.Budget,
				Workers:    cfg.Workers,
			},
			Budget:       budget,
			Headroom:     headroom,
			Faults:       faults.Defaults(seed, scenarios),
			ReplayFaults: scenarios > 0,
			Initial:      &opt.Result{Best: base, Stopped: opt.StopConverged},
		}
		if ckDir != "" {
			ro.CheckpointDir = filepath.Join(ckDir, dirName(w.Name))
		}
		lad, err := robust.Reoptimize(ctx, w.G, m, ro)
		if err != nil {
			fmt.Printf("%-16s %v\n", w.Name, err)
			continue
		}
		last := lad.Attempts[len(lad.Attempts)-1]
		pass, warn, fail := 0, 0, 0
		for _, c := range last.Audit.Checks {
			switch c.Status {
			case faults.Pass:
				pass++
			case faults.Warn:
				warn++
			default:
				fail++
			}
		}
		rung := "none"
		if lad.Survived {
			rung = lad.Rung.String()
		}
		replay := "off"
		if last.Replay != nil {
			replay = fmt.Sprintf("%d/%d", last.Replay.Passed, len(last.Replay.Results))
		}
		fmt.Printf("%-16s %-10s %-12s %-10s %-12s %-10s %s\n",
			w.Name, fmt.Sprintf("%.2f GB", float64(budget)/(1<<30)), rung,
			fmt.Sprintf("%.2f GB", float64(lad.Best.PeakMem)/(1<<30)),
			fmt.Sprintf("%.2f ms", lad.Best.Latency*1e3),
			fmt.Sprintf("%dp/%dw/%df", pass, warn, fail), replay)
		if lad.CheckpointErr != "" {
			fmt.Printf("  checkpoint degraded: %s\n", lad.CheckpointErr)
		}
		if !lad.Survived {
			for _, c := range last.Audit.Failed() {
				fmt.Printf("  audit failure: [%s] %s: %s\n", c.Status, c.Name, c.Detail)
			}
			if last.Replay != nil && !last.Replay.OK() {
				fmt.Printf("  %s\n", last.Replay)
			}
		}
	}
}

// dirName makes a workload name filesystem-friendly.
func dirName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, name)
}
