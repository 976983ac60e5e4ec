// Command perfbench is the repository's fixed-work benchmark. It drives
// the optimizer and the service through their public surfaces and prints,
// as its last line, one JSON object with the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) named in BENCHMARK.json.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload optimize --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	optimize        offline searches over a fixed set of the paper's topologies
//	serve-cache     an in-process server with a plan cache, open loop below capacity
//	serve-overload  the same server without a cache, open loop above capacity
//
// Load comes from this one process, with at most two busy goroutines
// driving HTTP connections. End-to-end metrics are measured untraced;
// --trace 1 records a span around every call the benchmark makes (kept in
// memory and written to .bench_build/perfbench/ when the run ends) and
// reports the per-layer numbers from them.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runCfg is what every workload receives.
type runCfg struct {
	seed   int64
	window time.Duration
	// tr is nil in an untraced run.
	tr *tracer
	// dir is the scratch directory inside the checkout (plan caches,
	// span files).
	dir string
}

// report is a workload's outcome.
type report struct {
	attempted, failed int
	// mismatches lists every correctness-check failure.
	mismatches []string
	e2e        map[string]float64
	layer      map[string]float64
	// accounting is printed beside the metrics (per-phase request
	// outcomes of the serve workloads).
	accounting any
}

func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var workloads = map[string]func(context.Context, runCfg) (*report, error){
	"optimize":       runOptimize,
	"serve-cache":    runServeCache,
	"serve-overload": runServeOverload,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "optimize | serve-cache | serve-overload")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "measured window in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := runCfg{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		dir:    filepath.Join(".bench_build", "perfbench"),
	}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	calib := calibrate()
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d seconds=%d trace=%d host.calib_ms=%.3f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *workload, *seed, *seconds, *trace, calib)

	rep, err := fn(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if rep.accounting != nil {
		b, _ := json.Marshal(rep.accounting)
		fmt.Printf("accounting %s\n", b)
	}
	for _, m := range rep.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: correctness: %s\n", m)
	}

	printAll("end_to_end", rep.e2e)
	if cfg.tr != nil {
		printAll("per_layer", rep.layer)
	}
	want, values := spec.EndToEnd, rep.e2e
	if cfg.tr != nil {
		want, values = spec.PerLayer, rep.layer
		values["host.calib_ms"] = calib
		path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	var missing []string
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, fmt.Sprintf("%s=%v", m.Name, v))
			continue
		}
		metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "perfbench: %s: no finite value for %s\n", *workload, strings.Join(missing, ", "))
		return 1
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(rep.mismatches) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if len(rep.mismatches) > 0 {
		return 1
	}
	return 0
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New(path + " names no metrics")
	}
	return &s, nil
}

// calibrate times a fixed stdlib-only CPU workload (sorting and hashing
// a seeded buffer) and returns the median of five runs in milliseconds,
// so figures from different hosts can be put side by side.
func calibrate() float64 {
	r := rand.New(rand.NewSource(1))
	base := make([]int, 1<<18)
	for i := range base {
		base[i] = r.Int()
	}
	buf := make([]byte, 4<<20)
	r.Read(buf)
	xs := make([]int, len(base))
	var ms []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		copy(xs, base)
		sort.Ints(xs)
		sha256.Sum256(buf)
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return median(ms)
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// setupMedian runs set-up three times, closing all but the last result,
// and returns that result with the median set-up time in seconds. It
// collects the garbage set-up left behind before returning, so the
// measured window does not pay for set-up's heap.
func setupMedian[T any](build func() (T, error), close func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < 3; i++ {
		if i > 0 {
			close(last)
		}
		t := time.Now()
		v, err := build()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		last = v
	}
	debug.FreeOSMemory()
	return last, median(times), nil
}

// printAll prints every value a run computed, sorted by name, on one
// line ahead of the result.
func printAll(label string, vals map[string]float64) {
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%.6g", k, vals[k])
	}
	fmt.Printf("%s%s\n", label, b.String())
}
