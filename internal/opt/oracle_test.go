package opt

import (
	"testing"
	"time"

	"magis/internal/graph"
	"magis/internal/models"
)

// TestDifferentialOracle runs the incremental and from-scratch evaluation
// paths side by side over randomized rewrite sequences through the real
// pipeline (ISSUE 7 acceptance: >= 100 sequences, identical hashes, valid
// schedules, consistent peaks).
func TestDifferentialOracle(t *testing.T) {
	seqs := 100
	if testing.Short() {
		seqs = 20
	}
	rep := RunOracle(OracleConfig{
		Model: model(),
		Graphs: []*graph.Graph{
			models.MLP(512, 64, 128, 10, 3).G,
			models.UNet(4, 64).G,
		},
		Sequences: seqs,
		Depth:     3,
		Seed:      42,
	})
	t.Log(rep.String())
	if !rep.OK() {
		t.Fatalf("differential oracle found %d mismatches:\n%s", len(rep.Mismatches), rep)
	}
	if rep.HashChecks < seqs {
		t.Fatalf("oracle compared only %d hashes over %d sequences — the walk is not exercising the pipeline", rep.HashChecks, seqs)
	}
	if rep.SchedChecks == 0 || rep.ReachChecks == 0 {
		t.Fatalf("oracle ran no schedule (%d) or reach (%d) comparisons", rep.SchedChecks, rep.ReachChecks)
	}
}

// FuzzDifferentialOracle lets the fuzzer drive the sequence seed: any
// rewrite chain the mutator discovers must keep the incremental and
// from-scratch paths in agreement. CI runs this with a short -fuzztime
// budget on top of the fixed-seed test above.
func FuzzDifferentialOracle(f *testing.F) {
	m := model()
	graphs := []*graph.Graph{models.MLP(512, 64, 128, 10, 3).G}
	f.Add(int64(1))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		rep := RunOracle(OracleConfig{
			Model:     m,
			Graphs:    graphs,
			Sequences: 1,
			Depth:     2,
			Seed:      seed,
		})
		if !rep.OK() {
			t.Fatalf("seed %d: %s", seed, rep)
		}
	})
}

// TestStrictHashSearchEquivalence runs the same bounded search with
// incremental and strict hashing and requires identical outcomes: the two
// hash paths are bit-identical, so the duplicate filter — and therefore
// the whole deterministic search trajectory — must not change.
func TestStrictHashSearchEquivalence(t *testing.T) {
	g := fatMLP()
	m := model()
	run := func(strict bool) *Result {
		res, err := Optimize(g, m, Options{
			Mode:            MemoryUnderLatency,
			LatencyLimit:    Baseline(g, m).Latency * 1.10,
			TimeBudget:      time.Minute, // MaxIterations is the binding bound
			MaxIterations:   12,
			Workers:         1,
			CheckInvariants: true,
			strictHash:      strict,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(true)
	if a.Best.PeakMem != b.Best.PeakMem || a.Best.Latency != b.Best.Latency {
		t.Fatalf("incremental (peak %d, lat %g) != strict (peak %d, lat %g)",
			a.Best.PeakMem, a.Best.Latency, b.Best.PeakMem, b.Best.Latency)
	}
	if len(a.Best.Sched) != len(b.Best.Sched) {
		t.Fatalf("schedule lengths differ: %d != %d", len(a.Best.Sched), len(b.Best.Sched))
	}
	for i := range a.Best.Sched {
		if a.Best.Sched[i] != b.Best.Sched[i] {
			t.Fatalf("schedules diverge at %d: %d != %d", i, a.Best.Sched[i], b.Best.Sched[i])
		}
	}
	if a.Stats.Filtered != b.Stats.Filtered || a.Stats.Iterations != b.Stats.Iterations {
		t.Fatalf("search trajectories diverge: filtered %d/%d, iterations %d/%d",
			a.Stats.Filtered, b.Stats.Filtered, a.Stats.Iterations, b.Stats.Iterations)
	}
}
