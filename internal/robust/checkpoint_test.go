package robust

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"magis/internal/faults"
	"magis/internal/opt"
)

// ladderScenario is a squeeze hard enough that RungAsIs fails and the
// ladder has to escalate — so an interrupted run has rungs both behind and
// ahead of it.
func ladderScenario(t *testing.T) (Options, *opt.State) {
	t.Helper()
	w := fatMLP()
	m := testModel()
	base := opt.Baseline(w.G, m)
	audit := faults.Audit(base.EvalG, base.Sched, faults.AuditConfig{Model: m})
	return squeezeOptions(1, worstEstimator(audit), base), base
}

// TestLadderCheckpointResume interrupts a checkpointed ladder between
// rungs and re-runs it on the same directory: recorded attempts replay
// without re-searching, the escalation continues, and the final outcome
// matches an uninterrupted ladder.
func TestLadderCheckpointResume(t *testing.T) {
	o, _ := ladderScenario(t)
	w := fatMLP()
	m := testModel()

	ref, err := Reoptimize(context.Background(), w.G, m, o)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Survived || ref.Rung == RungAsIs {
		t.Fatalf("scenario must need escalation (survived=%v rung=%v)", ref.Survived, ref.Rung)
	}

	dir := t.TempDir()
	o.CheckpointDir = dir

	// Interrupt after the first completed rung: cancel the context from a
	// hook the second rung's search will hit.
	ctx, cancel := context.WithCancel(context.Background())
	o.Opt.OnExpansion = func(completed int) {
		if completed >= 2 {
			cancel()
		}
	}
	// The interrupted incarnation may still report an anytime (partial)
	// outcome; what matters for crash-safety is what it persisted.
	if _, err := Reoptimize(ctx, w.G, m, o); err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if man == nil || len(man.Attempts) == 0 {
		t.Fatal("interrupted ladder persisted no manifest")
	}
	if got := len(man.Attempts); got >= len(ref.Attempts) {
		t.Fatalf("manifest records %d attempts, want fewer than the full ladder's %d", got, len(ref.Attempts))
	}

	// Second incarnation: no cancellation, same directory.
	o.Opt.OnExpansion = nil
	res, err := Reoptimize(context.Background(), w.G, m, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointErr != "" {
		t.Fatalf("checkpoint error: %s", res.CheckpointErr)
	}
	if !res.Survived || res.Rung != ref.Rung {
		t.Fatalf("resumed ladder: survived=%v rung=%v, want survived at rung %v", res.Survived, res.Rung, ref.Rung)
	}
	if len(res.Attempts) != len(ref.Attempts) {
		t.Fatalf("resumed ladder ran %d attempts, reference %d", len(res.Attempts), len(ref.Attempts))
	}
	for i := range res.Attempts {
		if res.Attempts[i].Rung != ref.Attempts[i].Rung || res.Attempts[i].Feasible != ref.Attempts[i].Feasible {
			t.Errorf("attempt %d: resumed (%v, feasible=%v), reference (%v, feasible=%v)",
				i, res.Attempts[i].Rung, res.Attempts[i].Feasible,
				ref.Attempts[i].Rung, ref.Attempts[i].Feasible)
		}
	}
	if res.Best.PeakMem != ref.Best.PeakMem {
		t.Errorf("resumed best peak %d, reference %d", res.Best.PeakMem, ref.Best.PeakMem)
	}

	// The directory documents the full escalation after success.
	man, err = loadManifest(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Attempts) != len(res.Attempts) {
		t.Errorf("final manifest records %d attempts, want %d", len(man.Attempts), len(res.Attempts))
	}
}

// TestManifestReplayFreezesReconstruction: replaying a recorded feasible
// attempt must restore exactly the snapshot's plan, even when the rung's
// snapshot still has frontier states and leftover TimeBudget — the audit
// verdict in the manifest applies to that plan, and a reconstruction that
// kept searching could silently swap in an unaudited one.
func TestManifestReplayFreezesReconstruction(t *testing.T) {
	w := fatMLP()
	m := testModel()
	base := opt.Baseline(w.G, m)
	dir := t.TempDir()
	path := rungCheckpointPath(dir, RungAsIs)

	// Build a mid-flight snapshot: generous time budget, cancelled after a
	// few expansions, so the checkpoint holds a non-empty frontier with
	// most of the budget unspent.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := opt.OptimizeCtx(ctx, w.G, m, opt.Options{
		Mode:       opt.LatencyUnderMemory,
		MemLimit:   base.PeakMem,
		TimeBudget: time.Minute,
		Workers:    1,
		Checkpoint: opt.Checkpoint{Path: path, EveryN: 1},
		OnExpansion: func(completed int) {
			if completed >= 3 {
				cancel()
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	info, err := opt.ReadCheckpointInfo(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Frontier == 0 || info.Iterations == 0 {
		t.Fatalf("scenario needs a resumable mid-flight snapshot, got frontier=%d iterations=%d", info.Frontier, info.Iterations)
	}

	// Pretend a prior incarnation recorded this rung as its feasible
	// outcome, then replay the ladder on the directory.
	if err := saveManifest(nil, dir, []Attempt{{Rung: RungAsIs, PeakMem: info.BestPeakMem, Feasible: true}}); err != nil {
		t.Fatal(err)
	}
	res, err := Reoptimize(context.Background(), w.G, m, Options{
		Opt:           deterministicOpt(1),
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Survived || res.Rung != RungAsIs {
		t.Fatalf("replay: survived=%v rung=%v, want the recorded rung", res.Survived, res.Rung)
	}
	if got := res.Opt.Stats.Iterations; got != info.Iterations {
		t.Errorf("reconstruction ran %d iterations, snapshot recorded %d — resume was not frozen", got, info.Iterations)
	}
	if res.Best.PeakMem != info.BestPeakMem {
		t.Errorf("reconstructed best peak %d, snapshot recorded %d", res.Best.PeakMem, info.BestPeakMem)
	}
}

// TestLadderManifestRejectsCorruption: a mangled manifest is a hard,
// descriptive error, not a silent restart.
func TestLadderManifestRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ladder.json"), []byte(`{"magic":"nope","version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	o, _ := ladderScenario(t)
	o.CheckpointDir = dir
	w := fatMLP()
	if _, err := Reoptimize(context.Background(), w.G, testModel(), o); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}
