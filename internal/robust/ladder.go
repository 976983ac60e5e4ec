// Package robust is the adaptive re-optimization ladder: given a plan
// that fails the differential audit or the fault-injected replay
// (internal/faults), it re-runs the M-Optimizer through an escalating
// sequence of degradation rungs until a plan survives. Each rung trades a
// little more latency for a lot more safety margin:
//
//	as-is       the plan exactly as the base search produced it
//	headroom    re-optimize with the effective budget shrunk by a
//	            headroom margin, so transient co-tenant squeezes fit
//	aggressive  additionally raise re-mat/swap aggressiveness (more rule
//	            sites and candidates per expansion, more iterations)
//	micro-batch additionally pre-split the whole graph into sequential
//	            micro-batches (the §7.2.4 whole-graph F-Trans) before
//	            searching — the last-resort memory floor
//
// The ladder reuses the search hardening of internal/opt unchanged:
// context cancellation layers under each rung's TimeBudget, rule panics
// stay quarantined per run, and Options.Workers parallelizes candidate
// evaluation. Because both the search (for any worker count) and the
// fault injector are deterministic, the surviving rung and every attached
// report are reproducible for a fixed fault seed.
package robust

import (
	"context"
	"fmt"
	"time"

	"magis/internal/baselines"
	"magis/internal/cost"
	"magis/internal/faults"
	"magis/internal/fsatomic"
	"magis/internal/ftree"
	"magis/internal/graph"
	"magis/internal/opt"
	"magis/internal/verify"
)

// Rung identifies one level of the degradation ladder.
type Rung int

const (
	// RungAsIs evaluates the plan the base options produce.
	RungAsIs Rung = iota
	// RungHeadroom shrinks the effective memory budget by the headroom
	// margin before re-optimizing.
	RungHeadroom
	// RungAggressive also raises rule aggressiveness: twice the rule sites
	// and F-Tree candidates per expansion and twice the iteration budget.
	RungAggressive
	// RungMicroBatch also pre-splits the whole graph into sequential
	// micro-batches before searching.
	RungMicroBatch

	numRungs
)

// String names the rung for reports.
func (r Rung) String() string {
	switch r {
	case RungAsIs:
		return "as-is"
	case RungHeadroom:
		return "headroom"
	case RungAggressive:
		return "aggressive"
	case RungMicroBatch:
		return "micro-batch"
	default:
		return fmt.Sprintf("rung(%d)", int(r))
	}
}

// Options configures the ladder.
type Options struct {
	// Opt is the base search configuration; rungs above RungAsIs override
	// its Mode/MemLimit (and, higher up, aggressiveness knobs).
	Opt opt.Options
	// Budget is the device budget every plan must fit. 0 defaults to
	// Opt.MemLimit (LatencyUnderMemory mode) or the device capacity.
	Budget int64
	// Headroom is the fractional budget margin RungHeadroom reserves
	// (default 0.10; RungAggressive and RungMicroBatch reserve 1.5x).
	Headroom float64
	// Faults configures the replay; Scenarios <= 0 with all magnitudes
	// zero still runs the audit but skips fault replay.
	Faults faults.Config
	// ReplayFaults enables fault-injected replay as a feasibility gate.
	ReplayFaults bool
	// Verify adds numeric plan verification (internal/verify) as a
	// feasibility gate: every rung's plan — in particular a repaired one —
	// is executed against its memory plan's arena offsets and
	// cross-checked against the input graph before it may survive.
	Verify bool
	// VerifySeed seeds the verification inputs.
	VerifySeed uint64
	// Audit bounds the differential audit (Model and Budget are filled in
	// by the ladder).
	Audit faults.AuditConfig
	// MicroBatchFactor is the whole-graph fission factor of RungMicroBatch
	// (default 2).
	MicroBatchFactor int
	// MaxRung caps escalation (default RungMicroBatch).
	MaxRung Rung
	// Initial, when set, is reused as RungAsIs's search result instead of
	// re-running the base search (the CLI passes its already-finished run).
	Initial *opt.Result
	// CheckpointDir makes the ladder crash-safe: rung searches checkpoint
	// into the directory and completed attempts are recorded in an atomic
	// manifest, so a Reoptimize on the same directory after a crash skips
	// finished rungs and resumes the interrupted one. Empty disables
	// checkpointing. See internal/robust/checkpoint.go for the layout.
	CheckpointDir string
	// FS is the filesystem the manifest and rung checkpoints are written
	// through; nil means the real OS. Chaos harnesses inject storage
	// faults here.
	FS fsatomic.FS
}

func (o Options) withDefaults(model *cost.Model) Options {
	if o.Headroom <= 0 {
		o.Headroom = 0.10
	}
	if o.MicroBatchFactor < 2 {
		o.MicroBatchFactor = 2
	}
	if o.MaxRung <= 0 || o.MaxRung >= numRungs {
		o.MaxRung = RungMicroBatch
	}
	if o.Budget <= 0 {
		if o.Opt.Mode == opt.LatencyUnderMemory && o.Opt.MemLimit > 0 {
			o.Budget = o.Opt.MemLimit
		} else if model != nil && model.Dev != nil {
			o.Budget = model.Dev.Capacity
		}
	}
	return o
}

// Attempt records one rung's outcome.
type Attempt struct {
	// Rung is the ladder level attempted.
	Rung Rung
	// MemLimit is the effective memory limit the rung searched under.
	MemLimit int64
	// PeakMem and Latency are the rung's best-plan measurements.
	PeakMem int64
	Latency float64
	// Stopped is why the rung's search ended.
	Stopped opt.StopReason
	// Audit is the differential audit of the rung's plan.
	Audit *faults.AuditReport
	// Replay is the fault-injected replay report (nil when replay is off).
	Replay *faults.ReplayReport
	// Verify is the numeric verification report (nil when verification is
	// off — including in manifests written before the gate existed).
	Verify *verify.Report `json:",omitempty"`
	// Feasible reports that the plan survived audit, replay, and
	// verification.
	Feasible bool
	// Err is set when the rung itself could not run (e.g. the micro-batch
	// split found no batch dimension); the ladder then escalates past it.
	Err string
}

// Result is the ladder's outcome.
type Result struct {
	// Attempts lists every rung tried, in order.
	Attempts []Attempt
	// Survived reports that some rung produced a feasible plan.
	Survived bool
	// Rung is the surviving rung (valid only when Survived).
	Rung Rung
	// Repaired reports that the surviving plan needed escalation beyond
	// the base search.
	Repaired bool
	// Best is the surviving plan's state (or the base plan when nothing
	// survived, so callers still degrade gracefully).
	Best *opt.State
	// Opt is the surviving (or fallback) search result.
	Opt *opt.Result
	// CheckpointErr records the first ladder-manifest write failure (empty
	// on a clean run or when checkpointing is off); the ladder itself
	// continues un-checkpointed.
	CheckpointErr string
}

// Summary renders the ladder outcome for logs and CLI output.
func (r *Result) Summary() string {
	if r.Survived {
		return fmt.Sprintf("plan feasible at rung %q after %d attempt(s)", r.Rung, len(r.Attempts))
	}
	return fmt.Sprintf("no feasible plan after %d attempt(s); returning best effort", len(r.Attempts))
}

// Reoptimize walks the ladder until a rung's plan passes the differential
// audit and (when enabled) the fault-injected replay. The search hardening
// of opt.OptimizeCtx applies per rung; cancelling ctx stops the ladder at
// the current rung with the attempts recorded so far.
func Reoptimize(ctx context.Context, g *graph.Graph, model *cost.Model, o Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o = o.withDefaults(model)
	res := &Result{}
	startRung := RungAsIs
	if o.CheckpointDir != "" {
		if err := fsatomic.Or(o.FS).MkdirAll(o.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("robust: checkpoint dir: %w", err)
		}
		man, err := loadManifest(o.FS, o.CheckpointDir)
		if err != nil {
			return nil, err
		}
		if man != nil {
			// Replay the prior incarnation's completed rungs without
			// re-running them. States are recovered from the rungs' search
			// checkpoints via frozenResume, which restores the snapshot's
			// best plan without spending any leftover TimeBudget — the
			// recorded attempt was audited against exactly that plan.
			res.Attempts = man.Attempts
			startRung = Rung(len(man.Attempts))
			restored := false
			for i, a := range man.Attempts {
				if a.Err != "" {
					continue
				}
				if !a.Feasible {
					// Earliest successful rung = graceful-degradation
					// fallback.
					if !restored {
						if or, err := frozenResume(ctx, o.FS, rungCheckpointPath(o.CheckpointDir, a.Rung), model); err == nil {
							res.Best, res.Opt = or.Best, or
						}
						restored = true
					}
					continue
				}
				// A recorded feasible attempt means the prior incarnation
				// finished the ladder: reconstruct its outcome instead of
				// escalating past the surviving rung.
				or, err := frozenResume(ctx, o.FS, rungCheckpointPath(o.CheckpointDir, a.Rung), model)
				if err != nil && a.Rung == RungAsIs && o.Initial != nil {
					or, err = o.Initial, nil // as-is ran off Initial, no snapshot
				}
				if err != nil {
					// Surviving plan unrecoverable (deleted snapshot):
					// deterministically re-run from that rung.
					res.Attempts = man.Attempts[:i]
					startRung = a.Rung
					break
				}
				res.Survived = true
				res.Rung = a.Rung
				res.Repaired = a.Rung > RungAsIs
				res.Best, res.Opt = or.Best, or
				return res, nil
			}
		}
	}
	for rung := startRung; rung <= o.MaxRung; rung++ {
		att := Attempt{Rung: rung}
		or, err := runRung(ctx, g, model, o, rung, &att)
		if err != nil {
			att.Err = err.Error()
			res.Attempts = append(res.Attempts, att)
			if ctx.Err() != nil {
				break
			}
			persistLadder(o, res)
			continue
		}
		st := or.Best
		att.PeakMem = st.PeakMem
		att.Latency = st.Latency
		att.Stopped = or.Stopped
		ac := o.Audit
		ac.Model = model
		if ac.Budget <= 0 {
			ac.Budget = o.Budget
		}
		att.Audit = faults.Audit(st.EvalG, st.Sched, ac)
		feasible := att.Audit.OK()
		if o.ReplayFaults {
			att.Replay = faults.Replay(st.EvalG, st.Sched, model, o.Budget, o.Faults)
			feasible = feasible && att.Replay.OK()
		}
		if o.Verify {
			att.Verify = verifyAttempt(g, st, o.VerifySeed)
			feasible = feasible && att.Verify.OK()
		}
		att.Feasible = feasible
		res.Attempts = append(res.Attempts, att)
		if res.Best == nil {
			res.Best, res.Opt = st, or // graceful-degradation fallback
		}
		if feasible {
			res.Survived = true
			res.Rung = rung
			res.Repaired = rung > RungAsIs
			res.Best, res.Opt = st, or
			// A feasible-but-cancelled rung still returns (the search is
			// anytime) but stays out of the manifest: its snapshot holds a
			// half-finished search, so the next incarnation re-enters the
			// rung rather than trusting a partial result as final.
			if ctx.Err() == nil {
				persistLadder(o, res)
			}
			return res, nil
		}
		if ctx.Err() != nil {
			// Interrupted mid-rung: leave this attempt out of the manifest
			// so the next incarnation re-enters the rung through its search
			// checkpoint instead of skipping it half-done.
			break
		}
		persistLadder(o, res)
	}
	return res, nil
}

// verifyAttempt numerically verifies one rung's plan against the input
// graph (see internal/verify). input may be nil (e.g. a resumed search):
// the cross-check then degrades to the arena-safety self-check. A
// materialization failure is itself a verification failure — a plan that
// cannot be lowered to a concrete graph is not executable.
func verifyAttempt(input *graph.Graph, st *opt.State, seed uint64) *verify.Report {
	ft := st.FT
	if ft == nil { // baseline states carry no F-Tree
		ft = &ftree.Tree{}
	}
	mg, err := ft.Materialize(st.G)
	if err != nil {
		return &verify.Report{Err: fmt.Sprintf("materialize: %v", err)}
	}
	return verify.Check(input, mg, seed)
}

// frozenResume restores a completed rung's snapshot without continuing
// the search. A plain Resume of a time-budget-bound rung would keep
// searching under the leftover budget and could silently swap in a plan
// the recorded audit never saw; shrinking the budget to a nanosecond makes
// the resume exit at the loop gate with exactly the snapshot's best.
func frozenResume(ctx context.Context, fsys fsatomic.FS, path string, model *cost.Model) (*opt.Result, error) {
	return opt.Resume(ctx, fsys, path, model, func(o *opt.Options) { o.TimeBudget = time.Nanosecond })
}

// persistLadder records the completed attempts in the manifest. A write
// failure degrades the ladder to un-checkpointed (mirroring the search's
// checkpoint semantics) and is reported via Result.CheckpointErr.
func persistLadder(o Options, res *Result) {
	if o.CheckpointDir == "" {
		return
	}
	if err := saveManifest(o.FS, o.CheckpointDir, res.Attempts); err != nil && res.CheckpointErr == "" {
		res.CheckpointErr = err.Error()
	}
}

// runRung configures and executes one rung's search. With checkpointing
// on, a rung whose snapshot file already exists (a prior incarnation
// crashed inside it) is resumed instead of restarted.
func runRung(ctx context.Context, g *graph.Graph, model *cost.Model, o Options, rung Rung, att *Attempt) (*opt.Result, error) {
	oo := o.Opt
	gg := g
	switch rung {
	case RungAsIs:
		att.MemLimit = oo.MemLimit
		if o.Initial != nil {
			if o.Initial.Best == nil {
				return nil, fmt.Errorf("robust: initial result has no best state")
			}
			return o.Initial, nil
		}
	case RungHeadroom:
		att.MemLimit = shrink(o.Budget, o.Headroom)
		oo.Mode = opt.LatencyUnderMemory
		oo.MemLimit = att.MemLimit
	case RungAggressive, RungMicroBatch:
		att.MemLimit = shrink(o.Budget, 1.5*o.Headroom)
		oo.Mode = opt.LatencyUnderMemory
		oo.MemLimit = att.MemLimit
		oo.MaxSites = raised(oo.MaxSites, 8)
		oo.MaxCandidates = raised(oo.MaxCandidates, 64)
		if oo.MaxIterations > 0 {
			oo.MaxIterations *= 2
		}
		if rung == RungMicroBatch {
			split, err := baselines.SplitBatch(g, o.MicroBatchFactor)
			if err != nil {
				return nil, fmt.Errorf("robust: micro-batch fission: %w", err)
			}
			gg = split
		}
	}
	if o.CheckpointDir != "" {
		path := rungCheckpointPath(o.CheckpointDir, rung)
		if _, err := fsatomic.Or(o.FS).Stat(path); err == nil {
			return opt.Resume(ctx, o.FS, path, model, nil)
		}
		oo.Checkpoint = opt.Checkpoint{
			Path:     path,
			EveryN:   o.Opt.Checkpoint.EveryN,
			Interval: o.Opt.Checkpoint.Interval,
			Label:    "ladder " + rung.String(),
			FS:       o.FS,
		}
	}
	return opt.OptimizeCtx(ctx, gg, model, oo)
}

// shrink reserves a fractional margin off the budget.
func shrink(budget int64, margin float64) int64 {
	if budget <= 0 {
		return budget
	}
	if margin > 0.9 {
		margin = 0.9
	}
	return int64(float64(budget) * (1 - margin))
}

// raised doubles a knob from its explicit or default value.
func raised(v, def int) int {
	if v <= 0 {
		v = def
	}
	return 2 * v
}
