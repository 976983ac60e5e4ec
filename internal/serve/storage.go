package serve

// Storage-degraded serving: the service must outlive its disk. Every
// persistence surface — plan-cache writes, search checkpoints, restart
// recovery — runs through an injectable filesystem (internal/fsatomic,
// faulted in tests by internal/errfs), and one gate (gate.go) decides
// whether jobs may touch it at all:
//
//	healthy   -> degraded    after StorageThreshold consecutive faults
//	degraded  -> (probe)     after StorageCooloff, one caller probes the
//	                         disk with a real write; any fault restarts
//	                         the degraded window
//	(probe)   -> recovered   a successful probe re-enables persistence
//
// While degraded, jobs keep running — uncached and uncheckpointed, their
// results labeled degraded_storage — instead of erroring: a full disk
// costs durability and cache hits, never answers. All persistence shares
// the one gate (unlike the per-workload breaker): a full disk is full for
// everyone.

import (
	"errors"
	"path/filepath"
	"time"

	"magis/internal/fsatomic"
	"magis/internal/opt"
)

// Persistence health states, as reported by /healthz and /metrics.
const (
	storageHealthy   = "healthy"
	storageDegraded  = "degraded"
	storageRecovered = "recovered"
)

// storageState names the storage gate's state.
func storageState(gs *gates) string {
	if gs.openCount() > 0 {
		return storageDegraded
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.recovered {
		return storageRecovered
	}
	return storageHealthy
}

// noteStorageFault counts one persistence fault against the health
// machine and logs the transition when it degrades.
func (s *Server) noteStorageFault(op string, err error) {
	s.met.add("storage_faults", 1)
	if s.storage.fail("", time.Now()) {
		s.cfg.Logf("serve: storage degraded after repeated faults (%s: %v); serving uncached and uncheckpointed", op, err)
	} else {
		s.cfg.Logf("serve: storage fault (%s): %v", op, err)
	}
}

// storageAllowed decides whether a job may touch persistence, running
// the recovery probe inline when one is due. Persistence that is not
// configured (no checkpoint dir, no cache) never degrades anything.
func (s *Server) storageAllowed() bool {
	if s.cfg.CheckpointDir == "" && s.cfg.Cache == nil {
		return true
	}
	_, ok, probe := s.storage.allow("", time.Now())
	if !ok {
		return false
	}
	if !probe {
		return true
	}
	if err := s.probeStorage(); err != nil {
		s.noteStorageFault("probe", err)
		return false
	}
	if s.storage.succeed("", true) {
		s.met.add("storage_recoveries", 1)
		s.cfg.Logf("serve: storage recovered after successful probe")
	}
	return true
}

// probeStorage exercises the real write path — temp file, sync, rename,
// remove — through the server's (possibly fault-injected) filesystem.
// With no checkpoint directory to write into, the probe degrades to
// optimistic: the next real cache write delivers the verdict.
func (s *Server) probeStorage() error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	path := filepath.Join(s.cfg.CheckpointDir, ".storage-probe")
	if err := fsatomic.WriteFileFS(s.fsys, path, []byte("probe\n"), 0o644); err != nil {
		return err
	}
	return s.fsys.Remove(path)
}

// noteSearchTelemetry settles a finished search's storage and governor
// evidence: a checkpoint write failure is a storage fault (transient or
// not — the flush already retried nothing, and a degraded machine probes
// its way back), successful flushes are health signals, and governor
// activity lands on the /metrics counters.
func (s *Server) noteSearchTelemetry(res *opt.Result) {
	if res == nil {
		return
	}
	if ck := res.Checkpoint; ck != nil {
		if ck.Err != "" {
			s.noteStorageFault("checkpoint", errors.New(ck.Err))
		} else if ck.Writes > 0 {
			s.storage.succeed("", false)
		}
	}
	if g := res.Governor; g != nil {
		s.met.add("governor_evicted_states", int64(g.EvictedStates))
		if res.Stopped == opt.StopMemBudget {
			s.met.add("governor_stops", 1)
		}
	}
}
