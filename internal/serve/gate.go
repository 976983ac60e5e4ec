package serve

// Half-open gates: the one machine behind both the per-workload circuit
// breaker (one gate per model|scale|mode key) and storage health (a
// single gate). A gate counts consecutive failures; at the threshold it
// opens for a cooloff window; after the cooloff it admits exactly one
// caller as the probe. Only the probe's success closes the gate again.
// Any failure while the gate is open — the probe's, or a straggler's
// that was already in flight — restarts the cooloff and releases the
// probe slot. A probe that settles without a verdict (shed, drained, cut
// short by its client) must hand the slot back with abandon, or the gate
// stays open forever.

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// gate is one key's state. A key has a gate only while it counts
// failures or is open; the entry is deleted when the gate closes.
type gate struct {
	fails     int       // consecutive failures while closed
	openUntil time.Time // zero while closed
	probing   bool      // the probe slot is taken
}

// gates holds the gates of one family, sharing a threshold and cooloff.
type gates struct {
	mu        sync.Mutex
	threshold int // consecutive failures to open; <=0 disables the family
	cooloff   time.Duration
	m         map[string]*gate
	recovered bool // a probe has closed a gate at least once
}

func newGates(threshold int, cooloff time.Duration) *gates {
	return &gates{threshold: threshold, cooloff: cooloff, m: map[string]*gate{}}
}

// breakerKey groups requests that exercise the same graph and search
// mode — the unit at which a poison workload fails.
func breakerKey(model string, scale float64, mode string) string {
	return fmt.Sprintf("%s|%g|%s", strings.ToLower(model), scale, mode)
}

// allow reports whether a caller may pass key's gate now. While the gate
// is open it refuses, with retry hinting how long until a probe could be
// admitted; once the cooloff has elapsed it admits exactly one caller
// with probe=true, who must settle the slot with succeed, fail or abandon.
func (gs *gates) allow(key string, now time.Time) (retry time.Duration, ok, probe bool) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	g := gs.m[key]
	switch {
	case g == nil || g.openUntil.IsZero():
		return 0, true, false
	case now.Before(g.openUntil):
		return g.openUntil.Sub(now), false, false
	case g.probing:
		return gs.cooloff, false, false
	}
	g.probing = true
	return 0, true, true
}

// succeed records a success. On a closed gate it resets the failure
// streak; an open gate closes only for the probe still holding its slot.
// It reports whether the gate closed.
func (gs *gates) succeed(key string, probe bool) (closed bool) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	g := gs.m[key]
	if g == nil {
		return false
	}
	open := !g.openUntil.IsZero()
	if open && !(probe && g.probing) {
		return false
	}
	delete(gs.m, key)
	gs.recovered = gs.recovered || open
	return open
}

// fail records a failure and reports whether it opened a closed gate.
func (gs *gates) fail(key string, now time.Time) (opened bool) {
	if gs.threshold <= 0 {
		return false
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	g := gs.m[key]
	if g == nil {
		g = &gate{}
		gs.m[key] = g
	}
	if !g.openUntil.IsZero() {
		g.openUntil, g.probing = now.Add(gs.cooloff), false
		return false
	}
	g.fails++
	if g.fails < gs.threshold {
		return false
	}
	g.openUntil = now.Add(gs.cooloff)
	return true
}

// abandon releases the probe slot of a probe that settled without a
// verdict; the next caller past the cooloff becomes the new probe.
func (gs *gates) abandon(key string) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if g := gs.m[key]; g != nil {
		g.probing = false
	}
}

// openCount reports how many gates are open, half-open included.
func (gs *gates) openCount() int {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	n := 0
	for _, g := range gs.m {
		if !g.openUntil.IsZero() {
			n++
		}
	}
	return n
}
