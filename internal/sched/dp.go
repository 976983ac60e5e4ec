package sched

import (
	"cmp"
	"math/bits"
	"slices"

	"magis/internal/graph"
)

// Scheduler finds memory-minimizing topological orders. Small sub-problems
// are solved exactly with the dynamic program over scheduled-sets used by
// Serenity (the paper's DpSchedule, Algorithm 2 line 11); medium ones fall
// back to beam search over the same state space; large ones to a greedy
// beam of width 1. The zero value is ready to use with sensible defaults.
type Scheduler struct {
	// MaxExact is the largest sub-problem solved with the exact DP.
	MaxExact int
	// BeamLimit is the largest sub-problem solved with beam search.
	BeamLimit int
	// BeamWidth is the beam width for medium sub-problems.
	BeamWidth int

	// Reused work storage; a Scheduler is therefore not safe for
	// concurrent use (the search gives each worker its own). The beam
	// scheduler prices every fission region of every search candidate, so
	// its per-step state lives in slots that persist across calls instead
	// of per-entry allocations.
	vw          view     // member set being scheduled
	pb          problem  // segment being solved
	pos         []int32  // IncrementalR: NodeID -> old schedule position
	layer, next []uint64 // exact DP frontiers
	slots       []beamEntry
	cands       []beamCand
	blist       []*beamEntry
}

func (sc *Scheduler) maxExact() int {
	if sc.MaxExact > 0 {
		return sc.MaxExact
	}
	return 16
}

func (sc *Scheduler) beamLimit() int {
	if sc.BeamLimit > 0 {
		return sc.BeamLimit
	}
	return 400
}

func (sc *Scheduler) beamWidth() int {
	if sc.BeamWidth > 0 {
		return sc.BeamWidth
	}
	return 8
}

// DpSchedule returns a peak-memory-minimizing execution order for the
// standalone graph g (exact for small g, approximate beyond MaxExact).
func (sc *Scheduler) DpSchedule(g *graph.Graph) Schedule {
	sc.vw.reset(g, g.NodeIDs())
	return sc.solve(sc.vw.all(), nil)
}

// solve schedules the members seg (ascending ranks) of sc.vw as one
// sub-problem and appends the order to dst.
func (sc *Scheduler) solve(seg []int32, dst Schedule) Schedule {
	p := &sc.pb
	p.load(&sc.vw, seg)
	n := len(p.ids)
	switch {
	case n == 0:
		return dst
	case n == 1:
		return append(dst, p.ids[0])
	case n <= sc.maxExact():
		return sc.exact(p, dst)
	case n <= sc.beamLimit():
		dst, _ = sc.beam(p, sc.beamWidth(), dst)
	default:
		dst, _ = sc.beam(p, 1, dst)
	}
	return dst
}

// problem is the indexed form of a scheduling sub-problem: the members of
// a view segment in smallest-ID-first topological order (the order Kahn's
// algorithm with a sorted frontier gives), with adjacency restricted to
// the segment. All tables are reused across loads.
type problem struct {
	adjacency                // over topological indices
	ids       []graph.NodeID // index -> node
	size      []int64
	trans     []int64
	predMask  []uint64 // exact DP only, n <= 64
	sucMask   []uint64

	order, frontier []int32
}

// ensure returns s resized to n, reallocating only when its capacity is
// short; the contents are unspecified.
func ensure[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// load (re)builds p for the members seg (ascending ranks) of v. The
// result is valid until the next load. v.at marks the segment while it
// is read and is all -1 again afterwards (view.reset restores it if a
// load panics half-way).
func (p *problem) load(v *view, seg []int32) {
	n := len(seg)
	at := v.at
	for j, r := range seg {
		at[r] = int32(j)
	}
	// Kahn's algorithm over segment positions, always emitting the
	// smallest ready one; positions ascend with node IDs. indeg borrows
	// the consumer-count buffer, which invert refills below.
	indeg := ensure(p.cnt, n)
	frontier := p.frontier[:0]
	for j, r := range seg {
		indeg[j] = 0
		for _, u := range v.preds[r] {
			if at[u] >= 0 {
				indeg[j]++
			}
		}
		if indeg[j] == 0 {
			frontier = append(frontier, int32(j))
		}
	}
	order := p.order[:0]
	for head := 0; head < len(frontier); head++ {
		j := frontier[head]
		order = append(order, j)
		for _, s := range v.sucs[seg[j]] {
			k := at[s]
			if k < 0 {
				continue
			}
			if indeg[k]--; indeg[k] == 0 {
				i, _ := slices.BinarySearch(frontier[head+1:], k)
				frontier = slices.Insert(frontier, head+1+i, k)
			}
		}
	}
	if len(order) != n {
		panic("sched: cycle in scheduling sub-problem")
	}
	p.order, p.frontier, p.cnt = order, frontier, indeg
	for i, j := range order {
		at[seg[j]] = int32(i)
	}

	p.ids = ensure(p.ids, n)
	p.size = ensure(p.size, n)
	p.trans = ensure(p.trans, n)
	p.begin(n)
	for i, j := range order {
		r := seg[j]
		p.ids[i] = v.ids[r]
		node := v.g.Node(p.ids[i])
		p.size[i] = OutDeviceBytes(node)
		p.trans[i] = ExecTransientBytes(node)
		base := len(p.predArena)
		for _, u := range v.preds[r] {
			if k := at[u]; k >= 0 {
				p.predArena = append(p.predArena, k)
			}
		}
		p.setPreds(i, base)
	}
	p.invert()
	for _, r := range seg {
		at[r] = -1
	}
	if n <= 64 {
		p.predMask = ensure(p.predMask, n)
		p.sucMask = ensure(p.sucMask, n)
		clear(p.predMask)
		clear(p.sucMask)
		for i, ps := range p.preds {
			for _, j := range ps {
				p.predMask[i] |= 1 << j
				p.sucMask[j] |= 1 << i
			}
		}
	}
}

type dpEntry struct {
	peak  int64
	alive int64
	prev  uint64
	last  int8
}

// exact runs the exponential DP over subsets (n <= 64 by construction)
// and appends the order to dst.
func (sc *Scheduler) exact(p *problem, dst Schedule) Schedule {
	// The greedy order's peak bounds the DP; it is also the answer when
	// the bound prunes every path.
	start := len(dst)
	dst, bound := sc.beam(p, 1, dst)

	n := len(p.ids)
	memo := map[uint64]dpEntry{0: {}}
	frontier, next := sc.layer[:0], sc.next[:0]
	frontier = append(frontier, 0)
	full := uint64(1)<<n - 1
	for layer := 0; layer < n; layer++ {
		next = next[:0]
		for _, mask := range frontier {
			e := memo[mask]
			for v := 0; v < n; v++ {
				bit := uint64(1) << v
				if mask&bit != 0 || p.predMask[v]&mask != p.predMask[v] {
					continue
				}
				nm := mask | bit
				execMem := e.alive + p.size[v] + p.trans[v]
				peak := e.peak
				if execMem > peak {
					peak = execMem
				}
				if peak > bound {
					continue
				}
				alive := e.alive + p.size[v]
				// Free predecessors fully consumed by nm (and only those:
				// adding v can complete only its own predecessors).
				for _, u := range p.preds[v] {
					if p.sucMask[u]&nm == p.sucMask[u] {
						alive -= p.size[u]
					}
				}
				old, ok := memo[nm]
				if !ok || peak < old.peak || (peak == old.peak && alive < old.alive) {
					memo[nm] = dpEntry{peak: peak, alive: alive, prev: mask, last: int8(v)}
					next = append(next, nm)
				}
			}
		}
		// The next layer: every mask improved in this one, ascending.
		slices.Sort(next)
		frontier, next = slices.Compact(next), frontier
	}
	sc.layer, sc.next = frontier, next
	if _, ok := memo[full]; !ok {
		// Pruning removed every path (bound was already optimal).
		return dst
	}
	order := dst[start:]
	for mask := full; mask != 0; {
		e := memo[mask]
		order[bits.OnesCount64(mask)-1] = p.ids[e.last]
		mask = e.prev
	}
	return dst
}

// beamEntry is one scheduled-prefix state, living in a persistent slot.
type beamEntry struct {
	rem   []int32 // unscheduled distinct-consumer count per node
	ready []int32 // unscheduled predecessor count per node
	list  []int32 // ready, unscheduled nodes, ascending
	order []int32
	alive int64
	peak  int64
	slot  int // index in Scheduler.slots
}

// freedIf returns bytes released when v executes on top of e: v's
// predecessors for which v is the last unscheduled consumer.
func (e *beamEntry) freedIf(p *problem, v int32) int64 {
	var freed int64
	for _, u := range p.preds[v] {
		if e.rem[u] == 1 {
			freed += p.size[u]
		}
	}
	return freed
}

type beamCand struct {
	from  int32 // parent slot
	v     int32
	peak  int64
	delta int64 // net alive change; lower is better
}

// candCmp orders candidates by (peak, delta, v). Candidates from different
// parents can compare equal, and which of them survives is then decided
// by where pdqsort places equal elements — part of the schedule's
// contract, so the selection below must stay a full slices.SortFunc.
func candCmp(a, b beamCand) int {
	if c := cmp.Compare(a.peak, b.peak); c != 0 {
		return c
	}
	if c := cmp.Compare(a.delta, b.delta); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

// beam runs width-w beam search over the DP state space; w = 1 is the
// greedy list scheduler used for very large partitions. It appends the
// best order to dst and also returns that order's peak. Beam states live
// in 2w persistent slots (parents in one half, children built in the
// other), so a whole run performs no per-step allocation. Each state
// keeps its ready nodes in an ascending list, so the candidates of a
// step come out in node order without scanning unready nodes.
func (sc *Scheduler) beam(p *problem, w int, dst Schedule) (Schedule, int64) {
	n := len(p.ids)
	if cap(sc.slots) < 2*w {
		sc.slots = make([]beamEntry, 2*w)
	} else {
		sc.slots = sc.slots[:2*w]
	}
	for i := range sc.slots {
		e := &sc.slots[i]
		e.slot = i
		e.rem = ensure(e.rem, n)
		e.ready = ensure(e.ready, n)
		if cap(e.order) < n {
			e.order = make([]int32, 0, n)
			e.list = make([]int32, 0, n)
		}
	}
	start := &sc.slots[0]
	start.list = start.list[:0]
	for v := 0; v < n; v++ {
		start.rem[v] = int32(len(p.sucs[v]))
		start.ready[v] = int32(len(p.preds[v]))
		if start.ready[v] == 0 {
			start.list = append(start.list, int32(v))
		}
	}
	start.alive, start.peak = 0, 0
	start.order = start.order[:0]

	beam := append(sc.blist[:0], start)
	cands := sc.cands[:0]
	half := 0
	for step := 0; step < n; step++ {
		cands = cands[:0]
		for _, e := range beam {
			from := int32(e.slot)
			for _, v := range e.list {
				peak := e.peak
				if m := e.alive + p.size[v] + p.trans[v]; m > peak {
					peak = m
				}
				cands = append(cands, beamCand{from, v, peak, p.size[v] - e.freedIf(p, v)})
			}
		}
		if w == 1 {
			// One parent, so every key is distinct and the sort's first
			// candidate is the linear minimum.
			best := 0
			for k := 1; k < len(cands); k++ {
				if candCmp(cands[k], cands[best]) < 0 {
					best = k
				}
			}
			cands[0] = cands[best]
		} else {
			slices.SortFunc(cands, candCmp)
		}
		if len(cands) > w {
			cands = cands[:w]
		}
		half = 1 - half
		next := sc.slots[half*w : half*w+len(cands)]
		beam = beam[:0]
		for k := range cands {
			c := &cands[k]
			e, ne := &sc.slots[c.from], &next[k]
			copy(ne.rem, e.rem)
			copy(ne.ready, e.ready)
			ne.order = append(ne.order[:0], e.order...)
			ne.order = append(ne.order, c.v)
			ne.alive = e.alive + c.delta
			ne.peak = c.peak
			for _, u := range p.preds[c.v] {
				ne.rem[u]--
			}
			// The child's ready list is the parent's without c.v, merged
			// with the consumers c.v makes ready (ascending, and never
			// already in the parent's list).
			list, i := ne.list[:0], 0
			for _, s := range p.sucs[c.v] {
				if ne.ready[s]--; ne.ready[s] != 0 {
					continue
				}
				for ; i < len(e.list) && e.list[i] < s; i++ {
					if e.list[i] != c.v {
						list = append(list, e.list[i])
					}
				}
				list = append(list, s)
			}
			for ; i < len(e.list); i++ {
				if e.list[i] != c.v {
					list = append(list, e.list[i])
				}
			}
			ne.list = list
			beam = append(beam, ne)
		}
	}
	sc.cands = cands[:0]
	best := beam[0]
	for _, e := range beam[1:] {
		if e.peak < best.peak {
			best = e
		}
	}
	for _, v := range best.order {
		dst = append(dst, p.ids[v])
	}
	sc.blist = beam[:0]
	return dst, best.peak
}
