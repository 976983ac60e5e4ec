package sched

import (
	"slices"

	"magis/internal/graph"
)

// Incremental implements Algorithm 2: derive a schedule for gNew from the
// previous schedule psiOld of gOld, rescheduling only intervals around the
// mutated sub-graph. oldMutated lists the gOld nodes touched by the
// transformation (removed nodes included; new nodes need not be listed —
// they are picked up as members of gNew outside the kept regions).
//
// Transformations like Swap touch a producer and a far-away consumer; a
// single contiguous interval spanning both would reschedule most of the
// program. Mutation sites further apart than a narrow-waist-sized gap are
// therefore rescheduled as separate local intervals, with newly created
// operators assigned to the interval their neighbours live in.
//
// It returns the new schedule and the number of rescheduled operators.
// When the splice cannot produce a valid order, it falls back to full
// scheduling of gNew.
func (sc *Scheduler) Incremental(gOld, gNew *graph.Graph, oldMutated []graph.NodeID, psiOld Schedule) (Schedule, int) {
	return sc.IncrementalR(gOld, gNew, oldMutated, psiOld, nil)
}

// clusterGap is the schedule distance beyond which mutation sites are
// rescheduled as independent intervals.
const clusterGap = 48

// IncrementalR is Incremental with a caller-provided (cacheable)
// reachability index over gOld; pass nil to compute the narrow waists it
// provides. Expanding one M-State evaluates dozens of candidates against
// the same parent graph, so callers that cache the index avoid the
// dominant O(V^2) term.
//
// The splice is best-effort by contract (it already falls back to full
// scheduling on an invalid order); a panic while splicing — a transformed
// graph whose shape the interval logic never anticipated — degrades the
// same way instead of killing the caller's search. A panic in the full
// scheduler itself still propagates: there is nothing left to fall back
// to, and the optimizer's per-candidate guard owns that failure.
func (sc *Scheduler) IncrementalR(gOld, gNew *graph.Graph, oldMutated []graph.NodeID, psiOld Schedule, reach *graph.ReachIndex) (psi Schedule, n int) {
	defer func() {
		if r := recover(); r != nil {
			full := sc.ScheduleGraph(gNew)
			psi, n = full, len(full)
		}
	}()
	mutated := graph.NewSet(oldMutated...)
	var sites []int
	for i, v := range psiOld {
		if mutated[v] {
			sites = append(sites, i)
		}
	}
	if len(sites) == 0 {
		full := sc.ScheduleGraph(gNew)
		return full, len(full)
	}
	var nw func(graph.NodeID) int
	if reach != nil {
		nw = reach.NW
	} else {
		nw = sc.narrowWaists(gOld)
	}

	// Cluster sites and extend each cluster to narrow waists.
	type interval struct{ beg, end int }
	var ivs []interval
	cur := interval{beg: sites[0], end: sites[0] + 1}
	for _, s := range sites[1:] {
		if s-cur.end > clusterGap {
			ivs = append(ivs, cur)
			cur = interval{beg: s, end: s + 1}
		} else {
			cur.end = s + 1
		}
	}
	ivs = append(ivs, cur)
	for i := range ivs {
		ivs[i].beg = extendBound(psiOld, nw, ivs[i].beg, -1)
		ivs[i].end = extendBound(psiOld, nw, ivs[i].end-1, +1)
	}
	// Merge overlaps after extension.
	merged := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &merged[len(merged)-1]
		if iv.beg <= last.end {
			if iv.end > last.end {
				last.end = iv.end
			}
		} else {
			merged = append(merged, iv)
		}
	}

	inInterval := func(pos int) int {
		for i, iv := range merged {
			if pos >= iv.beg && pos < iv.end {
				return i
			}
		}
		return -1
	}
	// Partition old positions into kept runs and per-interval member sets.
	members := make([][]graph.NodeID, len(merged))
	oldPos := sc.positions(gOld, gNew)
	for i, v := range psiOld {
		oldPos[v] = int32(i)
		if !gNew.Has(v) {
			continue
		}
		if k := inInterval(i); k >= 0 {
			members[k] = append(members[k], v)
		}
	}
	// Assign new nodes (absent from psiOld) to the interval holding one of
	// their neighbours, defaulting to the last interval.
	for _, v := range gNew.NodeIDs() {
		if oldPos[v] >= 0 {
			continue
		}
		k := len(merged) - 1
		assign := func(u graph.NodeID) bool {
			if p := oldPos[u]; p >= 0 {
				if i := inInterval(int(p)); i >= 0 {
					k = i
					return true
				}
			}
			return false
		}
		done := false
		for _, u := range gNew.Pre(v) {
			if assign(u) {
				done = true
				break
			}
		}
		if !done {
			for _, u := range gNew.Suc(v) {
				if assign(u) {
					break
				}
			}
		}
		members[k] = append(members[k], v)
	}

	// Schedule each interval's member set and splice.
	out := make(Schedule, 0, gNew.Len())
	rescheduled := 0
	prevEnd := 0
	for k, iv := range merged {
		for _, v := range psiOld[prevEnd:iv.beg] {
			if gNew.Has(v) {
				out = append(out, v)
			}
		}
		slices.Sort(members[k])
		sc.vw.reset(gNew, slices.Compact(members[k]))
		for _, seg := range sc.vw.partition() {
			out = sc.solve(seg, out)
			rescheduled += len(seg)
		}
		prevEnd = iv.end
	}
	for _, v := range psiOld[prevEnd:] {
		if gNew.Has(v) {
			out = append(out, v)
		}
	}
	if err := out.Validate(gNew); err != nil {
		full := sc.ScheduleGraph(gNew)
		return full, len(full)
	}
	return out, rescheduled
}

// extendBound walks the old schedule away from the mutated interval until
// it finds a suitably narrow waist, limiting both walk length and waist
// width with the paper's empirical constants (Algorithm 2 lines 2-6).
func extendBound(psi Schedule, nw func(graph.NodeID) int, i, d int) int {
	wHat := int(^uint(0) >> 1) // +inf
	l := 0
	for i >= 0 && i < len(psi) {
		w := nw(psi[i])
		if !(l < 20 && (wHat > 10 || w < 4) && w < wHat) {
			break
		}
		wHat = w
		i += d
		l++
	}
	if i < 0 {
		return 0
	}
	if i > len(psi) {
		return len(psi)
	}
	return i
}

// positions returns sc's NodeID-indexed position table, sized for both
// graphs and filled with -1.
func (sc *Scheduler) positions(gOld, gNew *graph.Graph) []int32 {
	n := max(int(gOld.NextID()), int(gNew.NextID()))
	sc.pos = ensure(sc.pos, n)
	for i := range sc.pos {
		sc.pos[i] = -1
	}
	return sc.pos
}

// narrowWaists returns the narrow-waist value of every node of g, read
// from the reachability of a view over the whole graph (-1 for IDs not
// in g).
func (sc *Scheduler) narrowWaists(g *graph.Graph) func(graph.NodeID) int {
	v := &sc.vw
	v.reset(g, g.NodeIDs())
	nw := make([]int32, g.NextID())
	for i := range nw {
		nw[i] = -1
	}
	n := int32(len(v.ids))
	for _, cm := range v.components() {
		v.reach(cm)
		for _, r := range cm {
			nw[v.ids[r]] = n - v.nAnc[r] - v.nDes[r] - 1
		}
	}
	return func(id graph.NodeID) int {
		if id < 0 || int(id) >= len(nw) {
			return -1
		}
		return int(nw[id])
	}
}
