package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"magis/internal/graph"
	"magis/internal/ops"
	"magis/internal/tensor"
)

// beamCands is the sort.Interface the beam selection used before it moved
// to slices.SortFunc; Less is kept here as the reference order.
type beamCands []beamCand

func (c beamCands) Len() int      { return len(c) }
func (c beamCands) Swap(i, j int) { c[i], c[j] = c[j], c[i] }
func (c beamCands) Less(i, j int) bool {
	if c[i].peak != c[j].peak {
		return c[i].peak < c[j].peak
	}
	if c[i].delta != c[j].delta {
		return c[i].delta < c[j].delta
	}
	return c[i].v < c[j].v
}

// TestCandSortMatchesInterfaceSort pins the tie-order contract: the beam
// keeps the first w candidates after sorting, equal keys from different
// parents are common, and which parent survives is whatever pdqsort's
// placement of equal elements says. slices.SortFunc with candCmp must
// produce exactly the permutation sort.Sort does with Less.
func TestCandSortMatchesInterfaceSort(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(300)
		a := make([]beamCand, n)
		for i := range a {
			a[i] = beamCand{
				from:  int32(r.Intn(8)),
				v:     int32(r.Intn(12)),
				peak:  int64(r.Intn(4)),
				delta: int64(r.Intn(3) - 1),
			}
		}
		b := slices.Clone(a)
		sort.Sort(beamCands(a))
		slices.SortFunc(b, candCmp)
		if !slices.Equal(a, b) {
			t.Fatalf("trial %d (n=%d): permutations differ", trial, n)
		}
	}
}

// tieDAG returns a random DAG shaped like a rewritten graph: output sizes
// come from a small set (so beam keys tie), some nodes read one producer
// twice, and some consumers are rewired to later-created recomputations,
// so ascending node IDs are not a topological order.
func tieDAG(r *rand.Rand, n int) *graph.Graph {
	g := graph.New()
	var ids []graph.NodeID
	size := func() int { return 1 << r.Intn(3) }
	for i := 0; i < n; i++ {
		if len(ids) == 0 || r.Intn(5) == 0 {
			ids = append(ids, g.Add(leaf(size())))
			continue
		}
		a, b := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
		if r.Intn(6) == 0 {
			b = a
		}
		s := size()
		ids = append(ids, g.Add(ops.NewAdd(tensor.S(s), tensor.S(s), tensor.F32), a, b))
	}
	for k := 0; k < n/8; k++ {
		v := ids[r.Intn(len(ids))]
		node := g.Node(v)
		cons := g.Suc(v)
		if len(node.Ins) == 0 || len(cons) == 0 {
			continue
		}
		re := g.Add(node.Op, node.Ins...)
		g.ReplaceInput(cons[r.Intn(len(cons))], v, re)
	}
	return g
}

// refPartition is the map-based narrow-waist partition over induced
// subgraphs that the view-based partition replaced.
func refPartition(g *graph.Graph, w graph.Set) []graph.Set {
	var segs []graph.Set
	for _, comp := range g.Components(w) {
		compSet := graph.NewSet(comp...)
		reach := graph.NewReachIndex(g.Subgraph(compSet))
		var dividers []graph.NodeID
		for _, v := range comp {
			if reach.NW(v) <= 1 {
				dividers = append(dividers, v)
			}
		}
		sort.Slice(dividers, func(i, j int) bool {
			ai, aj := reach.NumAnc(dividers[i]), reach.NumAnc(dividers[j])
			if ai != aj {
				return ai < aj
			}
			return dividers[i] < dividers[j]
		})
		remaining := compSet.Clone()
		for _, d := range dividers {
			if !remaining[d] {
				continue
			}
			seg, next := make(graph.Set), make(graph.Set)
			for v := range remaining {
				if reach.IsDes(d, v) {
					next[v] = true
				} else {
					seg[v] = true
				}
			}
			if len(seg) == 0 || len(seg) == len(remaining) {
				continue
			}
			segs = append(segs, seg)
			remaining = next
		}
		if len(remaining) > 0 {
			segs = append(segs, remaining)
		}
	}
	return segs
}

// refProblem indexes a standalone (induced) graph the way the scheduler
// did before views: smallest-ID-first Kahn order, distinct predecessors in
// input order, and hasCons from the subgraph's own consumer edges.
func refProblem(sub *graph.Graph) (ids []graph.NodeID, preds, sucs [][]int32, hasCons []bool) {
	ids = sub.Topo()
	idx := map[graph.NodeID]int32{}
	for i, v := range ids {
		idx[v] = int32(i)
	}
	preds = make([][]int32, len(ids))
	sucs = make([][]int32, len(ids))
	hasCons = make([]bool, len(ids))
	for i, v := range ids {
		hasCons[i] = sub.SucEdges(v) > 0
		for _, in := range sub.Node(v).Ins {
			if j := idx[in]; !slices.Contains(preds[i], j) {
				preds[i] = append(preds[i], j)
			}
		}
		for _, j := range preds[i] {
			sucs[j] = append(sucs[j], int32(i))
		}
	}
	return ids, preds, sucs, hasCons
}

// refBeam is the beam search as it ran before ready lists: every step of
// every entry scans all nodes for ready, unscheduled ones, and candidates
// are ordered by sort.Sort with beamCands.Less.
func refBeam(p *problem, hasCons []bool, w int) Schedule {
	n := len(p.ids)
	type entry struct {
		done        []bool
		rem, ready  []int32
		order       []int32
		alive, peak int64
	}
	start := &entry{done: make([]bool, n), rem: make([]int32, n), ready: make([]int32, n)}
	for v := 0; v < n; v++ {
		start.rem[v] = int32(len(p.sucs[v]))
		start.ready[v] = int32(len(p.preds[v]))
	}
	beam := []*entry{start}
	for step := 0; step < n; step++ {
		var cands []beamCand
		for k, e := range beam {
			for v := 0; v < n; v++ {
				if e.done[v] || e.ready[v] != 0 {
					continue
				}
				peak := e.peak
				if m := e.alive + p.size[v] + p.trans[v]; m > peak {
					peak = m
				}
				var freed int64
				for _, u := range p.preds[v] {
					if hasCons[u] && e.rem[u] == 1 {
						freed += p.size[u]
					}
				}
				cands = append(cands, beamCand{int32(k), int32(v), peak, p.size[v] - freed})
			}
		}
		sort.Sort(beamCands(cands))
		if len(cands) > w {
			cands = cands[:w]
		}
		var next []*entry
		for _, c := range cands {
			e := beam[c.from]
			ne := &entry{
				done:  slices.Clone(e.done),
				rem:   slices.Clone(e.rem),
				ready: slices.Clone(e.ready),
				order: append(slices.Clone(e.order), c.v),
				alive: e.alive + c.delta,
				peak:  c.peak,
			}
			ne.done[c.v] = true
			for _, u := range p.preds[c.v] {
				ne.rem[u]--
			}
			for _, s := range p.sucs[c.v] {
				ne.ready[s]--
			}
			next = append(next, ne)
		}
		beam = next
	}
	best := beam[0]
	for _, e := range beam[1:] {
		if e.peak < best.peak {
			best = e
		}
	}
	out := make(Schedule, n)
	for i, v := range best.order {
		out[i] = p.ids[v]
	}
	return out
}

// TestViewMatchesSubgraphReference checks, on random rewritten DAGs and
// random member sets, that scheduling in place over a view gives what the
// induced-subgraph path gave: the same segments in the same order, the
// same topological order and adjacency per segment, the same beam
// schedules at several widths, and a greedy bound equal to the
// subgraph-simulated peak; and that the narrow waists of a whole-graph
// view equal the reachability index's.
func TestViewMatchesSubgraphReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sc := &Scheduler{}
	for trial := 0; trial < 300; trial++ {
		g := tieDAG(r, 10+r.Intn(120))
		all := g.NodeIDs()
		var members []graph.NodeID
		keep := 0.3 + 0.7*r.Float64()
		for _, v := range all {
			if r.Float64() < keep {
				members = append(members, v)
			}
		}
		sc.vw.reset(g, members)
		segs := sc.vw.partition()
		ref := refPartition(g, graph.NewSet(members...))
		if len(segs) != len(ref) {
			t.Fatalf("trial %d: %d segments, reference %d", trial, len(segs), len(ref))
		}
		var segIDs [][]graph.NodeID
		for _, seg := range segs {
			var ids []graph.NodeID
			for _, rk := range seg {
				ids = append(ids, sc.vw.ids[rk])
			}
			segIDs = append(segIDs, ids)
		}
		for s, seg := range segs {
			if !slices.Equal(segIDs[s], ref[s].Slice()) {
				t.Fatalf("trial %d segment %d: %v, reference %v", trial, s, segIDs[s], ref[s].Slice())
			}
			sub := g.Subgraph(ref[s])
			ids, preds, sucs, hasCons := refProblem(sub)
			p := &sc.pb
			p.load(&sc.vw, seg)
			if !slices.Equal(p.ids, ids) {
				t.Fatalf("trial %d segment %d: topo order %v, reference %v", trial, s, p.ids, ids)
			}
			for i := range ids {
				if !slices.Equal(p.preds[i], preds[i]) || !slices.Equal(p.sucs[i], sucs[i]) {
					t.Fatalf("trial %d segment %d node %d: adjacency differs", trial, s, ids[i])
				}
				if p.size[i] != OutDeviceBytes(sub.Node(ids[i])) {
					t.Fatalf("trial %d segment %d node %d: size differs", trial, s, ids[i])
				}
			}
			for _, w := range []int{1, 2, 3, 8} {
				got, peak := sc.beam(p, w, nil)
				if want := refBeam(p, hasCons, w); !slices.Equal(got, want) {
					t.Fatalf("trial %d segment %d width %d: beam %v, reference %v", trial, s, w, got, want)
				}
				if w == 1 {
					if want := PeakOnly(sub, got); peak != want {
						t.Fatalf("trial %d segment %d: greedy peak %d, simulated %d", trial, s, peak, want)
					}
				}
			}
			if got, want := sc.solve(seg, nil), (&Scheduler{}).DpSchedule(sub); !slices.Equal(got, want) {
				t.Fatalf("trial %d segment %d: view schedule %v, subgraph schedule %v", trial, s, got, want)
			}
		}
		// IncrementalR without a reachability index reads the narrow
		// waists off a whole-graph view instead.
		nw, reach := sc.narrowWaists(g), graph.NewReachIndex(g)
		for _, v := range all {
			if nw(v) != reach.NW(v) {
				t.Fatalf("trial %d: nw(%d) = %d, reachability index says %d", trial, v, nw(v), reach.NW(v))
			}
		}
	}
}
