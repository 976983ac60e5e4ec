package sched

import (
	"cmp"
	"math/bits"
	"slices"

	"magis/internal/graph"
)

// adjacency is a DAG over dense indices 0..n-1: distinct predecessors in
// input order and distinct consumers in ascending order, each family
// packed into one arena that is reused across builds.
type adjacency struct {
	preds, sucs              [][]int32
	predArena, sucArena, cnt []int32
}

// begin sizes the adjacency for n nodes and empties the predecessor arena;
// the caller then sets preds[i] for every i and calls invert.
func (a *adjacency) begin(n int) {
	a.preds, a.sucs = ensure(a.preds, n), ensure(a.sucs, n)
	a.predArena = a.predArena[:0]
}

// setPreds closes node i's predecessor list at the arena tail.
func (a *adjacency) setPreds(i, base int) {
	end := len(a.predArena)
	a.preds[i] = a.predArena[base:end:end]
}

// invert fills sucs from preds: predecessor lists are distinct, so each
// (u, v) pair occurs once, and a counting pass sizes the arena sub-slices.
func (a *adjacency) invert() {
	n := len(a.preds)
	cnt := ensure(a.cnt, n)
	clear(cnt)
	total := 0
	for i := range a.preds {
		for _, u := range a.preds[i] {
			cnt[u]++
			total++
		}
	}
	sa := ensure(a.sucArena, total)
	off := int32(0)
	for u := 0; u < n; u++ {
		a.sucs[u] = sa[off : off : off+cnt[u]]
		off += cnt[u]
	}
	for i := range a.preds {
		for _, u := range a.preds[i] {
			a.sucs[u] = append(a.sucs[u], int32(i))
		}
	}
	a.cnt, a.sucArena = cnt, sa
}

// view is a dense index over a member set of a graph: rank r is the r-th
// smallest member ID, and edges leaving the set are dropped. Partitioning
// and scheduling run on views, so a sub-problem of a shared parent graph
// is solved in place instead of being copied out as an induced subgraph.
// All storage is reused from one build to the next.
type view struct {
	adjacency // over ranks
	g         *graph.Graph
	ids       []graph.NodeID // rank -> node, ascending
	loc       []int32        // NodeID -> rank, -1 outside the set
	at        []int32        // rank -> position in a sub-problem, -1 outside it

	// Partition scratch: components, and ancestor/descendant bitset rows
	// over positions within one component.
	seen                       []bool
	comps                      [][]int32
	compArena, topo, cpos      []int32
	rows, sets                 []uint64
	nAnc, nDes                 []int32
	segArena, segEnd, dividers []int32
	segs                       [][]int32
}

// reset rebuilds v over members, which must be ascending node IDs of g.
func (v *view) reset(g *graph.Graph, members []graph.NodeID) {
	for _, id := range v.ids {
		v.loc[id] = -1
	}
	v.g = g
	v.ids = append(v.ids[:0], members...)
	for len(v.loc) < int(g.NextID()) {
		v.loc = append(v.loc, -1)
	}
	for r, id := range v.ids {
		v.loc[id] = int32(r)
	}
	n := len(v.ids)
	v.at = ensure(v.at, n)
	v.begin(n)
	for r, id := range v.ids {
		base := len(v.predArena)
		// Input lists are tiny, so a linear scan deduplicates.
		for _, in := range g.Node(id).Ins {
			if j := v.loc[in]; j >= 0 && !slices.Contains(v.predArena[base:], j) {
				v.predArena = append(v.predArena, j)
			}
		}
		v.setPreds(r, base)
		v.at[r] = -1
	}
	v.invert()
}

// all returns every rank of v, ascending: the sub-problem of a whole view.
func (v *view) all() []int32 {
	n := len(v.ids)
	v.segArena = ensure(v.segArena, n)
	for r := range v.segArena {
		v.segArena[r] = int32(r)
	}
	return v.segArena
}

// components returns the ranks of v grouped by weakly connected
// component, each in ascending order, components ordered by smallest
// member. The result aliases v's storage.
func (v *view) components() [][]int32 {
	n := len(v.ids)
	seen := ensure(v.seen, n)
	clear(seen)
	arena, comps := v.compArena[:0], v.comps[:0]
	for r := range seen {
		if seen[r] {
			continue
		}
		base := len(arena)
		seen[r] = true
		arena = append(arena, int32(r))
		for i := base; i < len(arena); i++ {
			u := arena[i]
			for _, nb := range [2][]int32{v.preds[u], v.sucs[u]} {
				for _, w := range nb {
					if !seen[w] {
						seen[w] = true
						arena = append(arena, w)
					}
				}
			}
		}
		slices.Sort(arena[base:])
		comps = append(comps, arena[base:len(arena):len(arena)])
	}
	v.seen, v.compArena, v.comps = seen, arena, comps
	return comps
}

// reach fills ancestor and descendant bitset rows, over positions within
// the component cm (ascending ranks), along with per-rank popcounts nAnc
// and nDes. It returns the row width in words.
func (v *view) reach(cm []int32) int {
	k := len(cm)
	words := (k + 63) / 64
	v.cpos = ensure(v.cpos, len(v.ids))
	v.nAnc, v.nDes = ensure(v.nAnc, len(v.ids)), ensure(v.nDes, len(v.ids))
	// A topological order of the component (Kahn, FIFO): every edge of
	// a member stays inside its component.
	indeg := ensure(v.cnt, len(v.ids))
	topo := v.topo[:0]
	for i, r := range cm {
		v.cpos[r] = int32(i)
		indeg[r] = int32(len(v.preds[r]))
		if indeg[r] == 0 {
			topo = append(topo, r)
		}
	}
	for head := 0; head < len(topo); head++ {
		for _, s := range v.sucs[topo[head]] {
			if indeg[s]--; indeg[s] == 0 {
				topo = append(topo, s)
			}
		}
	}
	if len(topo) != k {
		panic("sched: cycle in scheduling view")
	}
	v.cnt, v.topo = indeg, topo
	v.rows = ensure(v.rows, 2*k*words)
	clear(v.rows)
	anc := func(r int32) []uint64 { o := int(v.cpos[r]) * words; return v.rows[o : o+words] }
	des := func(r int32) []uint64 { o := (k + int(v.cpos[r])) * words; return v.rows[o : o+words] }
	// Ancestors accumulate forward in topological order, descendants
	// backward.
	for _, r := range topo {
		row := anc(r)
		for _, p := range v.preds[r] {
			orBits(row, anc(p))
			pi := v.cpos[p]
			row[pi/64] |= 1 << (pi % 64)
		}
		v.nAnc[r] = popcount(row)
	}
	for i := k - 1; i >= 0; i-- {
		r := topo[i]
		row := des(r)
		for _, s := range v.sucs[r] {
			orBits(row, des(s))
			si := v.cpos[s]
			row[si/64] |= 1 << (si % 64)
		}
		v.nDes[r] = popcount(row)
	}
	return words
}

func orBits(dst, src []uint64) {
	for w := range dst {
		dst[w] |= src[w]
	}
}

func popcount(ws []uint64) int32 {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return int32(n)
}

// partition splits the members of v into segments that can be scheduled
// independently and concatenated (§6.1): within each weakly connected
// component, nodes whose narrow-waist value is at most 1 act as dividing
// points — everything not descending from a divider is sequenced before
// it, everything descending after. Dividers are taken in order of
// (ancestor count, ID). Segments list ranks in ascending order and are
// returned in topological order; they alias v's storage until its next
// reset or partition.
func (v *view) partition() [][]int32 {
	arena, ends := v.segArena[:0], v.segEnd[:0]
	for _, cm := range v.components() {
		k := len(cm)
		words := v.reach(cm)
		dividers := v.dividers[:0]
		for _, r := range cm {
			if int32(k)-v.nAnc[r]-v.nDes[r]-1 <= 1 {
				dividers = append(dividers, r)
			}
		}
		slices.SortFunc(dividers, func(a, b int32) int {
			if c := cmp.Compare(v.nAnc[a], v.nAnc[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		v.dividers = dividers
		// rem holds the members not yet cut off, cut the candidate segment.
		v.sets = ensure(v.sets, 2*words)
		rem, cut := v.sets[:words], v.sets[words:]
		for w := range rem {
			rem[w] = ^uint64(0)
		}
		if k%64 != 0 {
			rem[words-1] = 1<<(k%64) - 1
		}
		left := int32(k)
		for _, d := range dividers {
			dp := int(v.cpos[d])
			if rem[dp/64]&(1<<(dp%64)) == 0 {
				continue
			}
			des := v.rows[(k+dp)*words : (k+dp+1)*words]
			seg := int32(0)
			for w := range rem {
				cut[w] = rem[w] &^ des[w]
				seg += int32(bits.OnesCount64(cut[w]))
			}
			if seg == 0 || seg == left {
				continue
			}
			arena = appendMembers(arena, cut, cm)
			ends = append(ends, int32(len(arena)))
			for w := range rem {
				rem[w] &= des[w]
			}
			left -= seg
		}
		if left > 0 {
			arena = appendMembers(arena, rem, cm)
			ends = append(ends, int32(len(arena)))
		}
	}
	v.segArena, v.segEnd = arena, ends
	v.segs = v.segs[:0]
	prev := int32(0)
	for _, e := range ends {
		v.segs = append(v.segs, arena[prev:e:e])
		prev = e
	}
	return v.segs
}

// appendMembers appends cm[i] for every bit i set in set, ascending.
func appendMembers(dst []int32, set []uint64, cm []int32) []int32 {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, cm[w*64+bits.TrailingZeros64(word)])
		}
	}
	return dst
}

// ScheduleGraph computes a full memory-minimizing schedule for g:
// partition at narrow waists, DpSchedule each segment, concatenate.
func (sc *Scheduler) ScheduleGraph(g *graph.Graph) Schedule {
	sc.vw.reset(g, g.NodeIDs())
	out := make(Schedule, 0, g.Len())
	for _, seg := range sc.vw.partition() {
		out = sc.solve(seg, out)
	}
	// Segments from different components may interleave arbitrarily; the
	// concatenation above is already a valid topological order within each
	// component, but cross-component producer/consumer links cannot exist.
	// A final validity check guards the divider logic.
	if err := out.Validate(g); err != nil {
		return g.Topo()
	}
	return out
}
