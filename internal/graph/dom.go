package graph

import "sort"

// DomTree is the dominator tree T(G) of a computation graph (§2.1). Because
// computation graphs have many entry nodes (input, label, and weight
// tensors), the tree is rooted at a virtual entry that dominates them all;
// the virtual root is represented by Invalid.
type DomTree struct {
	// Parent maps each node to its immediate dominator; nodes dominated
	// only by the virtual root map to Invalid.
	Parent map[NodeID]NodeID

	children map[NodeID][]NodeID
	order    []NodeID // reverse postorder, for deterministic iteration
}

// Internal index sentinels for the iterative solver.
const (
	domVirtual   int32 = -2 // the virtual root
	domUndefined int32 = -3
)

// Dominators computes the dominator tree of g using the iterative
// Cooper-Harvey-Kennedy algorithm over reverse postorder.
func Dominators(g *Graph) *DomTree {
	topo := g.Topo() // a reverse postorder of the DAG from the virtual root
	idx := make([]int32, len(g.nodes))
	for i, v := range topo {
		idx[v] = int32(i)
	}
	idom := make([]int32, len(topo))
	for i := range idom {
		idom[i] = domUndefined
	}
	g.solveIdom(topo, idx, idom, nil)
	return buildDomTree(topo, idom)
}

// DominatorsFrom computes the dominator tree of g by delta from prev, the
// tree of prevG. A node whose entire ancestor cone is unchanged — it
// exists in prevG with element-wise equal Ins and every producer is itself
// clean — keeps its previous immediate dominator exactly: dominance of v
// depends only on the paths from the entries to v, and an unchanged cone
// means unchanged paths. Only dirty nodes re-enter the fix-point
// iteration, with the clean idoms as exact boundary values. Falls back to
// a full computation when prev is nil or more than half the nodes are
// dirty (the warm start would not pay for its bookkeeping).
func DominatorsFrom(prev *DomTree, prevG, g *Graph) *DomTree {
	if prev == nil || prevG == nil {
		return Dominators(g)
	}
	topo := g.Topo()
	n := len(topo)
	idx := make([]int32, len(g.nodes))
	for i, v := range topo {
		idx[v] = int32(i)
	}
	clean := make([]bool, len(g.nodes))
	dirty := make([]bool, n)
	dirtyCnt := 0
	for i, v := range topo {
		node := g.nodes[v]
		ok := prevG.Has(v) && idsEqual(prevG.nodes[v].Ins, node.Ins)
		if ok {
			for _, in := range node.Ins {
				if !clean[in] {
					ok = false
					break
				}
			}
		}
		if ok {
			clean[v] = true
		} else {
			dirty[i] = true
			dirtyCnt++
		}
	}
	if 2*dirtyCnt > n {
		idom := make([]int32, n)
		for i := range idom {
			idom[i] = domUndefined
		}
		g.solveIdom(topo, idx, idom, nil)
		return buildDomTree(topo, idom)
	}
	idom := make([]int32, n)
	for i, v := range topo {
		if dirty[i] {
			idom[i] = domUndefined
			continue
		}
		p, ok := prev.Parent[v]
		switch {
		case !ok:
			// Defensive: clean implies membership in prev's topo, but a
			// malformed prev must degrade to recomputation, not corruption.
			dirty[i] = true
			idom[i] = domUndefined
		case p == Invalid:
			idom[i] = domVirtual
		case !g.Has(p) || idx[p] >= int32(i):
			dirty[i] = true
			idom[i] = domUndefined
		default:
			idom[i] = idx[p]
		}
	}
	g.solveIdom(topo, idx, idom, dirty)
	return buildDomTree(topo, idom)
}

// solveIdom runs the CHK convergence loop in place. topo is a reverse
// postorder, idx maps NodeID to its topo position, and idom holds the
// seeded solution (domUndefined where unknown). When dirty is non-nil only
// those positions are re-examined — their seeds must be domUndefined and
// every other position must already hold its exact final value; the
// monotone iteration then converges to the same fixed point as a full
// solve. Predecessors come straight from Ins (duplicates are harmless: the
// intersection meet is idempotent), keeping the inner loop allocation-free.
func (g *Graph) solveIdom(topo []NodeID, idx, idom []int32, dirty []bool) {
	intersect := func(a, b int32) int32 {
		for a != b {
			for a > b {
				if idom[a] == domVirtual {
					return domVirtual
				}
				a = idom[a]
			}
			for b > a {
				if idom[b] == domVirtual {
					return domVirtual
				}
				b = idom[b]
			}
			if a == domVirtual || b == domVirtual {
				return domVirtual
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for i, v := range topo {
			if dirty != nil && !dirty[i] {
				continue
			}
			ins := g.nodes[v].Ins
			newIdom := domUndefined
			if len(ins) == 0 {
				newIdom = domVirtual
			} else {
				for _, p := range ins {
					pi := idx[p]
					if idom[pi] == domUndefined {
						continue
					}
					if newIdom == domUndefined {
						newIdom = pi
					} else {
						newIdom = intersect(newIdom, pi)
					}
				}
				if newIdom == domUndefined {
					newIdom = domVirtual
				}
			}
			if idom[i] != newIdom {
				idom[i] = newIdom
				changed = true
			}
		}
	}
}

// buildDomTree materializes the solved idom array into the map-based
// public structure.
func buildDomTree(topo []NodeID, idom []int32) *DomTree {
	t := &DomTree{
		Parent:   make(map[NodeID]NodeID, len(topo)),
		children: make(map[NodeID][]NodeID),
		order:    topo,
	}
	for i, v := range topo {
		if idom[i] == domVirtual {
			t.Parent[v] = Invalid
			t.children[Invalid] = append(t.children[Invalid], v)
		} else {
			p := topo[idom[i]]
			t.Parent[v] = p
			t.children[p] = append(t.children[p], v)
		}
	}
	for _, cs := range t.children {
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	}
	return t
}

// Children returns T.suc(v): the tree children of v (pass Invalid for the
// virtual root).
func (t *DomTree) Children(v NodeID) []NodeID { return t.children[v] }

// Des returns the strict descendants of v in the dominator tree, i.e. all
// nodes dominated by v other than v itself.
func (t *DomTree) Des(v NodeID) Set {
	out := make(Set)
	stack := append([]NodeID(nil), t.children[v]...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if out[u] {
			continue
		}
		out[u] = true
		stack = append(stack, t.children[u]...)
	}
	return out
}

// Nodes returns the tree's nodes in reverse postorder of the graph.
func (t *DomTree) Nodes() []NodeID { return t.order }
