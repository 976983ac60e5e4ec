// Package dgraph implements the Dimension Graph D(G) of §4.1: a graph
// whose nodes are the output dimensions and reduce axes of every operator,
// and whose edges connect dimensions that correspond to the same spatial
// axis across a data dependency. Its weakly connected components are the
// graph-level dimensions (batch, heads, sequence, ...) along which Fission
// Transformation is legal.
package dgraph

import (
	"sort"

	"magis/internal/graph"
	"magis/internal/ops"
)

// DimNode is one vertex of D(G): axis Axis of the output of Node.
// Axis > 0 is a 1-based output dimension; Axis < 0 is a reduce axis.
type DimNode struct {
	Node graph.NodeID
	Axis int
}

// DGraph is the dimension graph of one computation graph.
type DGraph struct {
	// out maps a producer dimension to the consumer axes it feeds.
	out map[DimNode][]DimNode
	// in is the reverse adjacency.
	in map[DimNode][]DimNode
	// byNode lists the axes present for each graph node.
	byNode map[graph.NodeID][]int
}

// Build constructs D(G). Nodes whose payload is not *ops.Spec contribute
// no dimension vertices.
func Build(g *graph.Graph) *DGraph {
	d := &DGraph{
		out:    make(map[DimNode][]DimNode),
		in:     make(map[DimNode][]DimNode),
		byNode: make(map[graph.NodeID][]int),
	}
	for _, v := range g.NodeIDs() {
		spec, ok := g.Node(v).Op.(*ops.Spec)
		if !ok {
			continue
		}
		for a := 1; a <= spec.OutShape().Rank(); a++ {
			d.byNode[v] = append(d.byNode[v], a)
		}
		for r := 1; r <= spec.NumReduceAxes(); r++ {
			d.byNode[v] = append(d.byNode[v], -r)
		}
	}
	for _, v := range g.NodeIDs() {
		spec, ok := g.Node(v).Op.(*ops.Spec)
		if !ok {
			continue
		}
		for idx, u := range g.Node(v).Ins {
			if _, isSpec := g.Node(u).Op.(*ops.Spec); !isSpec {
				continue
			}
			for _, lk := range spec.DimLinks(idx) {
				from := DimNode{u, lk.In}
				to := DimNode{v, lk.Out}
				d.out[from] = append(d.out[from], to)
				d.in[to] = append(d.in[to], from)
			}
		}
	}
	return d
}

// Component is one weakly connected component of D(G): a graph-level
// dimension.
type Component map[DimNode]bool

// Components returns the weakly connected components with at least two
// vertices (singleton dimensions admit no useful fission), ordered by
// their smallest member for determinism.
func (d *DGraph) Components() []Component {
	seen := make(map[DimNode]bool)
	var keys []DimNode
	for k := range d.out {
		keys = append(keys, k)
	}
	for k := range d.in {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Node != keys[j].Node {
			return keys[i].Node < keys[j].Node
		}
		return keys[i].Axis < keys[j].Axis
	})
	var comps []Component
	for _, k := range keys {
		if seen[k] {
			continue
		}
		comp := Component{}
		stack := []DimNode{k}
		seen[k] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp[x] = true
			for _, y := range append(append([]DimNode(nil), d.out[x]...), d.in[x]...) {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		if len(comp) >= 2 {
			comps = append(comps, comp)
		}
	}
	return comps
}

// GraphNodes returns the distinct graph nodes touched by a component,
// ascending.
func (c Component) GraphNodes() []graph.NodeID {
	set := make(map[graph.NodeID]bool)
	for dn := range c {
		set[dn.Node] = true
	}
	out := make([]graph.NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
