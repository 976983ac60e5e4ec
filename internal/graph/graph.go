// Package graph implements the computation-graph IR used throughout MAGIS:
// a directed acyclic multigraph of operators with ordered inputs, plus the
// graph analyses the paper relies on — topological ordering, ancestor and
// descendant sets, induced sub-graphs with their inps/outs boundaries,
// convexity and weak-connectivity tests, dominator trees, narrow-waist
// values, and Weisfeiler-Lehman structural hashing.
//
// The package corresponds to the rustworkx substrate of the original
// implementation (§7.1) but is written from scratch on the Go standard
// library only.
//
// Node storage is ID-indexed slices rather than maps: IDs are small, dense,
// and never reused within a lineage, so slice indexing keeps the search's
// hot loops (clone, topo, hash, reachability) off the allocator. Clone
// packs all node and edge storage into three arena allocations, and
// CloneInto recycles a discarded graph's arenas entirely.
package graph

import (
	"fmt"
	"sort"

	"magis/internal/tensor"
)

// NodeID identifies a node within one Graph. IDs are never reused, so they
// stay stable across clones and transformations of the same lineage.
type NodeID int

// Invalid is the zero-ish sentinel for "no node".
const Invalid NodeID = -1

// Op is the behaviour a node payload must provide. The richer operator
// interfaces (cost, dimension maps, splitting) live in internal/ops and are
// reached by type assertion, keeping this package dependency-free.
type Op interface {
	// Kind is the operator name, e.g. "Matmul".
	Kind() string
	// OutShape is the shape of the single output tensor.
	OutShape() tensor.Shape
	// DType is the element type of the output tensor.
	DType() tensor.DType
	// AttrKey returns a string that, together with Kind and OutShape,
	// uniquely identifies the operator's semantics (used for hashing and
	// de-re-materialization matching).
	AttrKey() string
}

// Node is one operator instance in a Graph.
type Node struct {
	ID   NodeID
	Op   Op
	Ins  []NodeID // ordered producer list; duplicates allowed
	Name string   // optional human label
}

// OutBytes returns the device-memory footprint of the node's output tensor,
// i.e. size(v) in the paper's notation.
func (n *Node) OutBytes() int64 {
	return tensor.Bytes(n.Op.OutShape(), n.Op.DType())
}

// Graph is a mutable DAG of operator nodes. Both per-node tables are
// indexed directly by NodeID (nil / empty for absent IDs); IDs therefore
// stay small because they are allocated sequentially along a lineage.
type Graph struct {
	nodes []*Node    // nodes[id] == nil means id is absent
	suc   [][]NodeID // consumer lists (with multiplicity)
	n     int        // live node count
	next  NodeID

	// Clone arenas, retained so CloneInto can recycle their capacity when
	// this graph is itself reused as a clone destination.
	nodeArena []Node
	idArena   []NodeID
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Len returns the number of nodes.
func (g *Graph) Len() int { return g.n }

// grow extends the ID-indexed tables to cover id.
func (g *Graph) grow(id NodeID) {
	for NodeID(len(g.nodes)) <= id {
		g.nodes = append(g.nodes, nil)
		g.suc = append(g.suc, nil)
	}
}

// Add inserts a new node computing op from the given producers and returns
// its ID. All producers must already exist.
func (g *Graph) Add(op Op, ins ...NodeID) NodeID {
	return g.AddNamed("", op, ins...)
}

// AddNamed is Add with a human-readable label.
func (g *Graph) AddNamed(name string, op Op, ins ...NodeID) NodeID {
	for _, in := range ins {
		if !g.Has(in) {
			panic(fmt.Sprintf("graph: input %d does not exist", in))
		}
	}
	id := g.next
	g.next++
	g.grow(id)
	n := &Node{ID: id, Op: op, Ins: append([]NodeID(nil), ins...), Name: name}
	g.nodes[id] = n
	g.n++
	for _, in := range ins {
		g.suc[in] = append(g.suc[in], id)
	}
	return id
}

// AddWithID inserts a node under a caller-chosen ID, used by snapshot
// restore to rebuild a graph bit-identically (rewrites leave ID gaps that a
// compacting loader would close, changing iteration order downstream). The
// ID must be fresh and non-negative; all producers must already exist.
func (g *Graph) AddWithID(id NodeID, name string, op Op, ins ...NodeID) error {
	if id < 0 {
		return fmt.Errorf("graph: AddWithID: negative id %d", id)
	}
	if g.Has(id) {
		return fmt.Errorf("graph: AddWithID: id %d already exists", id)
	}
	for _, in := range ins {
		if !g.Has(in) {
			return fmt.Errorf("graph: AddWithID: input %d does not exist", in)
		}
	}
	g.grow(id)
	n := &Node{ID: id, Op: op, Ins: append([]NodeID(nil), ins...), Name: name}
	g.nodes[id] = n
	g.n++
	for _, in := range ins {
		g.suc[in] = append(g.suc[in], id)
	}
	if id >= g.next {
		g.next = id + 1
	}
	return nil
}

// NextID returns the ID the next Add will assign. IDs are never reused, so
// this is strictly greater than every ID ever allocated in the lineage.
func (g *Graph) NextID() NodeID { return g.next }

// SetNextID raises the next fresh ID, so a restored graph keeps allocating
// in the same sequence as the snapshotted original even when the highest
// IDs belonged to since-removed nodes. It cannot move backwards past an
// existing node.
func (g *Graph) SetNextID(next NodeID) error {
	for id := range g.nodes {
		if g.nodes[id] != nil && NodeID(id) >= next {
			return fmt.Errorf("graph: SetNextID(%d): node %d already exists", next, id)
		}
	}
	if next > g.next {
		g.next = next
	}
	return nil
}

// Node returns the node with the given ID, or nil if absent.
func (g *Graph) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(g.nodes) {
		return nil
	}
	return g.nodes[id]
}

// Has reports whether id is present.
func (g *Graph) Has(id NodeID) bool { return g.Node(id) != nil }

// NodeIDs returns all node IDs in ascending order.
func (g *Graph) NodeIDs() []NodeID {
	ids := make([]NodeID, 0, g.n)
	for id, n := range g.nodes {
		if n != nil {
			ids = append(ids, NodeID(id))
		}
	}
	return ids
}

// sortIDs sorts a small NodeID slice ascending without reflection.
func sortIDs(s []NodeID) {
	if len(s) < 24 {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return
	}
	sort.Sort(idSlice(s))
}

type idSlice []NodeID

func (s idSlice) Len() int           { return len(s) }
func (s idSlice) Less(i, j int) bool { return s[i] < s[j] }
func (s idSlice) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// dedupSorted removes adjacent duplicates from a sorted slice in place.
func dedupSorted(s []NodeID) []NodeID {
	if len(s) < 2 {
		return s
	}
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

// Pre returns the distinct predecessors of v, ascending.
func (g *Graph) Pre(v NodeID) []NodeID {
	n := g.Node(v)
	if n == nil {
		return nil
	}
	out := append([]NodeID(nil), n.Ins...)
	sortIDs(out)
	return dedupSorted(out)
}

// Suc returns the distinct successors of v, ascending.
func (g *Graph) Suc(v NodeID) []NodeID {
	if v < 0 || int(v) >= len(g.suc) || len(g.suc[v]) == 0 {
		return nil
	}
	out := append([]NodeID(nil), g.suc[v]...)
	sortIDs(out)
	return dedupSorted(out)
}

// NumConsumers returns the number of distinct consumers of v.
func (g *Graph) NumConsumers(v NodeID) int { return len(g.Suc(v)) }

// SucEdges returns the number of consumer edges of v, with multiplicity.
func (g *Graph) SucEdges(v NodeID) int {
	if v < 0 || int(v) >= len(g.suc) {
		return 0
	}
	return len(g.suc[v])
}

// EachSucEdge calls f for every consumer edge of v, duplicates included —
// the allocation-free alternative to Suc for callers that tolerate
// multiplicity (e.g. max-position scans in the schedule simulators).
func (g *Graph) EachSucEdge(v NodeID, f func(NodeID)) {
	if v < 0 || int(v) >= len(g.suc) {
		return
	}
	for _, s := range g.suc[v] {
		f(s)
	}
}

// sucList returns the raw consumer-edge list of v (with multiplicity,
// unsorted). Internal analyses iterate it directly to stay off the
// allocator; callers must not mutate it.
func (g *Graph) sucList(v NodeID) []NodeID {
	if v < 0 || int(v) >= len(g.suc) {
		return nil
	}
	return g.suc[v]
}

// Remove deletes a node that has no consumers. It returns an error if the
// node is still consumed or does not exist.
func (g *Graph) Remove(v NodeID) error {
	n := g.Node(v)
	if n == nil {
		return fmt.Errorf("graph: node %d does not exist", v)
	}
	if len(g.suc[v]) > 0 {
		return fmt.Errorf("graph: node %d still has %d consumers", v, len(g.suc[v]))
	}
	for _, in := range n.Ins {
		g.suc[in] = removeOne(g.suc[in], v)
	}
	g.nodes[v] = nil
	g.suc[v] = nil
	g.n--
	return nil
}

// RemoveDead removes all nodes unreachable (forward) to any node in keep,
// i.e. nodes whose output no live node transitively consumes. Nodes in keep
// are always retained. It returns the number of removed nodes.
func (g *Graph) RemoveDead(keep []NodeID) int {
	live := make([]bool, len(g.nodes))
	stack := append([]NodeID(nil), keep...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v < 0 || int(v) >= len(g.nodes) || live[v] || g.nodes[v] == nil {
			continue
		}
		live[v] = true
		stack = append(stack, g.nodes[v].Ins...)
	}
	removed := 0
	// Delete in reverse topological order so Remove's consumer check holds.
	topo := g.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		if !live[v] {
			if err := g.Remove(v); err == nil {
				removed++
			}
		}
	}
	return removed
}

// ReplaceInput rewires node v so occurrences of producer old become new.
func (g *Graph) ReplaceInput(v, old, new NodeID) {
	n := g.Node(v)
	if n == nil {
		panic(fmt.Sprintf("graph: node %d does not exist", v))
	}
	changed := 0
	for i, in := range n.Ins {
		if in == old {
			n.Ins[i] = new
			changed++
		}
	}
	for i := 0; i < changed; i++ {
		g.suc[old] = removeOne(g.suc[old], v)
		g.suc[new] = append(g.suc[new], v)
	}
}

// ReplaceInputAt rewires the idx-th input slot of v to new.
func (g *Graph) ReplaceInputAt(v NodeID, idx int, new NodeID) {
	n := g.nodes[v]
	old := n.Ins[idx]
	n.Ins[idx] = new
	g.suc[old] = removeOne(g.suc[old], v)
	g.suc[new] = append(g.suc[new], v)
}

// RedirectConsumers makes every consumer of old consume new instead.
// Consumers listed in except are left alone.
func (g *Graph) RedirectConsumers(old, new NodeID, except ...NodeID) {
	skip := make(map[NodeID]bool, len(except))
	for _, e := range except {
		skip[e] = true
	}
	for _, c := range g.Suc(old) {
		if !skip[c] {
			g.ReplaceInput(c, old, new)
		}
	}
}

// SetOp replaces the operator payload of v in place.
func (g *Graph) SetOp(v NodeID, op Op) { g.nodes[v].Op = op }

// Inputs returns the graph's entry nodes (no predecessors), ascending.
func (g *Graph) Inputs() []NodeID {
	var out []NodeID
	for id, n := range g.nodes {
		if n != nil && len(n.Ins) == 0 {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Outputs returns the graph's exit nodes (no successors), ascending.
func (g *Graph) Outputs() []NodeID {
	var out []NodeID
	for id, n := range g.nodes {
		if n != nil && len(g.suc[id]) == 0 {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Topo returns a deterministic topological order (ties broken by ID).
// It panics on a cycle; use TopoE where cycles are an expected outcome.
func (g *Graph) Topo() []NodeID {
	order, err := g.TopoE()
	if err != nil {
		panic(err.Error())
	}
	return order
}

// TopoE returns a deterministic topological order, or an error if the
// graph contains a cycle (which region collapsing can legitimately
// produce and must detect).
func (g *Graph) TopoE() ([]NodeID, error) {
	order, _, err := g.topoInto(nil, nil, nil)
	return order, err
}

// TopoScratch holds reusable topological-sort work buffers; the zero value
// is ready to use and a scratch must not be shared between goroutines.
type TopoScratch struct {
	indeg    []int32
	frontier []NodeID
	order    []NodeID
}

// TopoInto is TopoE with caller-owned work buffers. The returned order
// aliases the scratch's internal buffer and is valid until the next
// TopoInto call on the same scratch.
func (g *Graph) TopoInto(sc *TopoScratch) ([]NodeID, error) {
	if sc == nil {
		order, _, err := g.topoInto(nil, nil, nil)
		return order, err
	}
	if cap(sc.indeg) < len(g.nodes) {
		sc.indeg = make([]int32, len(g.nodes))
	}
	if cap(sc.order) < g.n {
		sc.order = make([]NodeID, 0, g.n)
	}
	order, frontier, err := g.topoInto(sc.indeg[:len(g.nodes)], sc.order[:0], sc.frontier[:0])
	sc.order = order[:0]
	sc.frontier = frontier[:0]
	return order, err
}

// topoInto runs Kahn's algorithm with a sorted frontier. Readiness counts
// in-edges with multiplicity; a node becomes ready exactly when its last
// producer is emitted, so the resulting order is identical to counting
// distinct predecessors.
func (g *Graph) topoInto(indeg []int32, order, frontier []NodeID) ([]NodeID, []NodeID, error) {
	if indeg == nil {
		indeg = make([]int32, len(g.nodes))
	}
	if order == nil {
		order = make([]NodeID, 0, g.n)
	}
	for id, n := range g.nodes {
		if n == nil {
			indeg[id] = 0
			continue
		}
		indeg[id] = int32(len(n.Ins))
		if len(n.Ins) == 0 {
			frontier = append(frontier, NodeID(id))
		}
	}
	// frontier is ascending by construction (slice iteration order); a head
	// index pops from the front, and ready nodes are inserted in sorted
	// position within the live window frontier[head:].
	head := 0
	for head < len(frontier) {
		v := frontier[head]
		head++
		order = append(order, v)
		for _, s := range g.suc[v] {
			indeg[s]--
			if indeg[s] == 0 {
				i := head + sort.Search(len(frontier)-head, func(i int) bool { return frontier[head+i] >= s })
				frontier = append(frontier, 0)
				copy(frontier[i+1:], frontier[i:])
				frontier[i] = s
			}
		}
	}
	if len(order) != g.n {
		return nil, frontier, fmt.Errorf("graph: cycle detected in Topo")
	}
	return order, frontier, nil
}

// Clone returns a deep copy of the graph. Node IDs are preserved, so
// schedules and ID sets remain valid across the copy. Op payloads are
// shared (they are immutable by convention). All node and edge storage is
// packed into three arena allocations.
func (g *Graph) Clone() *Graph {
	c := &Graph{}
	g.cloneInto(c)
	return c
}

// CloneInto overwrites dst with a deep copy of g, recycling dst's backing
// arrays where capacity allows. dst must not share storage with any live
// graph; the optimizer's candidate pool uses this to recycle discarded
// search states instead of feeding the allocator.
func (g *Graph) CloneInto(dst *Graph) {
	if dst == g {
		return
	}
	g.cloneInto(dst)
}

func (g *Graph) cloneInto(c *Graph) {
	n := len(g.nodes)
	if cap(c.nodes) < n {
		c.nodes = make([]*Node, n)
	} else {
		c.nodes = c.nodes[:n]
	}
	if cap(c.suc) < n {
		c.suc = make([][]NodeID, n)
	} else {
		c.suc = c.suc[:n]
	}
	c.n = g.n
	c.next = g.next
	if cap(c.nodeArena) < g.n {
		c.nodeArena = make([]Node, g.n)
	} else {
		c.nodeArena = c.nodeArena[:g.n]
	}
	totalIns, totalSuc := 0, 0
	for id, node := range g.nodes {
		if node != nil {
			totalIns += len(node.Ins)
		}
		totalSuc += len(g.suc[id])
	}
	if cap(c.idArena) < totalIns+totalSuc {
		c.idArena = make([]NodeID, totalIns+totalSuc)
	} else {
		c.idArena = c.idArena[:totalIns+totalSuc]
	}
	arena, ids := c.nodeArena, c.idArena
	ai, off := 0, 0
	for id, node := range g.nodes {
		if node == nil {
			c.nodes[id] = nil
			c.suc[id] = nil
			continue
		}
		// Three-index sub-slices: a later append on Ins or a suc list
		// reallocates instead of clobbering a neighbour's arena region.
		ins := ids[off : off+len(node.Ins) : off+len(node.Ins)]
		copy(ins, node.Ins)
		off += len(node.Ins)
		arena[ai] = Node{ID: node.ID, Op: node.Op, Ins: ins, Name: node.Name}
		c.nodes[id] = &arena[ai]
		ai++
		s := g.suc[id]
		if len(s) == 0 {
			c.suc[id] = nil
			continue
		}
		sc := ids[off : off+len(s) : off+len(s)]
		copy(sc, s)
		off += len(s)
		c.suc[id] = sc
	}
}

// String renders a compact multi-line description, topologically ordered.
func (g *Graph) String() string {
	var b []byte
	for _, id := range g.Topo() {
		n := g.nodes[id]
		b = append(b, fmt.Sprintf("%4d %-14s %-18s ins=%v", id, n.Op.Kind(), n.Op.OutShape().String(), n.Ins)...)
		if n.Name != "" {
			b = append(b, ("  # " + n.Name)...)
		}
		b = append(b, '\n')
	}
	return string(b)
}

func removeOne(s []NodeID, v NodeID) []NodeID {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
