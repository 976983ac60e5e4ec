// Package graphio serializes computation graphs and schedules to JSON so
// optimized programs can be saved, inspected, diffed, and reloaded by
// downstream tooling. Only operator graphs serialize (collapsed fission
// regions are a search-time construct; materialize first).
//
// Two encodings live here:
//
//   - Save and the File envelope, the portable interchange format,
//     suitable for handing graphs between tools. Its one decoder is
//     ingest.Decode, which validates untrusted documents and compacts
//     node IDs densely in file order.
//   - Record/GraphRecord.Restore, the snapshot encoding used by search
//     checkpoints (internal/opt): node IDs and the fresh-ID counter are
//     preserved exactly, so a restored graph behaves bit-identically to
//     the snapshotted one (iteration order, future ID allocation).
package graphio

import (
	"encoding/json"
	"fmt"
	"io"

	"magis/internal/graph"
	"magis/internal/ops"
	"magis/internal/sched"
)

// Magic identifies a graphio file; files written before the header was
// introduced carry an empty magic and remain decodable.
const Magic = "magis-graph"

// FormatVersion is the on-disk format version Save writes and decoders
// accept. Bump it on any incompatible change to the envelope below.
const FormatVersion = 1

// File is the on-disk envelope of the interchange format.
type File struct {
	Magic    string         `json:"magic,omitempty"`
	Version  int            `json:"version"`
	Nodes    []Node         `json:"nodes"`
	Schedule []graph.NodeID `json:"schedule,omitempty"`
}

// Node is one node of a File or GraphRecord: its operator payload and
// the IDs of its producers, which precede it in the node list.
type Node struct {
	ID   graph.NodeID   `json:"id"`
	Name string         `json:"name,omitempty"`
	Op   ops.Raw        `json:"op"`
	Ins  []graph.NodeID `json:"ins,omitempty"`
}

// Save writes g (and an optional schedule; pass nil for none) as JSON.
func Save(w io.Writer, g *graph.Graph, order sched.Schedule) error {
	f := File{Magic: Magic, Version: FormatVersion, Schedule: order}
	nodes, err := encodeNodes(g)
	if err != nil {
		return err
	}
	f.Nodes = nodes
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// GraphRecord is the snapshot encoding of one graph: node IDs and the
// fresh-ID counter are preserved exactly. It marshals to/from JSON and is
// embedded inside search checkpoints.
type GraphRecord struct {
	// Next is the graph's fresh-ID counter (strictly above every ID ever
	// allocated in the lineage, including removed nodes).
	Next graph.NodeID `json:"next"`
	// Nodes lists the live nodes in topological order.
	Nodes []Node `json:"nodes"`
}

// Record captures g as an ID-exact snapshot. Every payload must be an
// *ops.Spec (logical graphs only; collapsed regions do not serialize).
func Record(g *graph.Graph) (*GraphRecord, error) {
	nodes, err := encodeNodes(g)
	if err != nil {
		return nil, err
	}
	return &GraphRecord{Next: g.NextID(), Nodes: nodes}, nil
}

// Restore rebuilds the recorded graph with identical node IDs and fresh-ID
// counter.
func (r *GraphRecord) Restore() (*graph.Graph, error) {
	g := graph.New()
	for _, n := range r.Nodes {
		if err := g.AddWithID(n.ID, n.Name, ops.FromRaw(n.Op), n.Ins...); err != nil {
			return nil, fmt.Errorf("graphio: restore: %w", err)
		}
	}
	if err := g.SetNextID(r.Next); err != nil {
		return nil, fmt.Errorf("graphio: restore: %w", err)
	}
	return g, nil
}

// encodeNodes serializes the node table in topological order so every
// node's inputs are declared before it (rewrites can produce IDs out of
// topological order, so ascending-ID order would not suffice).
func encodeNodes(g *graph.Graph) ([]Node, error) {
	var out []Node
	for _, v := range g.Topo() {
		n := g.Node(v)
		spec, ok := n.Op.(*ops.Spec)
		if !ok {
			return nil, fmt.Errorf("graphio: node %d has non-serializable payload %q", v, n.Op.Kind())
		}
		out = append(out, Node{
			ID:   v,
			Name: n.Name,
			Op:   spec.Marshal(),
			Ins:  n.Ins,
		})
	}
	return out, nil
}
