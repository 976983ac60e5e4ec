// Package ingest is the trust boundary for graphs the service did not
// build itself. Everything inside the optimizer assumes well-formed
// inputs — DType.Size panics on unknown values, Shape.Elems multiplies
// without overflow checks, DimLinks indexes without bounds checks, and
// search cost is super-linear in wiring complexity — so an uploaded graph
// must earn its way in before any of that code touches it.
//
// The pipeline has two halves:
//
//   - Decode: strict JSON decoding of the graphio interchange format
//     (unknown fields rejected, one document only) plus structural
//     validation with positional errors — duplicate and dangling node
//     IDs, unregistered operator kinds, dtype allowlist, dimension and
//     rank sanity, overflow-checked shape-product byte bounds, and
//     dimension-link ranges. Accepted documents are canonicalized into a
//     graph.Graph with densely compacted IDs and re-checked against the
//     full graph.Validate invariants. Decode is the one decoder of the
//     format: the CLI and the service both load graphs through it.
//
//   - Preflight: a search-cost classification that rejects "search
//     bombs" — graphs whose shape would make even a single optimizer
//     expansion exceed the operator-set cost ceiling (opt.EstimateSearchTime),
//     or whose depth or fan-out is past the structural limits that keep
//     rewrite-site enumeration bounded.
//
// Every rejection is an *Error carrying a machine-readable Reason, the
// offending node's file position when one exists, and an HTTP status
// class (400 malformed, 413 too large, 422 structurally hostile), so
// front-ends answer attacks with structured verdicts instead of 5xx.
package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"magis/internal/graph"
	"magis/internal/graphio"
	"magis/internal/ops"
	"magis/internal/opt"
	"magis/internal/sched"
	"magis/internal/tensor"
)

// Reason is the machine-readable rejection class carried by every
// ingestion error; clients and the chaos harness dispatch on it.
type Reason string

const (
	// ReasonSyntax: the bytes are not one well-formed JSON document.
	ReasonSyntax Reason = "syntax"
	// ReasonUnknownField: strict decoding found a field the format does
	// not define (typo or smuggling attempt — both rejected).
	ReasonUnknownField Reason = "unknown-field"
	// ReasonHeader: magic/version mismatch.
	ReasonHeader Reason = "header"
	// ReasonDuplicateID: two nodes claim the same ID.
	ReasonDuplicateID Reason = "duplicate-id"
	// ReasonDanglingInput: a node consumes an ID not declared before it.
	ReasonDanglingInput Reason = "dangling-input"
	// ReasonUnknownOp: an operator kind outside the registered catalog.
	ReasonUnknownOp Reason = "unknown-op"
	// ReasonDType: an element type outside the allowlist.
	ReasonDType Reason = "dtype"
	// ReasonBadShape: non-positive dims, absurd rank, or a shape product
	// that overflows the byte accounting.
	ReasonBadShape Reason = "bad-shape"
	// ReasonBadLink: dimension links that index outside their tensor's
	// rank or reduce axes (would crash fission's axis splitting).
	ReasonBadLink Reason = "bad-link"
	// ReasonTooLarge: over a structural budget — nodes, edges, bytes,
	// name/attr length, or the raw document size.
	ReasonTooLarge Reason = "too-large"
	// ReasonInvariant: decoded cleanly but violates a whole-graph
	// invariant (shape agreement, acyclicity, Store/Load pairing).
	ReasonInvariant Reason = "invariant"
	// ReasonSearchBomb: structurally valid but shaped to blow up the
	// optimizer — depth, fan-out, or single-expansion cost past the
	// preflight ceiling.
	ReasonSearchBomb Reason = "search-bomb"
)

// Error is a structured ingestion rejection.
type Error struct {
	// Reason classifies the rejection for machine dispatch.
	Reason Reason
	// Index is the offending node's position in the document (-1 when
	// the error is not tied to one node); ID is that node's declared ID.
	Index int
	ID    graph.NodeID
	// Detail is the human-readable specifics.
	Detail string
}

func (e *Error) Error() string {
	if e.Index >= 0 {
		return fmt.Sprintf("ingest: node %d (file index %d): %s [%s]", e.ID, e.Index, e.Detail, e.Reason)
	}
	return fmt.Sprintf("ingest: %s [%s]", e.Detail, e.Reason)
}

// HTTPStatus maps the rejection class to its response code: 413 for size
// budgets, 422 for well-formed-but-hostile shapes, 400 for everything
// malformed.
func (e *Error) HTTPStatus() int {
	switch e.Reason {
	case ReasonTooLarge:
		return 413
	case ReasonSearchBomb:
		return 422
	default:
		return 400
	}
}

// AsError unwraps an ingestion rejection from err (nil when err carries
// none).
func AsError(err error) *Error {
	var ie *Error
	if errors.As(err, &ie) {
		return ie
	}
	return nil
}

// Limits are the structural budgets Decode and Preflight enforce. Zero
// fields take the defaults below; a negative count disables that bound
// (trusted-operator escape hatch, never the serving default).
type Limits struct {
	// MaxBytes caps the raw document size Decode will buffer.
	MaxBytes int64
	// MaxNodes and MaxEdges cap graph size; search cost is super-linear
	// in both.
	MaxNodes int
	MaxEdges int
	// MaxDepth caps the longest producer chain (preflight; deep chains
	// serialize scheduling and recomputation analysis).
	MaxDepth int
	// MaxFanOut caps one tensor's consumer count (preflight; fan-out
	// multiplies rewrite-site enumeration).
	MaxFanOut int
	// MaxRank caps tensor rank; MaxTensorBytes caps one tensor's
	// footprint; MaxTotalBytes caps the sum of all output tensors.
	MaxRank        int
	MaxTensorBytes int64
	MaxTotalBytes  int64
	// MaxNameLen and MaxAttrLen cap the free-form strings.
	MaxNameLen int
	MaxAttrLen int
	// MaxExpansionCost caps the predicted wall-clock of a single search
	// expansion over the graph (preflight): a graph too big to expand
	// even once within it cannot be searched interactively at all.
	MaxExpansionCost time.Duration
}

// DefaultLimits are serviceable for every built-in workload at full
// scale while still bounding adversarial inputs.
func DefaultLimits() Limits {
	return Limits{
		MaxBytes:         64 << 20, // 64 MiB of JSON
		MaxNodes:         100_000,
		MaxEdges:         400_000,
		MaxDepth:         50_000,
		MaxFanOut:        4096,
		MaxRank:          16,
		MaxTensorBytes:   1 << 38, // 256 GiB: one tensor bigger than any device
		MaxTotalBytes:    1 << 42, // 4 TiB across the graph
		MaxNameLen:       256,
		MaxAttrLen:       1024,
		MaxExpansionCost: 30 * time.Second,
	}
}

func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxBytes == 0 {
		l.MaxBytes = d.MaxBytes
	}
	if l.MaxNodes == 0 {
		l.MaxNodes = d.MaxNodes
	}
	if l.MaxEdges == 0 {
		l.MaxEdges = d.MaxEdges
	}
	if l.MaxDepth == 0 {
		l.MaxDepth = d.MaxDepth
	}
	if l.MaxFanOut == 0 {
		l.MaxFanOut = d.MaxFanOut
	}
	if l.MaxRank == 0 {
		l.MaxRank = d.MaxRank
	}
	if l.MaxTensorBytes == 0 {
		l.MaxTensorBytes = d.MaxTensorBytes
	}
	if l.MaxTotalBytes == 0 {
		l.MaxTotalBytes = d.MaxTotalBytes
	}
	if l.MaxNameLen == 0 {
		l.MaxNameLen = d.MaxNameLen
	}
	if l.MaxAttrLen == 0 {
		l.MaxAttrLen = d.MaxAttrLen
	}
	if l.MaxExpansionCost == 0 {
		l.MaxExpansionCost = d.MaxExpansionCost
	}
	return l
}

// reject builds a node-positioned rejection.
func reject(reason Reason, pos int, id graph.NodeID, format string, args ...any) error {
	return &Error{Reason: reason, Index: pos, ID: id, Detail: fmt.Sprintf(format, args...)}
}

// rejectDoc builds a whole-document rejection.
func rejectDoc(reason Reason, format string, args ...any) error {
	return &Error{Reason: reason, Index: -1, Detail: fmt.Sprintf(format, args...)}
}

// Decode reads one untrusted graph document, validates it against lim,
// and returns the canonicalized graph (IDs compacted densely in file
// order) plus the optional schedule. Every rejection is an *Error.
func Decode(r io.Reader, lim Limits) (*graph.Graph, sched.Schedule, error) {
	lim = lim.withDefaults()
	raw, err := readBounded(r, lim.MaxBytes)
	if err != nil {
		return nil, nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f graphio.File
	if err := dec.Decode(&f); err != nil {
		return nil, nil, decodeError(err)
	}
	if t, err := dec.Token(); err != io.EOF {
		return nil, nil, rejectDoc(ReasonSyntax, "trailing data after the graph document (next token %v)", t)
	}
	if f.Magic != "" && f.Magic != graphio.Magic {
		return nil, nil, rejectDoc(ReasonHeader, "not a graph document: magic %q (want %q)", f.Magic, graphio.Magic)
	}
	if f.Version != graphio.FormatVersion {
		return nil, nil, rejectDoc(ReasonHeader, "unsupported format version %d (this build reads version %d)", f.Version, graphio.FormatVersion)
	}
	if lim.MaxNodes > 0 && len(f.Nodes) > lim.MaxNodes {
		return nil, nil, rejectDoc(ReasonTooLarge, "%d nodes over the %d-node limit", len(f.Nodes), lim.MaxNodes)
	}

	g := graph.New()
	remap := make(map[graph.NodeID]graph.NodeID, len(f.Nodes))
	edges := 0
	var totalBytes int64
	for pos, n := range f.Nodes {
		if _, dup := remap[n.ID]; dup {
			return nil, nil, reject(ReasonDuplicateID, pos, n.ID, "duplicate node id")
		}
		if lim.MaxNameLen > 0 && len(n.Name) > lim.MaxNameLen {
			return nil, nil, reject(ReasonTooLarge, pos, n.ID, "name of %d bytes over the %d-byte limit", len(n.Name), lim.MaxNameLen)
		}
		outBytes, err := checkOp(pos, n, lim)
		if err != nil {
			return nil, nil, err
		}
		totalBytes += outBytes
		if lim.MaxTotalBytes > 0 && totalBytes > lim.MaxTotalBytes {
			return nil, nil, reject(ReasonTooLarge, pos, n.ID, "cumulative output footprint exceeds the %d-byte limit", lim.MaxTotalBytes)
		}
		edges += len(n.Ins)
		if lim.MaxEdges > 0 && edges > lim.MaxEdges {
			return nil, nil, reject(ReasonTooLarge, pos, n.ID, "%d+ edges over the %d-edge limit", edges, lim.MaxEdges)
		}
		ins := make([]graph.NodeID, len(n.Ins))
		for i, in := range n.Ins {
			m, ok := remap[in]
			if !ok {
				return nil, nil, reject(ReasonDanglingInput, pos, n.ID, "references undeclared input %d", in)
			}
			ins[i] = m
		}
		remap[n.ID] = g.AddNamed(n.Name, ops.FromRaw(n.Op), ins...)
	}
	var order sched.Schedule
	for _, v := range f.Schedule {
		m, ok := remap[v]
		if !ok {
			return nil, nil, rejectDoc(ReasonDanglingInput, "schedule references unknown node %d", v)
		}
		order = append(order, m)
	}
	if order != nil {
		if err := order.Validate(g); err != nil {
			return nil, nil, rejectDoc(ReasonInvariant, "schedule: %v", err)
		}
	}
	// The whole-graph invariants (shape agreement along every edge,
	// acyclicity, Store/Load pairing) are the same contract every
	// optimizer-internal graph satisfies; a decoded document gets no
	// weaker a check.
	if err := graph.Validate(g); err != nil {
		return nil, nil, rejectDoc(ReasonInvariant, "%v", err)
	}
	return g, order, nil
}

// readBounded buffers at most max+1 bytes and rejects documents past the
// cap with a too-large verdict instead of a misleading truncation error.
func readBounded(r io.Reader, max int64) ([]byte, error) {
	if max <= 0 {
		b, err := io.ReadAll(r)
		if err != nil {
			return nil, rejectDoc(ReasonSyntax, "reading document: %v", err)
		}
		return b, nil
	}
	b, err := io.ReadAll(io.LimitReader(r, max+1))
	if err != nil {
		return nil, rejectDoc(ReasonSyntax, "reading document: %v", err)
	}
	if int64(len(b)) > max {
		return nil, rejectDoc(ReasonTooLarge, "document exceeds the %d-byte limit", max)
	}
	return b, nil
}

// decodeError classifies a json.Decoder failure: unknown fields get
// their own reason (with the field name preserved), everything else is
// a syntax rejection.
func decodeError(err error) error {
	msg := err.Error()
	if strings.Contains(msg, "unknown field") {
		return rejectDoc(ReasonUnknownField, "%s", strings.TrimPrefix(msg, "json: "))
	}
	return rejectDoc(ReasonSyntax, "%s", strings.TrimPrefix(msg, "json: "))
}

// checkOp validates one node's operator payload against every local
// assumption the optimizer makes, returning the node's output footprint
// for the cumulative byte budget.
func checkOp(pos int, n graphio.Node, lim Limits) (int64, error) {
	op := n.Op
	if !ops.IsRegistered(op.Kind) {
		return 0, reject(ReasonUnknownOp, pos, n.ID, "unregistered operator kind %q", op.Kind)
	}
	if lim.MaxAttrLen > 0 && len(op.Attr) > lim.MaxAttrLen {
		return 0, reject(ReasonTooLarge, pos, n.ID, "attr of %d bytes over the %d-byte limit", len(op.Attr), lim.MaxAttrLen)
	}
	if !op.DType.Valid() {
		return 0, reject(ReasonDType, pos, n.ID, "dtype %d outside the allowlist", op.DType)
	}
	checkShape := func(what string, s tensor.Shape) (int64, error) {
		if lim.MaxRank > 0 && s.Rank() > lim.MaxRank {
			return 0, reject(ReasonBadShape, pos, n.ID, "%s rank %d over the %d limit", what, s.Rank(), lim.MaxRank)
		}
		for d, ext := range s {
			if ext < 1 {
				return 0, reject(ReasonBadShape, pos, n.ID, "%s dimension %d has extent %d, want >= 1", what, d+1, ext)
			}
		}
		b, ok := tensor.BytesChecked(s, op.DType)
		if !ok {
			return 0, reject(ReasonBadShape, pos, n.ID, "%s shape %v overflows the byte accounting", what, s)
		}
		if lim.MaxTensorBytes > 0 && b > lim.MaxTensorBytes {
			return 0, reject(ReasonTooLarge, pos, n.ID, "%s tensor of %d bytes over the %d-byte limit", what, b, lim.MaxTensorBytes)
		}
		return b, nil
	}
	outBytes, err := checkShape("output", op.Out)
	if err != nil {
		return 0, err
	}
	for i, in := range op.Ins {
		if _, err := checkShape(fmt.Sprintf("input %d", i), in); err != nil {
			return 0, err
		}
	}
	for r, ext := range op.Reduce {
		if ext < 1 {
			return 0, reject(ReasonBadShape, pos, n.ID, "reduce axis %d has extent %d, want >= 1", r+1, ext)
		}
	}
	// The node's wiring arity must match the operator's declared inputs;
	// graph.Validate would also catch this, but here the error carries
	// the file position.
	if len(n.Ins) != len(op.Ins) {
		return 0, reject(ReasonInvariant, pos, n.ID, "wires %d producers, op declares %d input shapes", len(n.Ins), len(op.Ins))
	}
	// Dimension links are indexed by input position and dereferenced
	// without bounds checks on the hot fission path; a link outside its
	// tensor's rank is a remote panic.
	if len(op.Links) != 0 && len(op.Links) != len(op.Ins) {
		return 0, reject(ReasonBadLink, pos, n.ID, "declares links for %d inputs, has %d", len(op.Links), len(op.Ins))
	}
	if len(op.Ins) > 0 && len(op.Links) == 0 {
		return 0, reject(ReasonBadLink, pos, n.ID, "declares no dimension links for %d inputs", len(op.Ins))
	}
	for i, links := range op.Links {
		rank := op.Ins[i].Rank()
		for _, lk := range links {
			if lk.In < 1 || lk.In > rank {
				return 0, reject(ReasonBadLink, pos, n.ID, "link input dim %d outside input %d rank %d", lk.In, i, rank)
			}
			switch {
			case lk.Out > 0:
				if lk.Out > op.Out.Rank() {
					return 0, reject(ReasonBadLink, pos, n.ID, "link output dim %d outside output rank %d", lk.Out, op.Out.Rank())
				}
			case lk.Out < 0:
				if -lk.Out > len(op.Reduce) {
					return 0, reject(ReasonBadLink, pos, n.ID, "link reduce axis %d outside %d reduce axes", lk.Out, len(op.Reduce))
				}
			default:
				return 0, reject(ReasonBadLink, pos, n.ID, "link output axis 0 is invalid")
			}
		}
	}
	return outBytes, nil
}

// Preflight classifies an accepted graph's search cost before any
// optimizer state is built for it: depth, fan-out, and the predicted
// wall-clock of a single expansion (the irreducible unit of search
// progress) must all fit the limits, or the graph is rejected as a
// search bomb. o carries the request's search shape (workers matter:
// expansion cost divides across them).
func Preflight(g *graph.Graph, o opt.Options, lim Limits) error {
	lim = lim.withDefaults()
	if lim.MaxFanOut > 0 {
		for _, v := range g.NodeIDs() {
			if n := len(g.Suc(v)); n > lim.MaxFanOut {
				return rejectDoc(ReasonSearchBomb, "node %d fans out to %d consumers, over the %d limit (rewrite-site enumeration is fan-out bounded)", v, n, lim.MaxFanOut)
			}
		}
	}
	if lim.MaxDepth > 0 {
		if d := depth(g); d > lim.MaxDepth {
			return rejectDoc(ReasonSearchBomb, "producer-chain depth %d over the %d limit", d, lim.MaxDepth)
		}
	}
	if lim.MaxExpansionCost > 0 {
		one := opt.EstimateSearchTime(g.Len(), opt.Options{
			TimeBudget:    -1, // uncapped: the single-expansion term is the point
			Workers:       o.Workers,
			MaxIterations: 1,
		})
		if one > lim.MaxExpansionCost {
			return rejectDoc(ReasonSearchBomb, "a single search expansion is predicted to take %v, over the %v ceiling", one, lim.MaxExpansionCost)
		}
	}
	return nil
}

// depth computes the longest producer chain (in nodes) over the DAG.
func depth(g *graph.Graph) int {
	longest := make(map[graph.NodeID]int, g.Len())
	max := 0
	for _, v := range g.Topo() {
		d := 1
		for _, in := range g.Node(v).Ins {
			if pd := longest[in]; pd+1 > d {
				d = pd + 1
			}
		}
		longest[v] = d
		if d > max {
			max = d
		}
	}
	return max
}
