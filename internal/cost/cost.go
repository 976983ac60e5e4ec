// Package cost provides the analytic operator latency model and the
// operator performance cache (§6.2). It stands in for the paper's measured
// cuDNN/cuBLAS kernel timings: every algorithm in MAGIS consumes only
// per-operator latencies, and this model reproduces the effects those
// algorithms trade on — small operators run at lower hardware utilization
// (so fission costs latency), per-kernel launch overhead penalizes
// fine-grained splitting, and host transfers are bandwidth-limited (so
// swapping costs latency unless hidden by overlap).
package cost

import (
	"sync"
	"sync/atomic"

	"magis/internal/graph"
	"magis/internal/ops"
)

// Device models the relevant characteristics of an accelerator.
type Device struct {
	Name string
	// PeakFLOPS is the peak compute throughput in FLOP/s.
	PeakFLOPS float64
	// MemBW is device-memory bandwidth in bytes/s.
	MemBW float64
	// HostBW is host-link (PCIe) bandwidth in bytes/s, used by Store/Load.
	HostBW float64
	// Launch is the fixed per-kernel launch overhead in seconds.
	Launch float64
	// Capacity is device memory in bytes.
	Capacity int64
	// OccElems is the number of output elements at which compute
	// utilization reaches 50%; smaller tensors run proportionally slower.
	OccElems float64
	// OccBytes is the byte count at which memory-bandwidth utilization
	// reaches 50%.
	OccBytes float64
}

// RTX3090 returns a device resembling the paper's evaluation platform
// (NVIDIA GeForce RTX 3090, tf32 workloads, PCIe 4.0 x16).
func RTX3090() *Device {
	return &Device{
		Name:      "RTX3090",
		PeakFLOPS: 35.6e12,
		MemBW:     936e9,
		HostBW:    25e9,
		Launch:    5e-6,
		Capacity:  24 << 30,
		OccElems:  1 << 17,
		OccBytes:  1 << 20,
	}
}

// Model computes operator latencies against one Device, memoizing results
// in a performance cache keyed by operator signature — mirroring the
// paper's simulator with operator performance cache. The cache is a
// sync.Map read concurrently by every search worker; the previous
// mutex-guarded map serialized the workers (every candidate evaluation
// prices hundreds of operators) and was a measured cause of the pool's
// flat scaling.
type Model struct {
	Dev *Device

	cache sync.Map // Spec.SigKey() -> float64 seconds
	hits  atomic.Int64
	miss  atomic.Int64
}

// NewModel returns a Model for dev.
func NewModel(dev *Device) *Model {
	return &Model{Dev: dev}
}

// OpLatency returns the latency of one execution of s, in seconds.
// Leaf nodes (Input/Param) cost nothing; transfers are sized by HostBW;
// compute ops follow a roofline with occupancy-dependent utilization.
func (m *Model) OpLatency(s *ops.Spec) float64 {
	if ops.IsLeaf(s.Kind()) {
		return 0
	}
	key := s.SigKey()
	if v, ok := m.cache.Load(key); ok {
		m.hits.Add(1)
		return v.(float64)
	}
	m.miss.Add(1)
	v := m.rawLatency(s)
	m.cache.Store(key, v)
	return v
}

func (m *Model) rawLatency(s *ops.Spec) float64 {
	d := m.Dev
	if ops.IsTransfer(s.Kind()) {
		return float64(ops.TransferBytes(s))/d.HostBW + d.Launch
	}
	// Parallelism proxy: reductions (loss, bias/weight-grad sums) expose
	// their input elements as parallel work even when the output is tiny.
	elems := float64(s.OutShape().Elems())
	var inElems float64
	for i := 0; i < s.NumIns(); i++ {
		inElems += float64(s.InShape(i).Elems())
	}
	if inElems > elems {
		elems = inElems
	}
	bytes := float64(s.OutBytes() + s.InBytes())
	utilC := elems / (elems + d.OccElems)
	utilM := bytes / (bytes + d.OccBytes)
	tc := 0.0
	if f := s.FLOPs(); f > 0 {
		tc = f / (d.PeakFLOPS * utilC)
	}
	tm := bytes / (d.MemBW * utilM)
	t := tc
	if tm > t {
		t = tm
	}
	return t + d.Launch
}

// TransferLatency returns the host-link time to move n bytes.
func (m *Model) TransferLatency(n int64) float64 {
	return float64(n)/m.Dev.HostBW + m.Dev.Launch
}

// CacheStats returns (hits, misses) of the performance cache.
func (m *Model) CacheStats() (hits, misses int64) {
	return m.hits.Load(), m.miss.Load()
}

// NodeLatency returns the latency of a graph node's operator. Nodes whose
// payload is not an *ops.Spec cost nothing.
func (m *Model) NodeLatency(n *graph.Node) float64 {
	if s, ok := n.Op.(*ops.Spec); ok {
		return m.OpLatency(s)
	}
	return 0
}

// GraphComputeLatency returns the paper's §2.1 latency estimate
// cost(G) = sum over v of cost(v), counting compute-stream operators only;
// Store/Load run on the copy stream and contribute through overlap, which
// internal/sim models exactly.
func (m *Model) GraphComputeLatency(g *graph.Graph) float64 {
	var t float64
	for _, id := range g.NodeIDs() {
		n := g.Node(id)
		if ops.IsTransfer(n.Op.Kind()) {
			continue
		}
		t += m.NodeLatency(n)
	}
	return t
}
