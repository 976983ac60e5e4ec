package opt

import (
	"context"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"magis/internal/graph"
	"magis/internal/models"
	"magis/internal/sched"
)

// samePlansCase is one graph of the same-plans golden: the hash of its
// full ScheduleGraph order, and the best state of a fixed 4-expansion
// search over it.
type samePlansCase struct {
	name     string
	g        func() *graph.Graph
	mem      bool // MemoryUnderLatency at 1.10x latency; else LatencyUnderMemory at 0.80x peak
	schedH   uint64
	peak     int64
	latency  float64
	bestSchH uint64
}

func scheduleHash(s sched.Schedule) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range s {
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSamePlansGolden pins the scheduler's and the search's answers on
// four graphs: any change to the beam's candidate order, tie handling,
// sub-problem indexing or partitioning shows up here as a changed order
// hash. Performance work on internal/sched must leave it passing
// unedited.
func TestSamePlansGolden(t *testing.T) {
	cases := []samePlansCase{
		{name: "ResNet-50", mem: true,
			g:      func() *graph.Graph { return models.ResNet50Config(4, 64, []int{2, 2, 2, 2}).G },
			schedH: 0x2bce5d44028ee201, peak: 84024964, latency: 0.0026410319972225717, bestSchH: 0xbb8a81c2a3d2efcc},
		{name: "ViT-base",
			g:      func() *graph.Graph { return models.ViTBase(2, 32, 16).G },
			schedH: 0x6a7a3fdfc041adc4, peak: 367060996, latency: 0.006970217662393138, bestSchH: 0x6a7a3fdfc041adc4},
		{name: "NASNet-528", mem: true,
			g:      func() *graph.Graph { return models.RandomNASNet(1, 24, 32, 64, 16).G },
			schedH: 0xa601d96fbf07ae25, peak: 93739712, latency: 0.011411408471770784, bestSchH: 0xe102760aad166851},
		{name: "SkipChain", mem: true,
			g:      func() *graph.Graph { g, _ := models.SkipChain(32, 64<<10); return g },
			schedH: 0xf8a57f95367bd005, peak: 7602176, latency: 0.00047060956991452967, bestSchH: 0xa605165bf09c334d},
	}
	m := model()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := c.g()
			if h := scheduleHash((&sched.Scheduler{}).ScheduleGraph(g)); h != c.schedH {
				t.Errorf("ScheduleGraph order hash %#x, golden %#x", h, c.schedH)
			}
			// The search compares float latencies; the goldens were
			// recorded on amd64, where Go never fuses multiply-adds.
			if runtime.GOARCH != "amd64" {
				t.Skipf("search goldens are recorded on amd64, not %s", runtime.GOARCH)
			}
			base := Baseline(g, m)
			o := Options{MaxIterations: 4, TimeBudget: -1, Workers: 1}
			if c.mem {
				o.Mode, o.LatencyLimit = MemoryUnderLatency, 1.10*base.Latency
			} else {
				o.Mode, o.MemLimit = LatencyUnderMemory, int64(0.80*float64(base.PeakMem))
			}
			res, err := OptimizeCtx(context.Background(), g, m, o)
			if err != nil {
				t.Fatal(err)
			}
			b := res.Best
			// Latency is compared to 1e-12: a collapsed region sums its
			// output-merge latencies in map order, so the last bit of a
			// plan's latency can vary from run to run.
			if b.PeakMem != c.peak || math.Abs(b.Latency-c.latency) > 1e-12*c.latency || scheduleHash(b.Sched) != c.bestSchH {
				t.Errorf("best (peak %d, latency %v, sched %#x), golden (%d, %v, %#x)",
					b.PeakMem, b.Latency, scheduleHash(b.Sched), c.peak, c.latency, c.bestSchH)
			}
		})
	}
}
