package main

import (
	"math"
	"sort"
)

// tailLevel is the percentile the benchmark reports as a tail: the
// highest level, at most 90, that still leaves at least ten samples
// beyond it (so the figure rests on more than one or two outliers). It
// returns 50 when there are too few samples for any tail beyond the
// median.
func tailLevel(n int) float64 {
	if n <= 20 {
		return 50
	}
	lvl := 100 * float64(n-10) / float64(n)
	return math.Min(90, math.Floor(lvl))
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule over the sorted samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail is the latency at tailLevel over the units that settled. Under
// overload more than a tenth of the requests fail, so a tail over every
// request would only say "beyond every limit" on every run; the failures
// are carried by the median (where they count as misses) and by the
// settled share instead.
func tail(us []outcome) float64 {
	var xs []float64
	for _, u := range us {
		if u.settled {
			xs = append(xs, u.lat)
		}
	}
	return percentile(xs, tailLevel(len(xs)))
}

// geomean is the geometric mean of positive ratios (NaN when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// outcome is the benchmark's verdict on one unit of work: a search of
// the optimize workload, or one request of a serve workload.
type outcome struct {
	// lat is the unit's latency in seconds: for a request, from its
	// scheduled send time to the server's finished stamp.
	lat float64
	// settled reports that the unit ended done (a degraded anytime
	// answer included). Refused, shed, failed and unsettled units are not
	// settled.
	settled bool
}

// latencies returns the latency of every unit, counting a unit that did
// not settle as miss: a value beyond every latency limit, the longest
// the benchmark waits for an answer.
func latencies(us []outcome, miss float64) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = u.lat
		if !u.settled || u.lat > miss {
			out[i] = miss
		}
	}
	return out
}

// sameLatency compares two simulated latencies. The search's simulated
// latency is not bit-reproducible: repeating one search in one process
// can move the last bit of the float sum. A relative 1e-9 is far below
// anything a metric resolves and far above that rounding.
func sameLatency(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
