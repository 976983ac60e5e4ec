package main

import (
	"math/rand"
	"time"
)

// arrival is one scheduled request of an open-loop workload.
type arrival struct {
	// at is the send time as an offset from the start of the window.
	at time.Duration
	// item indexes the workload's request pool.
	item int
	// body is the exact request bytes.
	body []byte
}

// schedule builds an open-loop arrival schedule: n = rate×window
// arrivals, evenly spaced, so every seed sends the same number of
// requests at the same times. (Poisson arrivals moved the serve-cache
// median by half between runs: bursts of cold misses queue the hits
// behind them.) mix supplies the n requests in send order, item and
// bytes set; the seed drives it, so the same seed always yields the same
// requests in the same order.
func schedule(seed int64, rate float64, window time.Duration, mix func(r *rand.Rand, n int) []arrival) []arrival {
	r := rand.New(rand.NewSource(seed))
	n := int(rate*window.Seconds() + 0.5)
	out := mix(r, n)
	for i := range out {
		out[i].at = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// balanced returns n draws from k kinds in a seeded order, each kind as
// close to n/k times as n allows, so the work in a run does not swing
// with the seed's luck in drawing heavy or light requests.
func balanced(r *rand.Rand, n, k int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % k
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
