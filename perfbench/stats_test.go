package main

import (
	"magis/internal/cost"

	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestTailLevelLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {21, 52}, {40, 75}, {99, 89}, {100, 90}, {1000, 90}} {
		if got := tailLevel(tc.n); got != tc.want {
			t.Errorf("tailLevel(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	for n := 21; n <= 500; n++ {
		lvl := tailLevel(n)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		beyond := 0
		for _, x := range xs {
			if x > percentile(xs, lvl) {
				beyond++
			}
		}
		if beyond < 10 {
			t.Fatalf("n=%d: p%v leaves %d samples beyond it, want >= 10", n, lvl, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := percentile(xs, 90); got != 5 {
		t.Fatalf("p90 = %v, want 5", got)
	}
	if xs[0] != 5 {
		t.Fatal("percentile sorted its input in place")
	}
}

func TestFailureCountsAsMiss(t *testing.T) {
	const miss = 60.0
	us := []outcome{
		{lat: 0.010, settled: true},
		{lat: 0.001, settled: false}, // refused fast: still a miss
		{lat: 0.020, settled: true},
		{lat: 0, settled: false}, // never settled
	}
	lat := latencies(us, miss)
	if lat[1] != miss || lat[3] != miss {
		t.Fatalf("failed units must read as the miss latency, got %v", lat)
	}
	if got := median(lat); got != 0.020 {
		t.Fatalf("median with two failures of four = %v, want 0.020", got)
	}
	if got := percentile(lat, 90); got != miss {
		t.Fatalf("p90 reaches the failures, want %v, got %v", miss, got)
	}
	// A settled unit slower than the wait limit is no faster than a miss.
	if got := latencies([]outcome{{lat: 90, settled: true}}, miss)[0]; got != miss {
		t.Fatalf("latency beyond the wait limit = %v, want %v", got, miss)
	}
}

func TestScheduleRepeatsPerSeed(t *testing.T) {
	pick := func(r *rand.Rand, n int) []arrival {
		out := make([]arrival, n)
		for i, k := range balanced(r, n, 4) {
			out[i] = arrival{item: k, body: []byte{byte('a' + k), byte(r.Intn(256))}}
		}
		return out
	}
	a := schedule(7, 5, 10*time.Second, pick)
	b := schedule(7, 5, 10*time.Second, pick)
	if len(a) != 50 {
		t.Fatalf("rate 5/s over 10s drew %d arrivals, want 50", len(a))
	}
	for i := range a {
		if a[i].at != b[i].at || a[i].item != b[i].item || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("arrival %d differs between two draws of one seed", i)
		}
		if i > 0 && a[i].at < a[i-1].at {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	counts := map[int]int{}
	for _, x := range a {
		counts[x.item]++
	}
	for k := 0; k < 4; k++ {
		if c := counts[k]; c < 12 || c > 13 {
			t.Fatalf("kind %d drawn %d times of 50, want 12 or 13", k, c)
		}
	}
	c := schedule(8, 5, 10*time.Second, pick)
	same := true
	for i := range a {
		same = same && bytes.Equal(a[i].body, c[i].body)
	}
	if same {
		t.Fatal("two seeds drew the same requests")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{0.5, 2}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("geomean(0.5, 2) = %v, want 1", got)
	}
}

func TestTailIsOverSettledUnits(t *testing.T) {
	var us []outcome
	for i := 1; i <= 30; i++ {
		us = append(us, outcome{lat: float64(i), settled: true})
	}
	us = append(us, outcome{lat: 0.5}, outcome{lat: 0.5}) // refusals
	// 30 settled samples: p66 is the highest level with ten beyond it.
	if got := tail(us); got != 20 {
		t.Fatalf("tail = %v, want 20 (p66 of the 30 settled samples)", got)
	}
}

func TestServeRequestsRepeatPerSeed(t *testing.T) {
	m := cost.NewModel(cost.RTX3090())
	for _, sp := range []serveSpec{serveCacheSpec, serveOverloadSpec} {
		p1, err := servePool(3, m)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := servePool(3, m)
		if err != nil {
			t.Fatal(err)
		}
		a := sp.requests(3, 5*time.Second, p1)
		b := sp.requests(3, 5*time.Second, p2)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("request counts %d and %d", len(a), len(b))
		}
		for i := range a {
			if a[i].at != b[i].at || !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("request %d differs between two builds of one seed", i)
			}
		}
	}
}
