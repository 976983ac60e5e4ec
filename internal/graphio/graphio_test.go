package graphio_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"magis/internal/cost"
	"magis/internal/graph"
	"magis/internal/graphio"
	"magis/internal/ingest"
	"magis/internal/models"
	"magis/internal/sched"
)

// load decodes a document through the format's one decoder,
// ingest.Decode, under its default limits.
func load(r io.Reader) (*graph.Graph, sched.Schedule, error) {
	return ingest.Decode(r, ingest.Limits{})
}

func TestRoundTripPreservesStructureAndCosts(t *testing.T) {
	w := models.MLP(64, 32, 64, 10, 2)
	var sc sched.Scheduler
	order := sc.ScheduleGraph(w.G)

	var buf bytes.Buffer
	if err := graphio.Save(&buf, w.G, order); err != nil {
		t.Fatal(err)
	}
	g2, order2, err := load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != w.G.Len() {
		t.Fatalf("node count %d != %d", g2.Len(), w.G.Len())
	}
	if w.G.WLHash() != g2.WLHash() {
		t.Error("round trip changed the structural hash")
	}
	if len(order2) != len(order) {
		t.Fatal("schedule length changed")
	}
	if err := order2.Validate(g2); err != nil {
		t.Fatal(err)
	}
	// Memory and latency metrics must be identical.
	if sched.PeakOnly(w.G, order) != sched.PeakOnly(g2, order2) {
		t.Error("peak memory changed across round trip")
	}
	m := cost.NewModel(cost.RTX3090())
	if a, b := m.GraphComputeLatency(w.G), m.GraphComputeLatency(g2); a != b {
		t.Errorf("latency changed across round trip: %g vs %g", a, b)
	}
}

func TestRoundTripAllWorkloads(t *testing.T) {
	m := cost.NewModel(cost.RTX3090())
	for _, w := range models.SmallSuite() {
		var buf bytes.Buffer
		if err := graphio.Save(&buf, w.G, nil); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		g2, _, err := load(&buf)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if w.G.WLHash() != g2.WLHash() {
			t.Errorf("%s: hash mismatch after round trip", w.Name)
		}
		// The flops registry must reproduce every constructor's costs.
		if a, b := m.GraphComputeLatency(w.G), m.GraphComputeLatency(g2); a != b {
			t.Errorf("%s: latency %g != %g after round trip (flops registry drift)", w.Name, a, b)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := load(strings.NewReader(`{"version": 2}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, _, err := load(strings.NewReader(
		`{"version":1,"nodes":[{"id":0,"op":{"kind":"ReLU","out":[4],"dtype":0},"ins":[7]}]}`)); err == nil {
		t.Error("dangling input reference accepted")
	}
}
