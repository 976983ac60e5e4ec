package graphio_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"magis/internal/graphio"

	"magis/internal/cost"
	"magis/internal/models"
	"magis/internal/sched"
)

// TestGoldenFileRoundTrip pins the on-disk format: testdata/mlp-v1.json was
// written by a version-1 build and must keep loading — bit-for-bit — into
// the same graph the constructor produces today. If this test breaks, the
// format changed incompatibly: bump FormatVersion instead of editing the
// golden file.
func TestGoldenFileRoundTrip(t *testing.T) {
	data, err := os.ReadFile("testdata/mlp-v1.json")
	if err != nil {
		t.Fatal(err)
	}
	g, order, err := load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("golden file no longer loads: %v", err)
	}

	// The golden graph is models.MLP(8, 4, 8, 4, 2) with its canonical
	// schedule; structure and costs must match a freshly built one.
	w := models.MLP(8, 4, 8, 4, 2)
	if g.Len() != w.G.Len() {
		t.Fatalf("golden graph has %d nodes, constructor builds %d", g.Len(), w.G.Len())
	}
	if g.WLHash() != w.G.WLHash() {
		t.Error("golden graph's structural hash drifted from the constructor's")
	}
	if err := order.Validate(g); err != nil {
		t.Fatalf("golden schedule invalid: %v", err)
	}
	m := cost.NewModel(cost.RTX3090())
	if a, b := m.GraphComputeLatency(g), m.GraphComputeLatency(w.G); a != b {
		t.Errorf("golden graph latency %g, constructor %g (cost registry drift)", a, b)
	}
	var sc sched.Scheduler
	ref := sc.ScheduleGraph(w.G)
	if sched.PeakOnly(g, order) != sched.PeakOnly(w.G, ref) {
		t.Error("golden schedule's peak memory drifted from the canonical schedule's")
	}

	// And the loaded graph re-saves into something that loads back equal —
	// the format is stable under a save/load cycle, not just a load.
	var buf bytes.Buffer
	if err := graphio.Save(&buf, g, order); err != nil {
		t.Fatal(err)
	}
	g2, order2, err := load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.WLHash() != g2.WLHash() || len(order) != len(order2) {
		t.Error("save/load cycle of the golden graph is not stable")
	}
}

// TestLoadVersionMismatchIsDescriptive: refusing a file is only useful if
// the error tells the operator what they have and what the build wants.
func TestLoadVersionMismatchIsDescriptive(t *testing.T) {
	_, _, err := load(strings.NewReader(`{"magic":"magis-graph","version":99,"nodes":[]}`))
	if err == nil {
		t.Fatal("future version accepted")
	}
	for _, want := range []string{"version 99", "version 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("version error %q does not mention %q", err, want)
		}
	}

	_, _, err = load(strings.NewReader(`{"magic":"magis-sched","version":1,"nodes":[]}`))
	if err == nil {
		t.Fatal("wrong magic accepted")
	}
	for _, want := range []string{`"magis-sched"`, `"magis-graph"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("magic error %q does not mention %q", err, want)
		}
	}
}
