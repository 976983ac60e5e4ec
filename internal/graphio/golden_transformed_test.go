package graphio_test

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"magis/internal/graphio"

	"magis/internal/baselines"
	"magis/internal/graph"
	"magis/internal/models"
	"magis/internal/refexec"
	"magis/internal/rules"
	"magis/internal/sched"
	"magis/internal/verify"
)

var updateTransformed = flag.Bool("update-transformed", false,
	"rewrite testdata/transformed-v1.json from the current generators")

const transformedGoldenPath = "testdata/transformed-v1.json"

// buildTransformed deterministically reproduces the transformed golden
// graph: the MLP golden workload put through a whole-graph batch fission
// (leaving Slice/Concat remnants) and one swap rewrite (leaving a
// Store/Load pair). Returns the intermediate fissioned graph too: the
// swap rewrite clones it ID-for-ID, which makes a numeric output
// cross-check between the two possible.
func buildTransformed(t *testing.T) (split, tg *graph.Graph, order sched.Schedule) {
	t.Helper()
	w := models.MLP(8, 4, 8, 4, 2)
	split, err := baselines.SplitBatch(w.G, 2)
	if err != nil {
		t.Fatalf("SplitBatch: %v", err)
	}
	apps := rules.SwapRule{}.Apply(split, &rules.Context{})
	if len(apps) == 0 {
		t.Fatal("SwapRule found no site on the fissioned MLP")
	}
	tg = apps[0].Graph
	sc := &sched.Scheduler{}
	return split, tg, sc.ScheduleGraph(tg)
}

// TestTransformedGoldenRoundTrip pins the on-disk format for graphs the
// optimizer actually emits — containing Store/Load transfer pairs and
// batch-fission remnants — not just pristine constructor output. The
// loaded graph must match the generator structurally AND compute, node
// for node, exactly the values the generator graph computes under the
// reference interpreter. Regenerate with:
//
//	go test ./internal/graphio/ -run TransformedGolden -update-transformed
func TestTransformedGoldenRoundTrip(t *testing.T) {
	split, want, order := buildTransformed(t)
	if *updateTransformed {
		var buf bytes.Buffer
		if err := graphio.Save(&buf, want, order); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(transformedGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", transformedGoldenPath, buf.Len())
	}
	data, err := os.ReadFile(transformedGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	g, gorder, err := load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("transformed golden file no longer loads: %v", err)
	}
	if g.WLHash() != want.WLHash() {
		t.Error("transformed golden drifted from its generator (rules or fission changed?); re-run with -update-transformed if intentional")
	}
	if err := gorder.Validate(g); err != nil {
		t.Fatalf("golden schedule invalid: %v", err)
	}
	kinds := map[string]int{}
	for _, id := range g.NodeIDs() {
		kinds[g.Node(id).Op.Kind()]++
	}
	for _, k := range []string{"Store", "Load", "Slice", "Concat"} {
		if kinds[k] == 0 {
			t.Errorf("transformed golden contains no %s node — it no longer exercises the transformed-graph format", k)
		}
	}

	// The swap rewrite must not have changed the computed function: the
	// rewritten graph clones the fissioned one ID-for-ID, so the
	// verifier's output pairing applies directly.
	sv, err := refexec.Run(split, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	wleaves := refexec.SeedLeaves(want, 7)
	wv, err := refexec.Exec(want, order, wleaves)
	if err != nil {
		t.Fatal(err)
	}
	if mms, _, err := verify.MatchOutputs(split, sv, want, wv); err != nil {
		t.Fatal(err)
	} else if len(mms) > 0 {
		t.Fatalf("swapped graph diverges from the fissioned graph: %+v", mms[0])
	}

	// The committed golden must still execute under the reference
	// interpreter: every serialized operator reconstitutes into a node
	// refexec has a kernel for.
	if _, err := refexec.Run(g, gorder, 7); err != nil {
		t.Fatalf("loaded transformed graph does not execute: %v", err)
	}

	// Serialization must preserve numerics exactly. Node IDs inside the
	// transformed graph are not reproducible run-to-run (clone order
	// is), so this check runs on an in-process save/load cycle, where a
	// positional correspondence holds by construction: Decode compacts
	// node IDs densely in file order, and Save writes nodes in
	// want.Topo() order, so want.Topo()[i] is the i-th ascending ID of
	// the reloaded graph. Seed the reloaded graph's leaves with the
	// generator's buffers through that correspondence and demand
	// bitwise-equal values at every node.
	var cycle bytes.Buffer
	if err := graphio.Save(&cycle, want, order); err != nil {
		t.Fatal(err)
	}
	rg, rorder, err := load(&cycle)
	if err != nil {
		t.Fatal(err)
	}
	wids := want.Topo()
	rids := rg.NodeIDs()
	if len(wids) != len(rids) {
		t.Fatalf("reloaded graph has %d nodes, generator has %d", len(rids), len(wids))
	}
	rleaves := make(map[graph.NodeID][]float64, len(wleaves))
	for i, wid := range wids {
		wn, rn := want.Node(wid), rg.Node(rids[i])
		if wn.Op.Kind() != rn.Op.Kind() || wn.Name != rn.Name {
			t.Fatalf("node correspondence broken at position %d: generator %s %q vs reloaded %s %q",
				i, wn.Op.Kind(), wn.Name, rn.Op.Kind(), rn.Name)
		}
		if buf, ok := wleaves[wid]; ok {
			rleaves[rids[i]] = buf
		}
	}
	rv, err := refexec.Exec(rg, rorder, rleaves)
	if err != nil {
		t.Fatalf("reloaded transformed graph does not execute: %v", err)
	}
	for i, wid := range wids {
		a, b := wv[wid], rv[rids[i]]
		if len(a) != len(b) {
			t.Fatalf("node %d (%s): generator computed %d elements, reloaded graph %d",
				wid, want.Node(wid).Op.Kind(), len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("node %d (%s) elem %d: generator %v, reloaded graph %v — serialization changed numerics",
					wid, want.Node(wid).Op.Kind(), j, a[j], b[j])
			}
		}
	}

	// Format stability of the committed golden under a save/load cycle.
	var buf bytes.Buffer
	if err := graphio.Save(&buf, g, gorder); err != nil {
		t.Fatal(err)
	}
	g2, order2, err := load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.WLHash() != g2.WLHash() || len(gorder) != len(order2) {
		t.Error("save/load cycle of the transformed golden is not stable")
	}
}
