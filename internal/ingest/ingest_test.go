package ingest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"magis/internal/cost"
	"magis/internal/graph"
	"magis/internal/graphio"
	"magis/internal/models"
	"magis/internal/ops"
	"magis/internal/opt"
	"magis/internal/tensor"
)

// TestDecodeMatchesLoad pins the trust boundary's fidelity contract: on
// bytes graphio.Save produced, the strict decoder rebuilds the graph the
// document was saved from — same node count, same structural hash, same
// topological order of IDs. Hardening must change what is rejected,
// never what an accepted graph means.
func TestDecodeMatchesLoad(t *testing.T) {
	for _, w := range models.SmallSuite() {
		var buf bytes.Buffer
		if err := graphio.Save(&buf, w.G, nil); err != nil {
			t.Fatalf("%s: save: %v", w.Name, err)
		}
		gi, _, err := Decode(&buf, Limits{})
		if err != nil {
			t.Fatalf("%s: strict decode rejected a Save output: %v", w.Name, err)
		}
		if gi.Len() != w.G.Len() {
			t.Fatalf("%s: %d nodes decoded, %d saved", w.Name, gi.Len(), w.G.Len())
		}
		if gi.WLHash() != w.G.WLHash() {
			t.Errorf("%s: structural hash differs from the saved graph", w.Name)
		}
		// The canonicalized ID assignment must agree node for node.
		it, wt := gi.Topo(), w.G.Topo()
		for i := range it {
			if it[i] != wt[i] {
				t.Fatalf("%s: topo order diverges at %d: %d vs %d", w.Name, i, it[i], wt[i])
			}
		}
	}
}

// TestPlanEquivalence is the acceptance pin for the whole pipeline: a
// well-formed graph admitted through ingestion optimizes to a plan
// bit-identical to the graph the document was saved from, under fixed
// work (iteration-capped, single worker).
func TestPlanEquivalence(t *testing.T) {
	w := models.MLP(32, 16, 32, 10, 2)
	var buf bytes.Buffer
	if err := graphio.Save(&buf, w.G, nil); err != nil {
		t.Fatal(err)
	}
	gi, _, err := Decode(&buf, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewModel(cost.RTX3090())
	run := func(g *graph.Graph) *opt.Result {
		base := opt.Baseline(g, model)
		res, err := opt.Optimize(g, model, opt.Options{
			MaxIterations: 30,
			Workers:       1,
			TimeBudget:    -1,
			LatencyLimit:  base.Latency * 1.10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(gi), run(w.G)
	if a.Best.PeakMem != b.Best.PeakMem {
		t.Errorf("peak memory diverges: %d via ingest, %d direct", a.Best.PeakMem, b.Best.PeakMem)
	}
	if a.Best.Latency != b.Best.Latency {
		t.Errorf("latency diverges: %g via ingest, %g direct", a.Best.Latency, b.Best.Latency)
	}
	if a.Stats.Iterations != b.Stats.Iterations {
		t.Errorf("iterations diverge: %d vs %d", a.Stats.Iterations, b.Stats.Iterations)
	}
	if a.Best.G.WLHash() != b.Best.G.WLHash() {
		t.Error("winning graphs differ structurally")
	}
}

// decodeReason runs Decode and returns the rejection's machine-readable
// reason (failing the test on acceptance or an untyped error).
func decodeReason(t *testing.T, doc string, lim Limits) *Error {
	t.Helper()
	_, _, err := Decode(strings.NewReader(doc), lim)
	if err == nil {
		t.Fatalf("hostile document accepted: %s", doc)
	}
	ie := AsError(err)
	if ie == nil {
		t.Fatalf("rejection is not a typed ingest error: %v", err)
	}
	return ie
}

// validDoc is the smallest document Decode accepts.
const validDoc = `{"version":1,"nodes":[{"id":0,"op":{"kind":"Input","out":[4],"dtype":0}}]}`

// hostileDocs is the hostile-document corpus: each entry must be
// rejected with its reason and status. FuzzDecode seeds from it, so every
// hand-written attack is also a mutation starting point.
var hostileDocs = []struct {
	name   string
	doc    string
	lim    Limits
	reason Reason
	status int
}{
	{"truncated json", `{"version":1,"nodes":[{"id":0,`, Limits{}, ReasonSyntax, 400},
	{"trailing garbage", validDoc + `{"version":1}`, Limits{}, ReasonSyntax, 400},
	{"unknown top-level field", `{"version":1,"nodes":[],"exploit":1}`, Limits{}, ReasonUnknownField, 400},
	{"unknown node field", `{"version":1,"nodes":[{"id":0,"op":{"kind":"Input","out":[4],"dtype":0},"shell":"x"}]}`, Limits{}, ReasonUnknownField, 400},
	{"unknown op field", `{"version":1,"nodes":[{"id":0,"op":{"kind":"Input","out":[4],"dtype":0,"smuggle":[]}}]}`, Limits{}, ReasonUnknownField, 400},
	{"bad magic", `{"magic":"not-magis","version":1,"nodes":[]}`, Limits{}, ReasonHeader, 400},
	{"future version", `{"version":9,"nodes":[]}`, Limits{}, ReasonHeader, 400},
	{"duplicate id", `{"version":1,"nodes":[
		{"id":1,"op":{"kind":"Input","out":[4],"dtype":0}},
		{"id":1,"op":{"kind":"Input","out":[4],"dtype":0}}]}`, Limits{}, ReasonDuplicateID, 400},
	{"dangling input", `{"version":1,"nodes":[
		{"id":0,"op":{"kind":"ReLU","ins":[[4]],"out":[4],"dtype":0,"links":[[{"In":1,"Out":1}]]},"ins":[9]}]}`, Limits{}, ReasonDanglingInput, 400},
	{"unknown op kind", `{"version":1,"nodes":[{"id":0,"op":{"kind":"Backdoor","out":[4],"dtype":0}}]}`, Limits{}, ReasonUnknownOp, 400},
	{"unknown dtype", `{"version":1,"nodes":[{"id":0,"op":{"kind":"Input","out":[4],"dtype":200}}]}`, Limits{}, ReasonDType, 400},
	{"negative dim", `{"version":1,"nodes":[{"id":0,"op":{"kind":"Input","out":[-8],"dtype":0}}]}`, Limits{}, ReasonBadShape, 400},
	{"overflowing shape", `{"version":1,"nodes":[
		{"id":0,"op":{"kind":"Input","out":[2147483647,2147483647,2147483647],"dtype":0}}]}`, Limits{}, ReasonBadShape, 400},
	{"absurd rank", `{"version":1,"nodes":[
		{"id":0,"op":{"kind":"Input","out":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1],"dtype":0}}]}`, Limits{}, ReasonBadShape, 400},
	{"node bomb", `{"version":1,"nodes":[
		{"id":0,"op":{"kind":"Input","out":[4],"dtype":0}},
		{"id":1,"op":{"kind":"Input","out":[4],"dtype":0}},
		{"id":2,"op":{"kind":"Input","out":[4],"dtype":0}}]}`, Limits{MaxNodes: 2}, ReasonTooLarge, 413},
	{"tensor over byte cap", `{"version":1,"nodes":[
		{"id":0,"op":{"kind":"Input","out":[1048576],"dtype":0}}]}`, Limits{MaxTensorBytes: 1024}, ReasonTooLarge, 413},
	{"document over byte cap", validDoc, Limits{MaxBytes: 16}, ReasonTooLarge, 413},
	{"link outside rank", `{"version":1,"nodes":[
		{"id":0,"op":{"kind":"Input","out":[4],"dtype":0}},
		{"id":1,"op":{"kind":"ReLU","ins":[[4]],"out":[4],"dtype":0,"links":[[{"In":7,"Out":1}]]},"ins":[0]}]}`, Limits{}, ReasonBadLink, 400},
	{"missing links", `{"version":1,"nodes":[
		{"id":0,"op":{"kind":"Input","out":[4],"dtype":0}},
		{"id":1,"op":{"kind":"ReLU","ins":[[4]],"out":[4],"dtype":0},"ins":[0]}]}`, Limits{}, ReasonBadLink, 400},
	{"arity mismatch", `{"version":1,"nodes":[
		{"id":0,"op":{"kind":"Input","out":[4],"dtype":0}},
		{"id":1,"op":{"kind":"ReLU","ins":[[4]],"out":[4],"dtype":0,"links":[[{"In":1,"Out":1}]]},"ins":[0,0]}]}`, Limits{}, ReasonInvariant, 400},
	{"shape disagreement", `{"version":1,"nodes":[
		{"id":0,"op":{"kind":"Input","out":[8],"dtype":0}},
		{"id":1,"op":{"kind":"ReLU","ins":[[4]],"out":[4],"dtype":0,"links":[[{"In":1,"Out":1}]]},"ins":[0]}]}`, Limits{}, ReasonInvariant, 400},
}

func TestDecodeRejectsHostileDocuments(t *testing.T) {
	for _, tc := range hostileDocs {
		t.Run(tc.name, func(t *testing.T) {
			ie := decodeReason(t, tc.doc, tc.lim)
			if ie.Reason != tc.reason {
				t.Errorf("reason %q, want %q (error: %v)", ie.Reason, tc.reason, ie)
			}
			if ie.HTTPStatus() != tc.status {
				t.Errorf("status %d, want %d", ie.HTTPStatus(), tc.status)
			}
		})
	}
}

// FuzzDecode fuzzes the trust boundary: Decode never panics, every
// rejection is a typed *Error with a Reason, and every accepted document
// is a valid graph that survives a Save→Decode round trip with its
// structure intact.
func FuzzDecode(f *testing.F) {
	for _, tc := range hostileDocs {
		f.Add(tc.doc)
	}
	for _, golden := range []string{"mlp-v1.json", "transformed-v1.json"} {
		data, err := os.ReadFile(filepath.Join("..", "graphio", "testdata", golden))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add(`{"magic":"magis-graph","version":1,"nodes":[
		{"id":0,"op":{"kind":"Input","out":[4,4],"dtype":0}},
		{"id":1,"op":{"kind":"ReLU","ins":[[4,4]],"out":[4,4],"dtype":0,"links":[[{"In":1,"Out":1},{"In":2,"Out":2}]]},"ins":[0]}],
		"schedule":[0,1]}`)
	f.Fuzz(func(t *testing.T, doc string) {
		g, order, err := Decode(strings.NewReader(doc), Limits{})
		if err != nil {
			if ie := AsError(err); ie == nil || ie.Reason == "" {
				t.Fatalf("rejection is not a typed ingest error with a reason: %v", err)
			}
			return
		}
		if err := graph.Validate(g); err != nil {
			t.Fatalf("accepted graph is invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := graphio.Save(&buf, g, order); err != nil {
			t.Fatalf("accepted graph failed to save: %v", err)
		}
		g2, order2, err := Decode(&buf, Limits{})
		if err != nil {
			t.Fatalf("round trip of accepted graph rejected: %v", err)
		}
		if g.Len() != g2.Len() || g.WLHash() != g2.WLHash() || len(order) != len(order2) {
			t.Fatal("round trip changed the graph")
		}
	})
}

// TestDecodeErrorsArePositional pins that node-level rejections carry
// the node's declared ID and file position.
func TestDecodeErrorsArePositional(t *testing.T) {
	doc := `{"version":1,"nodes":[
		{"id":0,"op":{"kind":"Input","out":[4],"dtype":0}},
		{"id":7,"op":{"kind":"Input","out":[4],"dtype":99}}]}`
	ie := decodeReason(t, doc, Limits{})
	if ie.Index != 1 || ie.ID != 7 {
		t.Errorf("position (id %d, index %d), want (7, 1)", ie.ID, ie.Index)
	}
	for _, want := range []string{"node 7", "file index 1", "[dtype]"} {
		if !strings.Contains(ie.Error(), want) {
			t.Errorf("error %q missing %q", ie, want)
		}
	}
}

// TestErrorsUnwrap pins errors.As compatibility through wrapping.
func TestErrorsUnwrap(t *testing.T) {
	_, _, err := Decode(strings.NewReader("junk"), Limits{})
	wrapped := errors.Join(errors.New("context"), err)
	if AsError(wrapped) == nil {
		t.Error("typed rejection lost through wrapping")
	}
}

// fanOutGraph builds one producer feeding n consumers.
func fanOutGraph(n int) *graph.Graph {
	g := graph.New()
	x := g.Add(ops.NewInput(tensor.S(4, 4), tensor.F32))
	for i := 0; i < n; i++ {
		g.Add(ops.NewReLU(tensor.S(4, 4), tensor.F32), x)
	}
	return g
}

// chainGraph builds a producer chain of depth n.
func chainGraph(n int) *graph.Graph {
	g := graph.New()
	v := g.Add(ops.NewInput(tensor.S(4, 4), tensor.F32))
	for i := 1; i < n; i++ {
		v = g.Add(ops.NewReLU(tensor.S(4, 4), tensor.F32), v)
	}
	return g
}

func TestPreflightRejectsSearchBombs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		lim  Limits
	}{
		{"fan-out bomb", fanOutGraph(64), Limits{MaxFanOut: 16}},
		{"depth bomb", chainGraph(64), Limits{MaxDepth: 16}},
		{"expansion-cost bomb", chainGraph(256), Limits{MaxExpansionCost: time.Nanosecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Preflight(tc.g, opt.Options{Workers: 1}, tc.lim)
			ie := AsError(err)
			if ie == nil {
				t.Fatalf("bomb accepted (err=%v)", err)
			}
			if ie.Reason != ReasonSearchBomb {
				t.Errorf("reason %q, want %q", ie.Reason, ReasonSearchBomb)
			}
			if ie.HTTPStatus() != 422 {
				t.Errorf("status %d, want 422", ie.HTTPStatus())
			}
		})
	}
}

func TestPreflightAcceptsRealWorkloads(t *testing.T) {
	for _, w := range models.SmallSuite() {
		if err := Preflight(w.G, opt.Options{}, Limits{}); err != nil {
			t.Errorf("%s rejected by preflight: %v", w.Name, err)
		}
	}
}

// TestDefaultLimitsAdmitFullScaleWorkloads guards the serving defaults
// against over-tightening: every built-in workload at full scale must
// pass Decode and Preflight under DefaultLimits.
func TestDefaultLimitsAdmitFullScaleWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale workload construction is slow")
	}
	for _, name := range models.Names() {
		w, err := models.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := graphio.Save(&buf, w.G, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, _, err := Decode(&buf, Limits{})
		if err != nil {
			t.Errorf("%s rejected by default limits: %v", name, err)
			continue
		}
		if err := Preflight(g, opt.Options{}, Limits{}); err != nil {
			t.Errorf("%s rejected by preflight: %v", name, err)
		}
	}
}
