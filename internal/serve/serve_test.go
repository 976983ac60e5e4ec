package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"magis/internal/cost"
	"magis/internal/models"
	"magis/internal/opt"
)

func testModel() *cost.Model { return cost.NewModel(cost.RTX3090()) }

// tinyResult is a well-formed search result for fake searchFns.
func tinyResult(stopped opt.StopReason) *opt.Result {
	w := models.MLP(8, 4, 8, 4, 1)
	base := opt.Baseline(w.G, testModel())
	return &opt.Result{Best: base, Baseline: base, Stopped: stopped}
}

func drainServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// post submits a body to /optimize and returns status code + decoded JSON.
func post(t *testing.T, ts *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, m
}

func get(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, m
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionControl pins the overload contract: with the worker busy and
// the queue full, /optimize rejects with 429 + Retry-After without starting
// any work, /healthz reports the load picture, and a draining server
// rejects with 503.
func TestAdmissionControl(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	s := New(Config{Model: testModel(), QueueDepth: 2, Workers: 1, StallWindow: -1})
	s.runSearch = func(ctx context.Context, j *job) (*opt.Result, error) {
		started <- j.id
		select {
		case <-release:
		case <-ctx.Done():
		}
		return tinyResult(opt.StopConverged), nil
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One job occupies the worker, two fill the queue.
	for i := 0; i < 3; i++ {
		if code, body := post(t, ts, `{"model":"mlp"}`); code != http.StatusAccepted {
			t.Fatalf("job %d: status %d (%v), want 202", i, code, body)
		}
	}
	<-started
	waitFor(t, "queue to fill", func() bool { return s.queue.Len() == 2 })

	// The next request is shed before any work starts.
	resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(`{"model":"mlp"}`))
	if err != nil {
		t.Fatal(err)
	}
	var rejected map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&rejected)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d (%v), want 429", resp.StatusCode, rejected)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	select {
	case id := <-started:
		t.Fatalf("rejected request started work (%s)", id)
	default:
	}
	if code, _ := get(t, ts, "/jobs/job-4"); code != http.StatusNotFound {
		t.Errorf("rejected job registered: /jobs/job-4 = %d, want 404", code)
	}

	// /healthz reports queue depth and in-flight jobs.
	code, hz := get(t, ts, "/healthz")
	if code != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("/healthz = %d %v", code, hz)
	}
	if hz["queue_depth"].(float64) != 2 || hz["queue_capacity"].(float64) != 2 {
		t.Errorf("healthz queue %v/%v, want 2/2", hz["queue_depth"], hz["queue_capacity"])
	}
	if hz["in_flight"].(float64) != 1 {
		t.Errorf("healthz in_flight %v, want 1", hz["in_flight"])
	}

	if _, mets := get(t, ts, "/metrics"); mets["rejected_full"].(float64) != 1 {
		t.Errorf("metrics rejected_full %v, want 1", mets["rejected_full"])
	}

	// Bad requests are rejected with 400 before admission.
	for _, body := range []string{
		`{"model":"nope"}`,
		`{"model":"mlp","scale":2}`,
		`{"model":"mlp","budget":"yesterday"}`,
		`not json`,
	} {
		if code, _ := post(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, code)
		}
	}

	close(release)
	drainServer(t, s)

	// Draining: admission closed with 503.
	if code, body := post(t, ts, `{"model":"mlp"}`); code != http.StatusServiceUnavailable {
		t.Errorf("draining: status %d (%v), want 503", code, body)
	}
	if code, hz := get(t, ts, "/healthz"); code != http.StatusServiceUnavailable || hz["status"] != "draining" {
		t.Errorf("draining healthz = %d %v", code, hz)
	}
}

// TestDrainCheckpointsAndRestartResumes is the crash-safety acceptance
// path end-to-end with a real search: drain cancels an in-flight job, the
// search's final checkpoint lands on disk, and a fresh server on the same
// directory re-admits the job and runs it to completion.
func TestDrainCheckpointsAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Model:            testModel(),
		QueueDepth:       4,
		Workers:          1,
		DefaultBudget:    30 * time.Second,
		CheckpointDir:    dir,
		CheckpointEveryN: 1,
		StallWindow:      -1,
	}
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())

	code, body := post(t, ts, `{"model":"mlp","scale":0.05,"budget":"30s","iterations":25,"workers":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := body["id"].(string)

	// Let the search make checkpointed progress, then pull the plug.
	waitFor(t, "search progress", func() bool {
		_, v := get(t, ts, "/jobs/"+id)
		return v["expansions"].(float64) >= 3
	})
	drainServer(t, s)
	ts.Close()

	ckpt := filepath.Join(dir, id+".ckpt")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("drained job left no checkpoint: %v", err)
	}
	_, v := get0(t, s, "/jobs/"+id)
	if v["state"] != stateCancelled || v["resumable"] != true {
		t.Fatalf("drained job view %v, want cancelled+resumable", v)
	}

	// Restart on the same directory: the job comes back and finishes.
	s2 := New(cfg)
	if n := s2.Start(); n != 1 {
		t.Fatalf("recovered %d jobs, want 1", n)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	waitFor(t, "resumed job to finish", func() bool {
		_, v := get(t, ts2, "/jobs/"+id)
		if v["state"] == stateFailed || v["state"] == stateCancelled {
			t.Fatalf("resumed job settled badly: %v", v)
		}
		return v["state"] == stateDone
	})
	_, v = get(t, ts2, "/jobs/"+id)
	res := v["result"].(map[string]any)
	if res["iterations"].(float64) != 25 {
		t.Errorf("resumed job ran %v iterations total, want 25", res["iterations"])
	}
	if res["peak_mem_bytes"].(float64) <= 0 {
		t.Errorf("resumed job result %v", res)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("finished job's checkpoint not removed (err=%v)", err)
	}
	drainServer(t, s2)
}

// TestFailedJobLeavesNoCheckpoint: the search flushes a final snapshot on
// every exit, so a job that fails after its search ran must remove that
// file when it settles. Otherwise the next server on the same directory
// re-admits a job whose client already saw it fail.
func TestFailedJobLeavesNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Model:            testModel(),
		CheckpointDir:    dir,
		CheckpointEveryN: 1,
		StallWindow:      -1,
	}
	s := New(cfg)
	s.runSearch = func(ctx context.Context, j *job) (*opt.Result, error) {
		res, err := s.searchJob(ctx, j)
		if err == nil {
			err = errors.New("injected failure after the search")
		}
		return res, err
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := post(t, ts, `{"model":"mlp","scale":0.05,"budget":"30s","iterations":3,"workers":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := body["id"].(string)
	waitFor(t, "job to fail", func() bool {
		_, v := get(t, ts, "/jobs/"+id)
		return v["state"] == stateFailed
	})
	drainServer(t, s)

	if _, err := os.Stat(filepath.Join(dir, id+".ckpt")); !os.IsNotExist(err) {
		t.Errorf("failed job's checkpoint left on disk (err=%v)", err)
	}
	s2 := New(cfg)
	n := s2.Start()
	drainServer(t, s2)
	if n != 0 {
		t.Errorf("restart re-admitted %d settled job(s), want 0", n)
	}
}

// get0 hits a handler directly (for a server whose listener is closed).
func get0(t *testing.T, s *Server, path string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var m map[string]any
	if err := json.NewDecoder(rec.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return rec.Code, m
}

// TestWatchdogResumesStalledJob: a search that stops reporting expansion
// progress is cancelled by the watchdog and re-admitted once from its
// checkpoint; the second incarnation completes.
func TestWatchdogResumesStalledJob(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{
		Model:         testModel(),
		QueueDepth:    4,
		Workers:       1,
		CheckpointDir: dir,
		StallWindow:   50 * time.Millisecond,
		StallPoll:     10 * time.Millisecond,
	})
	var runs atomic.Int32
	var resumedWithPath atomic.Bool
	s.runSearch = func(ctx context.Context, j *job) (*opt.Result, error) {
		if runs.Add(1) == 1 {
			// First incarnation: leave a snapshot behind, then wedge
			// without ever reporting progress.
			if err := os.WriteFile(s.checkpointPath(j.id), []byte("snapshot"), 0o644); err != nil {
				return nil, err
			}
			<-ctx.Done()
			return tinyResult(opt.StopCancelled), nil
		}
		resumedWithPath.Store(j.resumeFrom() != "")
		return tinyResult(opt.StopConverged), nil
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := post(t, ts, `{"model":"mlp"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := body["id"].(string)

	waitFor(t, "stalled job to resume and finish", func() bool {
		_, v := get(t, ts, "/jobs/"+id)
		return v["state"] == stateDone
	})
	if got := runs.Load(); got != 2 {
		t.Fatalf("search ran %d times, want 2 (stall + resume)", got)
	}
	if !resumedWithPath.Load() {
		t.Error("second incarnation had no resume path")
	}
	_, v := get(t, ts, "/jobs/"+id)
	if v["resumes"].(float64) != 1 {
		t.Errorf("job view resumes %v, want 1", v["resumes"])
	}
	_, mets := get(t, ts, "/metrics")
	if mets["stalled"].(float64) != 1 || mets["resumed"].(float64) != 1 {
		t.Errorf("metrics stalled=%v resumed=%v, want 1/1", mets["stalled"], mets["resumed"])
	}
	drainServer(t, s)
}

// TestJobPanicIsolation: a panicking search fails its own job and nothing
// else — the server keeps serving.
func TestJobPanicIsolation(t *testing.T) {
	s := New(Config{Model: testModel(), QueueDepth: 4, Workers: 1, StallWindow: -1})
	var n atomic.Int32
	s.runSearch = func(ctx context.Context, j *job) (*opt.Result, error) {
		if n.Add(1) == 1 {
			panic(fmt.Sprintf("synthetic wedge in %s", j.id))
		}
		return tinyResult(opt.StopConverged), nil
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, first := post(t, ts, `{"model":"mlp"}`)
	_, second := post(t, ts, `{"model":"mlp"}`)
	waitFor(t, "both jobs to settle", func() bool {
		_, a := get(t, ts, "/jobs/"+first["id"].(string))
		_, b := get(t, ts, "/jobs/"+second["id"].(string))
		return a["state"] == stateFailed && b["state"] == stateDone
	})
	_, a := get(t, ts, "/jobs/"+first["id"].(string))
	if !strings.Contains(a["error"].(string), "panic") {
		t.Errorf("failed job error %q, want it to mention the panic", a["error"])
	}
	drainServer(t, s)
}
