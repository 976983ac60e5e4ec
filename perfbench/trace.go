package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of
// one request (or one search) share Req; Parent links a span to the call
// that caused it (0 = none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Reps is how many calls the span covers (fast calls are repeated
	// inside one span so the clock resolves them); Allocs and Bytes are
	// the heap allocations made during the span, when measured.
	Reps   int    `json:"reps,omitempty"`
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 / float64(max(s.Reps, 1)) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; the returned func closes it.
func (t *tracer) begin(name string, parent, req int64) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.next++
	id = t.next
	t.mu.Unlock()
	start := time.Since(t.t0).Nanoseconds()
	return id, func() {
		s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: time.Since(t.t0).Nanoseconds()}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// measure runs fn reps times inside one span and records the heap
// allocations it made. It is for the single-goroutine replay pass, where
// nothing else allocates concurrently.
func (t *tracer) measure(name string, reps int, fn func()) span {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := time.Since(t.t0).Nanoseconds()
	for i := 0; i < reps; i++ {
		fn()
	}
	end := time.Since(t.t0).Nanoseconds()
	runtime.ReadMemStats(&after)
	s := span{ID: id, Name: name, Start: start, End: end, Reps: reps,
		Allocs: (after.Mallocs - before.Mallocs) / uint64(reps),
		Bytes:  (after.TotalAlloc - before.TotalAlloc) / uint64(reps)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
