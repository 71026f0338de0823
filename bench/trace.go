package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its calls into the engine and never inside the engine.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for the run span
	Name    string `json:"name"`
	Trial   int    `json:"trial"`
	Round   int    `json:"round"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  A nil tracer records
// nothing, so the untraced run pays one nil check per span.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<15)}
}

// begin opens a span under parent and returns its id (-1 when not tracing).
func (t *tracer) begin(parent int, name string, trial, round int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Trial: trial, Round: round,
		StartNS: int64(time.Since(t.origin)),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.origin))
}

// selfTimes returns, per span name, the summed duration minus the part the
// span's children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.EndNS - s.StartNS - child[s.ID])
	}
	return self
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
