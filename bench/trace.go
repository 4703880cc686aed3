package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of
// the call. Req ties the spans of one compile or one request together;
// Parent is the span that caused this one, 0 for none.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Req     string  `json:"req,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps the spans of a traced run in memory until it ends. A nil
// tracer records nothing, which is how untraced runs and the untraced
// half of a traced run pass through the same code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record adds a span for a call that ran from start to end and returns
// its id, to be passed as the parent of the spans it caused.
func (t *tracer) record(name, req string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		StartUS: float64(start.Sub(t.origin).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(t.origin).Nanoseconds()) / 1e3,
	})
	return id
}

// timed runs f and records it as a span.
func (t *tracer) timed(name, req string, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.record(name, req, parent, start, end)
	return end.Sub(start)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// accessLog is the daemon's structured access log captured in memory:
// the JSON handler a traced serve run installs as Config.Logger.
type accessLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (a *accessLog) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.buf.Write(p)
}

func (a *accessLog) logger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(a, nil))
}

// logLine is the part of one access-log line the benchmark reads.
type logLine struct {
	ID         string             `json:"id"`
	Cache      string             `json:"cache"`
	Status     int                `json:"status"`
	DurationMS float64            `json:"duration_ms"`
	Stages     map[string]float64 `json:"stages"`
}

// lines parses every captured request line.
func (a *accessLog) lines() ([]logLine, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []logLine
	sc := bufio.NewScanner(bytes.NewReader(a.buf.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var l logLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		out = append(out, l)
	}
	return out, sc.Err()
}
