package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"graphz/internal/obs"
)

// span is one timed region of a traced run. Start and End are offsets
// from the tracer's creation; Parent is the index of the enclosing span,
// or -1 at the top.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. The
// benchmark opens a span around each public call it makes into a layer;
// the engine's own per-stage spans are attached under the engine-run
// span that produced them. A nil *tracer records nothing, so untraced
// runs share the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0), End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// attachEngine adds the engine's (iteration, partition, stage) spans as
// children of parent, named "engine.<stage>".
func (t *tracer) attachEngine(parent int, events []obs.SpanEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ev := range events {
		start := time.Unix(0, ev.TS).Sub(t.t0)
		t.spans = append(t.spans, span{
			Name:   "engine." + ev.Stage,
			Parent: parent,
			Start:  start,
			End:    start + time.Duration(ev.DurNS),
		})
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover (overlapping
// children, such as the Sio prefetcher running beside the Worker, are
// counted once).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += s.End - s.Start - covered(s, children[i])
	}
	return out
}

// covered returns how much of s the union of kids' intervals covers.
func covered(s span, kids []span) time.Duration {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total time.Duration
	lo, hi := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b <= a {
			continue
		}
		if a > hi {
			total += hi - lo
			lo, hi = a, b
		} else if b > hi {
			hi = b
		}
	}
	return total + hi - lo
}

// printSelfTimes writes the self-time table, largest first.
func (t *tracer) printSelfTimes(w io.Writer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Fprintln(w, "span self time:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %10.4f s\n", n, self[n].Seconds())
	}
}

// writeFile writes every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
