package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer. Spans of one
// request share req; parent is the span that caused this one (0 for a
// root).
type span struct {
	id, parent, req uint64
	name            string // "<layer>.<call>", e.g. "soc.BuildNoC"
	start, end      time.Time
}

func (s *span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i > 0 {
		return s.name[:i]
	}
	return s.name
}

// tracer keeps the traced run's spans in memory until the run ends. A
// nil tracer records nothing, so untraced runs pay only a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  uint64
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; a zero parent makes it the root of request req.
func (t *tracer) begin(name string, parent, req uint64) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	s := &span{id: t.next, parent: parent, req: req, name: name}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.start = time.Now()
	return s
}

// end closes a span opened by begin.
func (t *tracer) end(s *span) {
	if s != nil {
		s.end = time.Now()
	}
}

// spanID returns the span's id for use as a parent (0 for a nil span).
func (s *span) spanID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// selfTime returns each layer's self time in ms: the duration of its
// spans minus the time their child spans cover. Children of one span
// never overlap in this benchmark (calls are sequential per request),
// so subtracting their durations is exact.
func (t *tracer) selfTime() map[string]float64 {
	childMS := map[uint64]float64{}
	for _, s := range t.spans {
		if s.parent != 0 && !s.end.IsZero() {
			childMS[s.parent] += ms(s.end.Sub(s.start))
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		if !s.end.IsZero() {
			self[s.layer()] += ms(s.end.Sub(s.start)) - childMS[s.id]
		}
	}
	return self
}

// write saves the spans as a Chrome trace_event file (one track per
// request; open in Perfetto) and returns its path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end.IsZero() {
			continue
		}
		evs = append(evs, event{
			Name: s.name, Cat: s.layer(), Ph: "X", PID: 1, TID: s.req,
			TS:   float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "req": s.req},
		})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("nocperf-spans-%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, b, 0o644)
}

// finishTrace writes the span file and prints each layer's self time.
func (r *report) finishTrace(t *tracer, opt options) error {
	path, err := t.write(opt.outDir, r.workload, opt.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.linef("spans: %d -> %s", len(t.spans), path)
	self := t.selfTime()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		r.linef("span self time  %-10s %10.3f ms", l, self[l])
	}
	return nil
}
