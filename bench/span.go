package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced interval at a layer boundary. Spans are recorded
// by the benchmark around its calls into each layer; tracing inside the
// simulator is a later change (ROADMAP item 5).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	// Run is shared by every span of one simulated run: "workload/seed".
	Run   string `json:"run,omitempty"`
	Start int64  `json:"start_ns"` // since the tracer's epoch
	End   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// records nothing, so the untraced and traced passes run the same code.
// It is used from the benchmark's main goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span ids
	run   string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setRun names the simulated run the following spans belong to.
func (t *tracer) setRun(id string) {
	if t != nil {
		t.run = id
	}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Run: t.run})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.epoch))
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: span " + t.spans[id].Name + " closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
}

// total sums the durations of every span called name.
func (t *tracer) total(name string) (ns int64, n int) {
	if t == nil {
		return 0, 0
	}
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.dur()
			n++
		}
	}
	return ns, n
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// traceFile is what -trace writes when the benchmark ends.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Spans    []span           `json:"spans"`
	SelfNS   map[string]int64 `json:"self_ns_by_name"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	self := selfTimes(t.spans)
	byName := map[string]int64{}
	for i, s := range t.spans {
		byName[s.Name] += self[i]
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans, SelfNS: byName})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
