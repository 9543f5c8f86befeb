package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the harness's own
// files around the layer's public functions. Spans of one job replay
// hang under one root span.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Job      string `json:"job"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the
// benchmark ends.
type tracer struct {
	epoch    time.Time
	spans    []span
	workload string
	job      string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(parent int, name, layer string) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Job: t.job, StartNs: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.epoch))
	return time.Duration(s.EndNs - s.StartNs)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children are
// counted once and a child is clipped to its parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// layerSelfMs sums self time by layer over the given spans, in ms.
func layerSelfMs(spans []span) map[string]float64 {
	out := map[string]float64{}
	self := selfTimes(spans)
	for _, s := range spans {
		out[s.Layer] += float64(self[s.ID]) / 1e6
	}
	return out
}
