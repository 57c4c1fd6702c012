package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"anyk/internal/obs"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call. Calls > 1 marks a loop of identical calls
// (the Next calls of one drain) recorded as one span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Calls  int     `json:"calls,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the timed (untraced) runs share the traced code path at the
// cost of a nil check per layer call.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(tm time.Time) float64 { return tm.Sub(t.t0).Seconds() }

// begin opens a span under parent (-1 for an op's root span).
func (t *tracer) begin(op, parent int, layer, name string) int {
	if t == nil {
		return -1
	}
	now := t.at(time.Now())
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Layer: layer, Name: name, Start: now, End: now, Calls: 1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.endCalls(id, 1) }

func (t *tracer) endCalls(id, calls int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.at(time.Now())
	t.spans[id].Calls = calls
}

// record adds an already-measured span.
func (t *tracer) record(op, parent int, layer, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Layer: layer, Name: name, Start: t.at(start), End: t.at(end), Calls: 1})
	return len(t.spans) - 1
}

// merge appends the spans of other, which shares t's time origin.
func (t *tracer) merge(other *tracer) {
	off := len(t.spans)
	for _, s := range other.spans {
		s.ID += off
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// engineLayer attributes a span the engine records on its own Options.Tracer
// to the layer doing the work: "compile" is the engine's route and
// stage-input step (plus, on cycles, the decomp calls it makes), the per-tree
// children of "build" are dpgraph.Build+BottomUp, and "merge" is the core
// enumerator and union construction.
func engineLayer(snap []obs.SpanSnapshot, i int) string {
	sp := snap[i]
	switch {
	case sp.Parent >= 0 && snap[sp.Parent].Name == "build":
		return "dpgraph"
	case sp.Name == "merge":
		return "core"
	}
	return "engine"
}

// importEngine copies the engine's own phase spans (compile, build and its
// per-tree children, merge) under parent; base is the wall time the engine's
// trace started. first-next is skipped: the benchmark times the first Next
// call itself.
func (t *tracer) importEngine(op, parent int, base time.Time, snap []obs.SpanSnapshot) {
	if t == nil {
		return
	}
	ids := make([]int, len(snap))
	for i, sp := range snap {
		ids[i] = -1
		if sp.Name == "first-next" || sp.DurationSeconds < 0 {
			continue
		}
		p := parent
		if sp.Parent >= 0 && ids[sp.Parent] >= 0 {
			p = ids[sp.Parent]
		}
		start := base.Add(time.Duration(sp.StartSeconds * 1e9))
		ids[i] = t.record(op, p, engineLayer(snap, i), "engine:"+sp.Name, start, start.Add(time.Duration(sp.DurationSeconds*1e9)))
	}
}

// selfTimes returns, per root name, the mean self time per root of every
// layer in the roots' span trees (seconds), the mean root duration, and the
// number of roots. A span's self time is its duration minus its children's.
func (t *tracer) selfTimes() map[string]*rootSummary {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	rootOf := make([]int, len(t.spans))
	out := map[string]*rootSummary{}
	for i, s := range t.spans {
		if s.Parent < 0 {
			rootOf[i] = i
			rs := out[s.Name]
			if rs == nil {
				rs = &rootSummary{self: map[string]float64{}}
				out[s.Name] = rs
			}
			rs.roots++
			rs.total += s.dur()
		} else {
			rootOf[i] = rootOf[s.Parent]
		}
		self := max(0, s.dur()-child[i])
		out[t.spans[rootOf[i]].Name].self[s.Layer] += self
	}
	for _, rs := range out {
		for l := range rs.self {
			rs.self[l] /= float64(rs.roots)
		}
		rs.total /= float64(rs.roots)
	}
	return out
}

type rootSummary struct {
	roots int
	total float64            // mean root duration, seconds
	self  map[string]float64 // mean self time per root, seconds, by layer
}

// coverage is the share of the mean root duration that layers other than the
// benchmark's own code account for.
func (rs *rootSummary) coverage() float64 {
	return 1 - rs.self["bench"]/rs.total
}

// report prints each root kind's per-layer self-time table into m's notes.
func (t *tracer) report(m *metrics) map[string]*rootSummary {
	sum := t.selfTimes()
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rs := sum[n]
		layers := make([]string, 0, len(rs.self))
		for l := range rs.self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		var b strings.Builder
		for _, l := range layers {
			fmt.Fprintf(&b, " %s=%.3fms", l, rs.self[l]*1e3)
		}
		m.note("self time per %s (%d traced, mean %.3f ms, layers cover %.1f%%):%s",
			n, rs.roots, rs.total*1e3, 100*rs.coverage(), b.String())
	}
	return sum
}

// write stores every span as JSON under path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
