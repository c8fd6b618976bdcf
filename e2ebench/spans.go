package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"mecache/internal/obs"
)

// traceIDs mints the run's trace identities: a pure function of the
// workload seed, a per-workload salt and the request index, as mecload
// mints them, so a rerun with the same seed reproduces them. It remembers
// every ID it handed out so the span scrape can keep exactly this run's
// spans: a daemon's ring may also hold spans of earlier runs, and a rerun
// with the same seed would collide on index alone.
type traceIDs struct {
	hi     uint64
	mu     sync.Mutex
	minted map[string]bool
}

func newTraceIDs(seed, salt uint64) *traceIDs {
	return &traceIDs{hi: seed ^ salt, minted: map[string]bool{}}
}

// mint returns the traceparent header for request index i.
func (t *traceIDs) mint(i uint64) (trace, header string) {
	trace = obs.MintTraceID(t.hi, i)
	t.mu.Lock()
	t.minted[trace] = true
	t.mu.Unlock()
	return trace, obs.FormatTraceparent(trace, i+1)
}

// keep returns the spans whose trace this run minted.
func (t *traceIDs) keep(spans []obs.Span) []obs.Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []obs.Span
	for _, sp := range spans {
		if t.minted[sp.Trace] {
			out = append(out, sp)
		}
	}
	return out
}

// spanPage is the envelope of GET /v1/debug/spans.
type spanPage struct {
	Enabled  bool       `json:"enabled"`
	Capacity int        `json:"capacity"`
	Recorded uint64     `json:"recorded"`
	Spans    []obs.Span `json:"spans"`
}

// decodeSpans parses a /v1/debug/spans?n=0 body and refuses a ring that
// wrapped: evicted spans would bias every per-stage figure.
func decodeSpans(body []byte) ([]obs.Span, error) {
	var page spanPage
	if err := json.Unmarshal(body, &page); err != nil {
		return nil, fmt.Errorf("decode spans: %w", err)
	}
	if !page.Enabled {
		return nil, fmt.Errorf("span tracing disabled on the daemon")
	}
	if page.Recorded > uint64(page.Capacity) {
		return nil, fmt.Errorf("span ring wrapped: %d spans recorded, capacity %d", page.Recorded, page.Capacity)
	}
	return page.Spans, nil
}

// traceTree indexes one trace's spans by parent.
type traceTree struct {
	children map[uint64][]obs.Span
	root     obs.Span
	hasRoot  bool
}

// groupTraces builds one tree per trace ID. The root is the trace's
// request span (the daemon's middleware opens it with no parent).
func groupTraces(spans []obs.Span) map[string]*traceTree {
	out := map[string]*traceTree{}
	for _, sp := range spans {
		t := out[sp.Trace]
		if t == nil {
			t = &traceTree{children: map[uint64][]obs.Span{}}
			out[sp.Trace] = t
		}
		if sp.Parent != 0 {
			t.children[sp.Parent] = append(t.children[sp.Parent], sp)
		}
		if sp.Stage == obs.StageRequest && sp.Parent == 0 {
			t.root, t.hasRoot = sp, true
		}
	}
	return out
}

// child returns the first direct child of parent with the given stage.
func (t *traceTree) child(parent uint64, stage string) (obs.Span, bool) {
	for _, c := range t.children[parent] {
		if c.Stage == stage {
			return c, true
		}
	}
	return obs.Span{}, false
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other (an epoch span and the
// solve span inside it are both children of apply) or stick out of the
// parent (clock steps), so the covered time is the length of the union of
// the child intervals clipped to the parent's.
func selfTime(parent obs.Span, children []obs.Span) float64 {
	pEnd := parent.Duration
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a := c.Start.Sub(parent.Start).Seconds()
		b := a + c.Duration
		if a < 0 {
			a = 0
		}
		if b > pEnd {
			b = pEnd
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.Duration - covered
}

// attrInt reads an integer span attribute.
func attrInt(sp obs.Span, key string) (int64, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key && a.Kind == obs.AttrInt {
			return a.Int, true
		}
	}
	return 0, false
}

// attrString reads a string span attribute.
func attrString(sp obs.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key && a.Kind == obs.AttrString {
			return a.Str
		}
	}
	return ""
}

// batchSizeMean estimates commands per View publish. Every traced command
// of one loop batch carries a copy of the batch's single publish span
// (same start, same duration), so traced commands divided by distinct
// publishes is the mean batch size over the traced blocks.
func batchSizeMean(spans []obs.Span) float64 {
	type key struct {
		start time.Time
		dur   float64
	}
	groups := map[key]bool{}
	n := 0
	for _, sp := range spans {
		if sp.Stage != obs.StagePublish {
			continue
		}
		n++
		groups[key{sp.Start, sp.Duration}] = true
	}
	if len(groups) == 0 {
		return 0
	}
	return float64(n) / float64(len(groups))
}
