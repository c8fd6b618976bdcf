// Package metrics is a dependency-free instrumentation registry rendering
// the Prometheus text exposition format (version 0.0.4): counters, gauges,
// and fixed-bucket histograms, with optional label pairs.
//
// The serving daemon (internal/server) is the primary consumer: its request
// handlers and event loop record admissions, latencies, social cost, and
// per-cloudlet congestion here, and /metrics renders the registry. The
// histogram buckets are stats.Histogram underneath, so the same structure
// that powers the load generator's latency report backs the daemon's
// exported histograms.
//
// All instruments are safe for concurrent use. Rendering order is the
// registration order (families) and then label order (instruments within a
// family), so scrapes are deterministic.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mecache/internal/stats"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative or NaN deltas are ignored
// (counters are monotone by contract).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		cur := math.Float64frombits(old)
		if c.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by v.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram instrument.
type Histogram struct {
	mu sync.Mutex
	h  *stats.Histogram
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// Snapshot returns a merged copy of the underlying histogram, usable for
// quantile reports without holding the instrument lock.
func (h *Histogram) Snapshot() *stats.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, err := stats.NewHistogram(h.h.Bounds())
	if err != nil {
		panic("metrics: invalid bounds in live histogram: " + err.Error())
	}
	if err := c.Merge(h.h); err != nil {
		panic("metrics: self-merge failed: " + err.Error())
	}
	return c
}

// instrument is one (labels, value) series within a family.
type instrument struct {
	labels string // rendered label block, "" or `{k="v",...}`
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // scrape-time callback (GaugeFunc/CounterFunc)
}

// family is all series sharing a metric name.
type family struct {
	name string
	help string
	typ  string
	inst []*instrument
}

// Registry holds instruments and renders them in the Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// validName enforces the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// Escapers for the text format: label values escape backslash, line feed
// and double quote; HELP docstrings only backslash and line feed. Built
// once, since label rendering runs on every registry lookup.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// renderLabels turns ("k1", "v1", "k2", "v2") pairs into a canonical label
// block. Pairs are sorted by key so the same label set always maps to the
// same series. Panics on malformed input — label sets are compile-time
// constants in this codebase, so misuse is a programming error.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("metrics: odd label key/value list")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if !validName(kv[i]) || strings.Contains(kv[i], ":") {
			panic(fmt.Sprintf("metrics: invalid label name %q", kv[i]))
		}
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].k < pairs[b].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		v := labelEscaper.Replace(p.v)
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// lookup finds or creates the (family, instrument) slot for name+labels.
func (r *Registry) lookup(name, help, typ string, labelKV []string) *instrument {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	labels := renderLabels(labelKV)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.typ, typ))
	}
	for _, in := range f.inst {
		if in.labels == labels {
			return in
		}
	}
	in := &instrument{labels: labels}
	f.inst = append(f.inst, in)
	return in
}

// Counter registers (or returns the existing) counter for name and label
// pairs ("key", "value", ...).
func (r *Registry) Counter(name, help string, labelKV ...string) *Counter {
	in := r.lookup(name, help, "counter", labelKV)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in.c == nil {
		in.c = &Counter{}
	}
	return in.c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labelKV ...string) *Gauge {
	in := r.lookup(name, help, "gauge", labelKV)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in.g == nil {
		in.g = &Gauge{}
	}
	return in.g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time —
// for quantities the runtime already tracks (goroutine counts, heap sizes)
// where a stored instrument would only go stale. fn must be safe to call
// concurrently and must not block.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelKV ...string) {
	r.registerFunc(name, help, "gauge", fn, labelKV)
}

// CounterFunc is GaugeFunc for monotone sources (e.g. cumulative GC pause
// time). fn must be non-decreasing over the process lifetime.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelKV ...string) {
	r.registerFunc(name, help, "counter", fn, labelKV)
}

func (r *Registry) registerFunc(name, help, typ string, fn func() float64, labelKV []string) {
	if fn == nil {
		panic("metrics: nil func for " + name)
	}
	in := r.lookup(name, help, typ, labelKV)
	r.mu.Lock()
	defer r.mu.Unlock()
	in.fn = fn
}

// Histogram registers (or returns the existing) histogram over the given
// upper bucket bounds. Panics on invalid bounds (a programming error).
func (r *Registry) Histogram(name, help string, bounds []float64, labelKV ...string) *Histogram {
	in := r.lookup(name, help, "histogram", labelKV)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in.h == nil {
		h, err := stats.NewHistogram(bounds)
		if err != nil {
			panic("metrics: " + err.Error())
		}
		in.h = &Histogram{h: h}
	}
	return in.h
}

// fmtFloat renders a sample value the way Prometheus expects.
func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// labelsWithLE appends an le label to an existing label block.
func labelsWithLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// WritePrometheus renders every registered instrument in the text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.help != "" {
			// The format is line-oriented: HELP docstrings must escape
			// backslashes and line feeds or they corrupt the exposition.
			help := helpEscaper.Replace(f.help)
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, in := range f.inst {
			var err error
			switch {
			case in.fn != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, in.labels, fmtFloat(in.fn()))
			case in.c != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, in.labels, fmtFloat(in.c.Value()))
			case in.g != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, in.labels, fmtFloat(in.g.Value()))
			case in.h != nil:
				err = writeHistogram(w, f.name, in)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, in *instrument) error {
	h := in.h.Snapshot()
	bounds := h.Bounds()
	cum := h.Cumulative()
	for i, b := range bounds {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelsWithLE(in.labels, fmtFloat(b)), cum[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelsWithLE(in.labels, "+Inf"), cum[len(cum)-1]); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, in.labels, fmtFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, in.labels, h.Count())
	return err
}
