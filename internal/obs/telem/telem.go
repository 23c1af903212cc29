// Package telem is the live-telemetry counterpart to internal/obs's
// one-shot JSON snapshots: a dependency-free, race-safe metrics registry —
// counters, gauges and fixed-bucket histograms, all with constant-label
// support — plus a Prometheus text-exposition (version 0.0.4) encoder
// (expo.go) that cmd/pimfarm serves as GET /metrics.
//
// Instruments are registered get-or-create: asking for the same
// (name, labels) pair twice returns the same instrument, so independent
// layers (farm scheduler, durable store, simulation telemetry, GPU pipeline)
// can publish into one shared registry without coordination. All methods
// are safe for concurrent use, and every instrument method is nil-safe —
// a nil *Counter/*Gauge/*Histogram is inert — so instrumented code never
// needs telemetry-enabled guards.
//
// Telemetry is observational only: instruments hold host-side counts and
// never feed back into the simulation, so simulated results are
// byte-identical with and without scraping.
package telem

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is a set of constant label name→value pairs fixed at
// registration time. Each distinct label set of a metric name is its own
// series.
type Labels map[string]string

// Kind is a metric family's type in the exposition format.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a point-in-time value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution with sum and count.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// DefBuckets is the default histogram bucket layout (upper bounds in
// seconds), covering sub-millisecond cache hits through multi-minute
// frame simulations.
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Nil-safe.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can be set, incremented and decremented.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d (negative to subtract). Nil-safe.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Inc adds one. Nil-safe.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one. Nil-safe.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: observations are counted into
// the first bucket whose upper bound is >= the value (an implicit +Inf
// bucket catches the rest), with a running sum and count.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // strictly increasing upper bounds (le), +Inf implicit
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  uint64
}

// Observe records v. NaN observations are dropped. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// snapshot copies the histogram state for exposition.
func (h *Histogram) snapshot() (counts []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts = make([]uint64, len(h.counts))
	copy(counts, h.counts)
	return counts, h.sum, h.count
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// series is one (name, labels) instrument.
type series struct {
	labels string // rendered, escaped, key-sorted signature: a="b",c="d"
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series of one metric name.
type family struct {
	name    string
	help    string
	kind    Kind
	buckets []float64
	series  map[string]*series
}

// Registry holds metric families and renders them in exposition format.
// The zero value is not usable; use NewRegistry or Default. A nil
// *Registry is valid and inert: registrations return nil instruments.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every layer publishes into
// unless handed an explicit one.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter for (name, labels), registering it on first
// use. Panics if name is invalid or already registered as another kind.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindCounter, nil, labels).c
}

// Gauge returns the gauge for (name, labels), registering it on first
// use. Panics if name is invalid or already registered as another kind.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindGauge, nil, labels).g
}

// Histogram returns the histogram for (name, labels), registering it on
// first use with the given bucket upper bounds (nil selects DefBuckets;
// bounds must be strictly increasing). The bucket layout is fixed at
// first registration; later calls for the same name reuse it.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telem: histogram %q buckets not strictly increasing", name))
		}
	}
	return r.lookup(name, help, KindHistogram, buckets, labels).h
}

// lookup is the get-or-create core shared by the three instrument kinds.
func (r *Registry) lookup(name, help string, kind Kind, buckets []float64, labels Labels) *series {
	if !validName(name) {
		panic(fmt.Sprintf("telem: invalid metric name %q", name))
	}
	for k := range labels {
		if !validName(k) || strings.HasPrefix(k, "__") {
			panic(fmt.Sprintf("telem: invalid label name %q on metric %q", k, name))
		}
	}
	sig := renderLabels(labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		if kind == KindHistogram {
			f.buckets = append([]float64(nil), buckets...)
		}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telem: metric %q already registered as %s, requested %s", name, f.kind, kind))
	}
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: sig}
		switch kind {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		case KindHistogram:
			s.h = &Histogram{
				bounds: f.buckets,
				counts: make([]uint64, len(f.buckets)+1),
			}
		}
		f.series[sig] = s
	}
	return s
}

// validName reports whether s is a legal metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels serializes a label set as the exposition signature:
// key-sorted, values escaped, `k1="v1",k2="v2"`.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue escapes backslash, double quote and newline per the
// exposition format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
