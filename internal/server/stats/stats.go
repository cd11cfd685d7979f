// Package stats is the serving-side measurement layer: lock-free
// counters, gauges and histograms registered in a Registry that renders
// them in the Prometheus text exposition format. It records the service
// analogues of the paper's §6 throughput numbers — wme-changes/sec,
// firings/sec, match-latency distributions, queue depths — for the
// rule-engine daemon (cmd/psmd), whose /metrics endpoint is backed by
// this package.
//
// All mutation paths (Inc/Add/Set/Observe) are safe for concurrent use
// and allocation-free, so they can sit on the per-change hot path of
// every engine shard.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters never decrease).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float-valued metric
// (accumulated seconds, e.g. scheduler phase time). The value is kept
// as float64 bits updated by CAS, so Add is lock-free and safe for
// concurrent use.
type FloatCounter struct {
	name, help string
	bits       atomic.Uint64
}

// Add adds v (v must be >= 0; counters never decrease).
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an integer-valued metric that can go up and down (queue
// depths, live session counts).
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates float64 observations into cumulative buckets,
// Prometheus-style: counts[i] holds observations <= bounds[i], with one
// extra bucket for +Inf. The sum is kept as float64 bits updated by CAS.
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Int64
	count      atomic.Int64
	sumBits    atomic.Uint64
}

// DefBuckets spans 1µs .. 5s; suits request and match latencies in
// seconds.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5,
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Buckets are cumulative, so only the first bound >= v is bumped at
	// observe time; Render accumulates.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metric is anything the registry can render.
type metric interface {
	metricName() string
	render(w io.Writer)
}

func (c *Counter) metricName() string { return c.name }
func (c *Counter) render(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.name, c.Value())
}

func (c *FloatCounter) metricName() string { return c.name }
func (c *FloatCounter) render(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", c.name, fmtFloat(c.Value()))
}

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) render(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", g.name, g.Value())
}

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) render(w io.Writer) {
	base, labels := splitLabels(h.name)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", base, mergeLabel(labels, fmt.Sprintf("le=%q", fmtFloat(b))), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", base, mergeLabel(labels, `le="+Inf"`), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, fmtFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.count.Load())
}

// gaugeFunc is a gauge whose value is computed at render time (rates,
// uptime).
type gaugeFunc struct {
	name, help string
	fn         func() float64
}

func (g *gaugeFunc) metricName() string { return g.name }
func (g *gaugeFunc) render(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", g.name, fmtFloat(g.fn()))
}

// Registry holds a set of named metrics. Metric names may carry a
// Prometheus label suffix (`name{shard="3"}`); names must be unique
// including labels. Registration is synchronized; registered metrics
// are updated lock-free.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
	help    map[string]string // base name -> help
	types   map[string]string // base name -> exposition type
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]metric),
		help:    make(map[string]string),
		types:   make(map[string]string),
	}
}

// Counter registers and returns a counter. Registering a name twice
// panics: metric identity bugs should fail loudly at startup.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c, help, "counter")
	return c
}

// FloatCounter registers and returns a float-valued counter.
func (r *Registry) FloatCounter(name, help string) *FloatCounter {
	c := &FloatCounter{name: name, help: help}
	r.register(c, help, "counter")
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g, help, "gauge")
	return g
}

// GaugeFunc registers a gauge computed by fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&gaugeFunc{name: name, help: help, fn: fn}, help, "gauge")
}

// Histogram registers and returns a histogram with the given bucket
// upper bounds (nil means DefBuckets). Bounds must be sorted ascending.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("stats: histogram %s bounds not sorted", name))
	}
	h := &Histogram{name: name, help: help, bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	r.register(h, help, "histogram")
	return h
}

func (r *Registry) register(m metric, help, typ string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := m.metricName()
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("stats: duplicate metric %s", name))
	}
	r.metrics[name] = m
	base, _ := splitLabels(name)
	r.help[base] = help
	r.types[base] = typ
}

// WriteText renders every metric in the Prometheus text exposition
// format, sorted by name, with one HELP/TYPE header per metric family
// (labelled variants of one base name share a family).
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	metrics := make([]metric, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		metrics = append(metrics, r.metrics[n])
	}
	help, types := r.help, r.types
	r.mu.Unlock()

	lastBase := ""
	for _, m := range metrics {
		base, _ := splitLabels(m.metricName())
		if base != lastBase {
			if h := help[base]; h != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", base, h)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", base, types[base])
			lastBase = base
		}
		m.render(w)
	}
}

// splitLabels separates `name{labels}` into base name and the `{...}`
// suffix (empty when unlabelled).
func splitLabels(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// mergeLabel appends one `k="v"` pair to an existing `{...}` suffix.
func mergeLabel(labels, pair string) string {
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// fmtFloat renders a float the way Prometheus clients do: shortest
// round-trip form, with +Inf spelled explicitly.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}
