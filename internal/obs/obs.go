// Package obs is the observability substrate of the repo's deployment
// story: a small, dependency-free metrics registry (atomic counters,
// gauges, fixed-bucket histograms and wall-clock timers) plus a
// hierarchical span tracer (span.go) with Chrome-trace and flight-recorder
// consumers. The training loop, the Cascade scheduler, the simulated device
// and the serving layer all publish into a Registry; the serving layer
// exposes it in Prometheus text format at GET /metrics, and the cmd
// binaries can dump it after a run.
//
// Design constraints, in order:
//
//   - Standard library only (ROADMAP rule: no external dependencies).
//   - Cheap on the hot path: counters and gauges are single atomics;
//     histograms take one short mutex for a binary search over fixed
//     bucket edges (reusing internal/stats' bucketing convention).
//   - Safe under concurrency: every type here may be hammered from the
//     serving handlers and read by /metrics at the same time (covered by
//     the package's -race tests).
//
// Metric names follow the Prometheus convention (snake_case,
// `_total` suffix for counters, base-unit `_seconds` histograms).
// Exposition is strict Prometheus text format: label values and HELP
// text are escaped, families are emitted in a stable sorted order, and
// the output round-trips through the parser in promtext_test.go.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cascade-ml/cascade/internal/stats"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can move in both directions (occupancy,
// Maxr, stable ratio).
type Gauge struct {
	bits atomic.Uint64
}

// Set assigns the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by v (CAS loop; used for float accumulators
// such as total simulated flops).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets delimited by ascending
// upper edges — it wraps internal/stats.Histogram (the bucketing the
// paper figures use) behind a mutex and additionally tracks the
// observation sum so Prometheus clients can derive means. The final +Inf
// bucket is implicit.
type Histogram struct {
	mu  sync.Mutex
	h   *stats.Histogram
	sum float64
}

func newHistogram(edges []float64) *Histogram {
	return &Histogram{h: stats.NewHistogram(edges...)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.h.Add(v)
	h.sum += v
	h.mu.Unlock()
}

// Time starts a wall-clock timer; the returned stop function observes the
// elapsed seconds. Usage: defer h.Time()().
func (h *Histogram) Time() func() {
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Total()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns a consistent copy for exposition.
func (h *Histogram) snapshot() (edges []float64, counts []int64, sum float64, total int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Edges, append([]int64(nil), h.h.Counts...), h.sum, h.h.Total()
}

// Registry is a named collection of metrics. The zero value is not usable;
// call NewRegistry. All methods are safe for concurrent use; getters
// create the metric on first access so instrumented code never nil-checks.
type Registry struct {
	mu        sync.RWMutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	lcounters map[string]map[string]*Counter // family → rendered labels → counter
	lgauges   map[string]map[string]*Gauge
	help      map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		lcounters: make(map[string]map[string]*Counter),
		lgauges:   make(map[string]map[string]*Gauge),
		help:      make(map[string]string),
	}
}

// Counter returns the named counter, creating it if needed. A nil registry
// returns a throwaway counter so instrumentation can be unconditional.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it if needed (nil-safe like
// Counter).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// edges if needed; later calls may omit the edges. Nil-safe like Counter.
func (r *Registry) Histogram(name string, edges ...float64) *Histogram {
	if r == nil {
		return newHistogram(edges)
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHistogram(edges)
	r.hists[name] = h
	return h
}

// CounterWith returns the counter for the given family name and label set,
// creating it if needed. Label values may contain any bytes — they are
// escaped at exposition time. Nil-safe like Counter.
func (r *Registry) CounterWith(name string, labels map[string]string) *Counter {
	if r == nil {
		return &Counter{}
	}
	key := renderLabels(labels)
	r.mu.RLock()
	c, ok := r.lcounters[name][key]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.lcounters[name]
	if fam == nil {
		fam = make(map[string]*Counter)
		r.lcounters[name] = fam
	}
	if c, ok = fam[key]; ok {
		return c
	}
	c = &Counter{}
	fam[key] = c
	return c
}

// GaugeWith returns the gauge for the given family name and label set
// (nil-safe like Gauge).
func (r *Registry) GaugeWith(name string, labels map[string]string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	key := renderLabels(labels)
	r.mu.RLock()
	g, ok := r.lgauges[name][key]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.lgauges[name]
	if fam == nil {
		fam = make(map[string]*Gauge)
		r.lgauges[name] = fam
	}
	if g, ok = fam[key]; ok {
		return g
	}
	g = &Gauge{}
	fam[key] = g
	return g
}

// Help sets the HELP text emitted for the named metric family. The text is
// escaped at exposition time, so newlines and backslashes are safe.
// Nil-safe no-op on a nil registry.
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
}

// Snapshot returns a flat point-in-time view of every scalar series:
// counters and gauges under their name (labeled series as name{labels}),
// histograms as name_count and name_sum. The flight recorder embeds this
// in every dump. Nil-safe: a nil registry returns nil.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]float64,
		len(r.counters)+len(r.gauges)+2*len(r.hists)+len(r.lcounters)+len(r.lgauges))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, fam := range r.lcounters {
		for labels, c := range fam {
			out[name+"{"+labels+"}"] = float64(c.Value())
		}
	}
	for name, fam := range r.lgauges {
		for labels, g := range fam {
			out[name+"{"+labels+"}"] = g.Value()
		}
	}
	for name, h := range r.hists {
		out[name+"_count"] = float64(h.Count())
		out[name+"_sum"] = h.Sum()
	}
	return out
}

// Standard bucket edge sets.
var (
	// LatencyEdges covers request/stage latencies from 100µs to 10s. The
	// 0.25 edge is the latency SLI's threshold: a request is fast when it
	// lands in the le="0.25" bucket (DESIGN.md §16), so keep that edge.
	LatencyEdges = []float64{1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2, 0.1, 0.25, 1, 2.5, 10}
	// SizeEdges covers batch/request sizes on a coarse log scale.
	SizeEdges = []float64{1, 10, 50, 100, 500, 1000, 5000, 10000, 50000}
	// RatioEdges covers [0, 1] quantities (occupancy, stable ratio).
	RatioEdges = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
)

// escapeLabelValue escapes a label value per the Prometheus text format:
// backslash, double-quote and newline must be written as \\, \" and \n.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline only (quotes are
// legal in HELP).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// formatFloat renders a float exactly as fmt's %v does (shortest
// round-trippable form), shared by the exposition writers.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderLabels produces the canonical `k1="v1",k2="v2"` form: keys sorted,
// values escaped. Identical label sets always render identically, which is
// what makes the rendered string usable as a series key.
func renderLabels(labels map[string]string) string {
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

// writeHeader emits the optional HELP line and the TYPE line for a family.
func (r *Registry) writeHeader(w io.Writer, name, typ string, help map[string]string) error {
	if h, ok := help[name]; ok && h != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(h)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (one family per metric; histograms expand to cumulative
// `_bucket{le=…}`, `_sum` and `_count` series). Output is deterministic:
// families sorted by name within each kind (counters, gauges, then
// histograms), labeled series sorted by their canonical label rendering,
// label values and HELP text escaped.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	lcounters := make(map[string]map[string]*Counter, len(r.lcounters))
	for k, fam := range r.lcounters {
		cp := make(map[string]*Counter, len(fam))
		for lk, v := range fam {
			cp[lk] = v
		}
		lcounters[k] = cp
	}
	lgauges := make(map[string]map[string]*Gauge, len(r.lgauges))
	for k, fam := range r.lgauges {
		cp := make(map[string]*Gauge, len(fam))
		for lk, v := range fam {
			cp[lk] = v
		}
		lgauges[k] = cp
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()

	// Counters: union of unlabeled and labeled families, one TYPE line each.
	for _, name := range unionKeys(counters, lcounters) {
		if err := r.writeHeader(w, name, "counter", help); err != nil {
			return err
		}
		if c, ok := counters[name]; ok {
			if _, err := fmt.Fprintf(w, "%s %d\n", name, c.Value()); err != nil {
				return err
			}
		}
		fam := lcounters[name]
		for _, lk := range sortedKeys(fam) {
			if _, err := fmt.Fprintf(w, "%s{%s} %d\n", name, lk, fam[lk].Value()); err != nil {
				return err
			}
		}
	}
	for _, name := range unionKeys(gauges, lgauges) {
		if err := r.writeHeader(w, name, "gauge", help); err != nil {
			return err
		}
		if g, ok := gauges[name]; ok {
			if _, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.Value())); err != nil {
				return err
			}
		}
		fam := lgauges[name]
		for _, lk := range sortedKeys(fam) {
			if _, err := fmt.Fprintf(w, "%s{%s} %s\n", name, lk, formatFloat(fam[lk].Value())); err != nil {
				return err
			}
		}
	}
	for _, name := range sortedKeys(hists) {
		edges, counts, sum, total := hists[name].snapshot()
		if err := r.writeHeader(w, name, "histogram", help); err != nil {
			return err
		}
		var cum int64
		for i, e := range edges {
			cum += counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, formatFloat(e), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			name, total, name, formatFloat(sum), name, total); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// unionKeys merges the key sets of an unlabeled and a labeled family map,
// sorted.
func unionKeys[A, B any](a map[string]A, b map[string]map[string]B) []string {
	seen := make(map[string]bool, len(a)+len(b))
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for k := range b {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
