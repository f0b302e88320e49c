// Package obs is the unified observability layer: a dependency-free
// metrics registry (atomic counters, gauges and fixed-bucket latency
// histograms) plus lightweight span tracing. Every hot layer of the
// system — WAL appends and fsyncs, the staged commit pipeline, block
// closing, digest generation, verification phases and blobstore I/O —
// records into one Registry, which can be read three ways: a typed
// Snapshot, a Prometheus text-format dump, and a live HTTP endpoint
// (/metrics and /debug/spans).
//
// The paper's headline claims are quantitative (ledger overhead per
// transaction, digest latency, verification throughput), so the hot-path
// cost of measuring them must be negligible: metric handles are resolved
// once at open time (no map lookups on the hot path), recording is a few
// atomic operations, and a disabled Registry reduces every recording to
// a single predictable branch — the ablation baseline for measuring the
// instrumentation overhead itself.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension, e.g. {stage, sequence}.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// DefBuckets are the default latency buckets in seconds: 1µs to 10s,
// roughly logarithmic. They bracket everything from a single atomic
// append (sub-µs) to a full verification run (seconds).
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are power-of-two count buckets (group sizes, batch sizes).
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing metric.
type Counter struct {
	name   string
	labels []Label
	v      atomic.Int64
	on     bool
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0 for the value to stay monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || !c.on {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	name   string
	labels []Label
	v      atomicFloat
	on     bool
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil || !g.on {
		return
	}
	g.v.Store(v)
}

// Add adds delta.
func (g *Gauge) Add(delta float64) {
	if g == nil || !g.on {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram. Observations are assigned to
// the first bucket whose upper bound is >= the value (Prometheus
// "le" semantics); an implicit +Inf bucket catches the rest.
type Histogram struct {
	name   string
	labels []Label
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Int64
	exem   []bucketExemplar // one per bucket, parallel to counts
	sum    atomicFloat
	on     bool
}

// bucketExemplar remembers the most recent traced observation that
// landed in its bucket — the link from a histogram bucket back to a
// full trace. Last write wins; each field is an independent atomic, so
// a concurrent reader can pair a value with a neighboring write's trace
// ID, which is acceptable for a debugging affordance.
type bucketExemplar struct {
	id    atomic.Uint64 // TraceID, 0 = none
	vbits atomic.Uint64 // float64 bits of the observed value
	tsns  atomic.Int64  // observation time, unix nanos
}

// Observe records one value. Every observation lands in exactly one
// (non-cumulative) bucket, so the total count is derived from the bucket
// counts at read time rather than maintained as a third atomic here.
func (h *Histogram) Observe(v float64) {
	if h == nil || !h.on {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil || !h.on {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// ObserveTraced records one value and stamps the bucket's exemplar with
// the observing trace's ID, so /metrics links the bucket to a concrete
// trace. A zero id degrades to a plain Observe.
func (h *Histogram) ObserveTraced(v float64, id TraceID) {
	if h == nil || !h.on {
		return
	}
	if id == 0 {
		h.Observe(v)
		return
	}
	h.observeTraced(v, id, time.Now())
}

func (h *Histogram) observeTraced(v float64, id TraceID, now time.Time) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	if id != 0 {
		e := &h.exem[i]
		e.id.Store(uint64(id))
		e.vbits.Store(math.Float64bits(v))
		e.tsns.Store(now.UnixNano())
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// LapTimer measures consecutive stages of a pipeline with one clock
// read per stage boundary. The zero value (or one built from a disabled
// registry) records nothing and never reads the clock.
type LapTimer struct {
	on   bool
	last time.Time
}

// Lap observes the time since the previous lap (or construction) into h
// and restarts the clock.
func (t *LapTimer) Lap(h *Histogram) {
	if !t.on {
		return
	}
	now := time.Now()
	h.Observe(now.Sub(t.last).Seconds())
	t.last = now
}

// Skip restarts the clock without observing — for optional stages.
func (t *LapTimer) Skip() {
	if t.on {
		t.last = time.Now()
	}
}

// LapSpan is Lap plus tracing: the stage duration is observed into h
// (stamping the bucket exemplar with the trace ID) and recorded as a
// top-level child span on tr, all from a single clock read. Returns the
// new span's ID so callers can attach children (tr nil → plain Lap).
func (t *LapTimer) LapSpan(h *Histogram, tr *Trace, name string) SpanID {
	if !t.on {
		return 0
	}
	now := time.Now()
	d := now.Sub(t.last)
	var id SpanID
	if tr != nil {
		h.observeTraced(d.Seconds(), tr.ID(), now)
		id = tr.Record(name, 0, t.last, d)
	} else {
		h.Observe(d.Seconds())
	}
	t.last = now
	return id
}

// Registry is a named collection of metrics, events and traces. The nil
// Registry and the Disabled() registry are both valid: every metric they
// produce is inert, so instrumented code never branches on registry
// presence.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	events   *EventLog
	traces   *TraceStore
	enabled  bool

	// runtime sampler state (see runtime.go)
	rtMu     sync.Mutex
	rtLastGC uint32
}

// NewRegistry returns an enabled, empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		events:   newEventLog(defaultEventRing, true),
		enabled:  true,
	}
	r.traces = newTraceStore(r, true)
	return r
}

// Disabled returns a registry whose metrics, traces and event log are
// inert. It is the metrics-off ablation baseline: recording costs one
// branch.
func Disabled() *Registry {
	r := NewRegistry()
	r.enabled = false
	r.events = newEventLog(0, false)
	r.traces = newTraceStore(r, false)
	return r
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil && r.enabled }

// Timer starts a LapTimer bound to this registry's enabled state.
func (r *Registry) Timer() LapTimer {
	if !r.Enabled() {
		return LapTimer{}
	}
	return LapTimer{on: true, last: time.Now()}
}

// Events returns the registry's structured event log (inert for
// nil/disabled registries).
func (r *Registry) Events() *EventLog {
	if r == nil {
		return nil
	}
	return r.events
}

// Traces returns the registry's transaction trace store (inert for
// nil/disabled registries).
func (r *Registry) Traces() *TraceStore {
	if r == nil {
		return nil
	}
	return r.traces
}

// NewTrace starts a root trace — one per transaction ("tx"), one per
// background operation (close_block, generate_digest, verify, audit_cycle,
// recovery, version_gc, the super-block operations), named by it — or
// returns nil when the registry is nil/disabled or tracing is turned off;
// a nil *Trace is safe everywhere downstream.
func (r *Registry) NewTrace(name string) *Trace {
	if r == nil {
		return nil
	}
	return r.traces.New(name)
}

// seriesKey identifies one (name, labels) series. Labels are sorted by
// key at registration so equivalent label sets collide.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func sortLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return labels
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Counter returns (creating if needed) the counter for (name, labels).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		return c
	}
	c := &Counter{name: name, labels: labels, on: r.enabled}
	r.counters[key] = c
	return c
}

// Gauge returns (creating if needed) the gauge for (name, labels).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[key]; ok {
		return g
	}
	g := &Gauge{name: name, labels: labels, on: r.enabled}
	r.gauges[key] = g
	return g
}

// Histogram returns (creating if needed) the histogram for (name,
// labels). buckets are ascending upper bounds in the observed unit; nil
// means DefBuckets. The first registration of a series fixes its
// buckets.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[key]; ok {
		return h
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not ascending", name))
		}
	}
	h := &Histogram{
		name:   name,
		labels: labels,
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Int64, len(buckets)+1),
		exem:   make([]bucketExemplar, len(buckets)+1),
		on:     r.enabled,
	}
	r.hists[key] = h
	return h
}

// --- Snapshot ----------------------------------------------------------

// CounterSnapshot is one counter series at a point in time.
type CounterSnapshot struct {
	Name   string
	Labels []Label
	Value  int64
}

// GaugeSnapshot is one gauge series at a point in time.
type GaugeSnapshot struct {
	Name   string
	Labels []Label
	Value  float64
}

// BucketSnapshot is one cumulative histogram bucket: the count of
// observations <= UpperBound.
type BucketSnapshot struct {
	UpperBound float64 // math.Inf(1) for the +Inf bucket
	Count      int64
	// Exemplar is the most recent traced observation that landed in this
	// bucket's (non-cumulative) range, nil if none.
	Exemplar *Exemplar
}

// Exemplar links a histogram bucket to one concrete trace.
type Exemplar struct {
	TraceID string    `json:"trace_id"`
	Value   float64   `json:"value"`
	Time    time.Time `json:"time"`
}

// HistogramSnapshot is one histogram series at a point in time, with
// precomputed latency quantiles.
type HistogramSnapshot struct {
	Name          string
	Labels        []Label
	Count         int64
	Sum           float64
	P50, P95, P99 float64
	Buckets       []BucketSnapshot // cumulative, ending at +Inf
}

// Quantile estimates the q-quantile (0 < q < 1) from the cumulative
// buckets by linear interpolation within the bucket holding the target
// rank — the same estimate Prometheus's histogram_quantile computes.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var prevCum int64
	prevBound := 0.0
	for _, b := range h.Buckets {
		if float64(b.Count) >= target {
			if math.IsInf(b.UpperBound, 1) {
				return prevBound // highest finite bound
			}
			in := b.Count - prevCum
			if in <= 0 {
				return b.UpperBound
			}
			frac := (target - float64(prevCum)) / float64(in)
			return prevBound + (b.UpperBound-prevBound)*frac
		}
		prevCum = b.Count
		if !math.IsInf(b.UpperBound, 1) {
			prevBound = b.UpperBound
		}
	}
	return prevBound
}

// Snapshot is a point-in-time copy of every metric in a registry, sorted
// by (name, labels) so output is deterministic.
type Snapshot struct {
	TakenAt    time.Time
	Counters   []CounterSnapshot
	Gauges     []GaugeSnapshot
	Histograms []HistogramSnapshot
}

// CounterValue sums the named counter across its label sets.
func (s Snapshot) CounterValue(name string) int64 {
	var v int64
	for _, c := range s.Counters {
		if c.Name == name {
			v += c.Value
		}
	}
	return v
}

// GaugeValue returns the named gauge (first label set) and whether it
// exists.
func (s Snapshot) GaugeValue(name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// HistogramCount sums observation counts of the named histogram across
// its label sets.
func (s Snapshot) HistogramCount(name string) int64 {
	var v int64
	for _, h := range s.Histograms {
		if h.Name == name {
			v += h.Count
		}
	}
	return v
}

// Histogram returns the named histogram series with exactly the given
// labels.
func (s Snapshot) Histogram(name string, labels ...Label) (HistogramSnapshot, bool) {
	labels = sortLabels(labels)
	want := seriesKey(name, labels)
	for _, h := range s.Histograms {
		if seriesKey(h.Name, h.Labels) == want {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}

// Snapshot captures every metric. Values across metrics are not read
// atomically with respect to each other (the registry stays hot while
// being read), but each individual value is a consistent atomic read.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{TakenAt: time.Now()}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	for _, c := range counters {
		snap.Counters = append(snap.Counters, CounterSnapshot{Name: c.name, Labels: c.labels, Value: c.v.Load()})
	}
	for _, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{Name: g.name, Labels: g.labels, Value: g.v.Load()})
	}
	for _, h := range hists {
		hs := HistogramSnapshot{Name: h.name, Labels: h.labels, Sum: h.sum.Load()}
		var cum int64
		for i := range h.counts {
			cum += h.counts[i].Load()
			bound := math.Inf(1)
			if i < len(h.bounds) {
				bound = h.bounds[i]
			}
			bs := BucketSnapshot{UpperBound: bound, Count: cum}
			if id := h.exem[i].id.Load(); id != 0 {
				bs.Exemplar = &Exemplar{
					TraceID: TraceID(id).String(),
					Value:   math.Float64frombits(h.exem[i].vbits.Load()),
					Time:    time.Unix(0, h.exem[i].tsns.Load()),
				}
			}
			hs.Buckets = append(hs.Buckets, bs)
		}
		hs.Count = cum
		hs.P50 = hs.Quantile(0.50)
		hs.P95 = hs.Quantile(0.95)
		hs.P99 = hs.Quantile(0.99)
		snap.Histograms = append(snap.Histograms, hs)
	}
	sort.Slice(snap.Counters, func(i, j int) bool {
		return seriesLess(snap.Counters[i].Name, snap.Counters[i].Labels, snap.Counters[j].Name, snap.Counters[j].Labels)
	})
	sort.Slice(snap.Gauges, func(i, j int) bool {
		return seriesLess(snap.Gauges[i].Name, snap.Gauges[i].Labels, snap.Gauges[j].Name, snap.Gauges[j].Labels)
	})
	sort.Slice(snap.Histograms, func(i, j int) bool {
		return seriesLess(snap.Histograms[i].Name, snap.Histograms[i].Labels, snap.Histograms[j].Name, snap.Histograms[j].Labels)
	})
	return snap
}

func seriesLess(an string, al []Label, bn string, bl []Label) bool {
	if an != bn {
		return an < bn
	}
	return seriesKey(an, al) < seriesKey(bn, bl)
}
