package obs

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// Observations must land in the first bucket whose upper bound is >= v
// (Prometheus le semantics: bounds are inclusive).
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})

	cases := []struct {
		v    float64
		want []int64 // cumulative counts for le=1,2,4,+Inf after this obs alone
	}{
		{0.5, []int64{1, 1, 1, 1}},
		{1, []int64{1, 1, 1, 1}}, // exactly on a bound -> inclusive
		{1.5, []int64{0, 1, 1, 1}},
		{2, []int64{0, 1, 1, 1}},
		{4, []int64{0, 0, 1, 1}},
		{4.0001, []int64{0, 0, 0, 1}}, // past the last bound -> +Inf only
		{100, []int64{0, 0, 0, 1}},
	}
	var cum []int64 = make([]int64, 4)
	for _, c := range cases {
		h.Observe(c.v)
		for i := range cum {
			cum[i] += c.want[i]
		}
		hs, ok := r.Snapshot().Histogram("h")
		if !ok {
			t.Fatal("histogram missing from snapshot")
		}
		for i, b := range hs.Buckets {
			if b.Count != cum[i] {
				t.Fatalf("after Observe(%v): bucket %d = %d, want %d", c.v, i, b.Count, cum[i])
			}
		}
	}
	hs, _ := r.Snapshot().Histogram("h")
	if hs.Count != int64(len(cases)) {
		t.Fatalf("Count = %d, want %d", hs.Count, len(cases))
	}
	if !math.IsInf(hs.Buckets[len(hs.Buckets)-1].UpperBound, 1) {
		t.Fatal("last bucket must be +Inf")
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{10, 20, 40})
	// 100 observations uniform in (0,10]: p50 should interpolate to ~5.
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	hs, _ := r.Snapshot().Histogram("q")
	if got := hs.Quantile(0.5); got != 5 {
		t.Fatalf("p50 = %v, want 5 (linear interpolation within [0,10])", got)
	}
	// Push 100 more into (20,40]; p99 lands in that bucket.
	for i := 0; i < 100; i++ {
		h.Observe(30)
	}
	hs, _ = r.Snapshot().Histogram("q")
	p99 := hs.Quantile(0.99)
	if p99 <= 20 || p99 > 40 {
		t.Fatalf("p99 = %v, want in (20,40]", p99)
	}
	if hs.P50 == 0 || hs.P95 == 0 || hs.P99 != p99 {
		t.Fatalf("precomputed quantiles not populated: %+v", hs)
	}
}

// Same-name+labels lookups must return the same series; label order must
// not matter.
func TestRegistrySeriesIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", L("x", "1"), L("y", "2"))
	b := r.Counter("c", L("y", "2"), L("x", "1"))
	if a != b {
		t.Fatal("label order created distinct series")
	}
	if r.Counter("c", L("x", "1")) == a {
		t.Fatal("different label sets collided")
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc")
	g := r.Gauge("gauge")
	h := r.Histogram("hist", []float64{0.5, 1})
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Fatalf("gauge = %v, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	if got := h.Sum(); math.Abs(got-0.25*workers*per) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", got, 0.25*workers*per)
	}
}

// Disabled registries and nil handles must be inert and crash-free.
func TestDisabledAndNil(t *testing.T) {
	d := Disabled()
	c := d.Counter("c")
	c.Inc()
	d.Gauge("g").Set(5)
	d.Histogram("h", nil).Observe(1)
	snap := d.Snapshot()
	if v := snap.CounterValue("c"); v != 0 {
		t.Fatalf("disabled counter recorded %d", v)
	}
	d.NewTrace("op").Finish(nil)
	if n := len(d.Traces().Recent(0)); n != 0 {
		t.Fatalf("disabled registry retained %d traces", n)
	}
	lt := d.Timer()
	lt.Lap(d.Histogram("h", nil)) // must not read the clock or panic

	var nilReg *Registry
	nilReg.Counter("x").Inc()
	nilReg.Gauge("x").Set(1)
	nilReg.Histogram("x", nil).Observe(1)
	nilReg.NewTrace("x").Finish(errors.New("e"))
	_ = nilReg.Snapshot()
	if nilReg.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
}

// Observations above the top finite bound must land only in the implicit
// +Inf bucket, and quantiles that fall there must cap at the highest
// finite bound rather than extrapolating to infinity.
func TestHistogramAboveTopBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("top", []float64{1, 2})
	for _, v := range []float64{0.5, 2, 5, 500} {
		h.Observe(v)
	}
	hs, ok := r.Snapshot().Histogram("top")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hs.Count != 4 {
		t.Fatalf("Count = %d, want 4", hs.Count)
	}
	if got := hs.Sum; got != 507.5 {
		t.Fatalf("Sum = %v, want 507.5", got)
	}
	// Cumulative: le=1 -> 1, le=2 -> 2, +Inf -> 4.
	wantCum := []int64{1, 2, 4}
	for i, b := range hs.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if got := hs.Quantile(0.99); got != 2 {
		t.Fatalf("p99 = %v, want 2 (capped at highest finite bound)", got)
	}
	if got := hs.Quantile(0.25); got != 1 {
		t.Fatalf("p25 = %v, want 1", got)
	}
}

func TestLapTimer(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("laps", nil)
	lt := r.Timer()
	time.Sleep(2 * time.Millisecond)
	lt.Lap(h)
	lt.Skip()
	lt.Lap(h)
	hs, _ := r.Snapshot().Histogram("laps")
	if hs.Count != 2 {
		t.Fatalf("lap count = %d, want 2", hs.Count)
	}
	if hs.Sum < 0.002 {
		t.Fatalf("lap sum = %v, want >= 2ms", hs.Sum)
	}
}
