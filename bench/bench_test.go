package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeConfig is a run at one hundredth of the benchmark's size.
func smokeConfig(t *testing.T, traced bool) *config {
	dir := t.TempDir()
	return &config{seed: 1, seconds: defaultSeconds, scale: 0.01, traced: traced,
		workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out")}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted fails unless res carries exactly the metrics of defs.
func checkEmitted(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", res.Workload, d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", res.Workload, d.name, m.Unit, d.unit)
		}
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q is outside the contract's alphabet", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s is %v", res.Workload, d.name, m.Value)
		}
	}
}

// smokeFingerprints pins the inputs of seed 1 at the smoke scale: a
// change to a generator, a mix or a count shows here (and in
// baseline/BENCH_11.json at full scale) before it shows in a number.
var smokeFingerprints = map[string]string{
	"tpcc":     "ee37ba9016b24e49",
	"tpce":     "5fd5dd813e49db84",
	"ingest":   "0c67ff970b09b860",
	"snapread": "8f66fe063cf3c697",
	"verify":   "4df4071969c90832",
	"recover":  "90c382909fea19ff",
}

// TestWorkloadsSmoke runs all six workloads, untraced and traced, at
// smoke scale: every declared metric is emitted exactly once, nothing
// fails, every end-to-end metric is non-zero, and the spans account for
// the operations they belong to.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(smokeConfig(t, false), w)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, endToEnd)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("untraced run failed %d of %d: %v %v", res.Failed, res.Attempted, res.Violations, res.OpErrors)
			}
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, must be positive", d.name, res.Metrics[d.name].Value)
				}
			}
			if want := smokeFingerprints[w.name]; res.Fingerprint != want {
				t.Errorf("input fingerprint %s, pinned %s", res.Fingerprint, want)
			}

			cfg := smokeConfig(t, true)
			tr, err := runWorkload(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, tr, perLayer)
			if !tr.Correct || tr.Metrics["bench.fail_share"].Value != 0 {
				t.Errorf("traced run failed %d of %d: %v %v", tr.Failed, tr.Attempted, tr.Violations, tr.OpErrors)
			}
			if c := tr.Metrics["bench.span_coverage"].Value; c < 0.95 {
				t.Errorf("span coverage %.3f, want at least 0.95", c)
			}
			if tr.Fingerprint != res.Fingerprint {
				t.Errorf("traced run was fed %s, untraced %s: same seed, same inputs", tr.Fingerprint, res.Fingerprint)
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestInputDeterminism: the same seed gives the same inputs and another
// seed gives others. That the database sees only generated inputs - no
// random source shared with the system under test - is checked by every
// run: the ledger and regular twins execute at different speeds, under
// different interleavings of two clients, and must still report one
// fingerprint (runWorkload's "twins were fed different inputs").
func TestInputDeterminism(t *testing.T) {
	w, _ := workloadByName("tpcc")
	run := func(seed int64) string {
		cfg := smokeConfig(t, false)
		cfg.seed = seed
		res, err := runWorkload(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint
	}
	a, b, c := run(7), run(7), run(8)
	if a != b {
		t.Errorf("seed 7 gave fingerprints %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same fingerprint %s", a)
	}
	// The generator alone, with no database anywhere near it.
	g1, g2, g3 := newGen(7, "tpcc", 0), newGen(7, "tpcc", 0), newGen(7, "tpcc", 1)
	for i := 0; i < 1000; i++ {
		for _, g := range []*gen{g1, g2, g3} {
			g.uniform(1, 100)
			g.nonUniform(1023, 1, 30)
			g.filler(24)
			g.now()
		}
	}
	if g1.fp != g2.fp {
		t.Error("two generators with one seed and client diverged")
	}
	if g1.fp == g3.fp {
		t.Error("two clients of one seed drew the same stream")
	}
}

// TestTamperTurnsRunRed shows the output check is live: one stored row
// changed behind the ledger's back before verify's first operation, and
// the run must fail.
func TestTamperTurnsRunRed(t *testing.T) {
	w, _ := workloadByName("verify")
	cfg := smokeConfig(t, false)
	cfg.tamper = true
	res, err := runWorkload(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("tampered run passed: failed %d of %d", res.Failed, res.Attempted)
	}
	found := false
	for _, e := range append(res.OpErrors, res.Violations...) {
		found = found || strings.Contains(e, "TAMPER") || strings.Contains(e, "verification")
	}
	if !found {
		t.Errorf("failures do not mention verification: %v %v", res.OpErrors, res.Violations)
	}
}

// TestBenchmarkJSON: the contract file and the code declare the same
// workloads and metrics.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the counts were sized at %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths %v", bj.Paths)
	}
	if strings.Join(bj.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command %v", bj.Command)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(bj.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, d := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, got, d)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

func TestPercentiles(t *testing.T) {
	odd := []float64{5, 1, 3}
	if m := median(odd); m != 3 {
		t.Errorf("median %v = %v", odd, m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of four = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %v", m)
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if p := percentileNS(sorted, 50); p != 500 {
		t.Errorf("p50 of 1..1000 = %d", p)
	}
	if p := percentileNS(sorted, 99); p != 990 {
		t.Errorf("p99 of 1..1000 = %d", p)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{12, 0, false}, {99, 0, false}, {100, 90, true}, {999, 90, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true}, {100000, 99.99, true}} {
		p, ok := highestPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	if supportsP99(999) || !supportsP99(1000) {
		t.Error("p99 must be refused below 1000 samples and allowed from 1000")
	}
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if s := quartileSpread(ten); math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("quartile spread of 1..10 = %v", s)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) is [1.5, 4.0, 12.0].
	if s := quartileSpread([]float64{1, 2, 4, 8, 16}); math.Abs(s-(12-1.5)/4) > 1e-12 {
		t.Errorf("quartile spread of powers of two = %v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1, kind: kindOp},     // 0: root
		{start: 10, end: 30, parent: 0, kind: kindGet},     // 1
		{start: 20, end: 50, parent: 0, kind: kindUpdate},  // 2: overlaps 1
		{start: 90, end: 120, parent: 0, kind: kindCommit}, // 3: sticks out of the root
		{start: 12, end: 18, parent: 1, kind: kindScan},    // 4: grandchild, not the root's business
		{start: 200, end: 260, parent: -1, kind: kindOp},   // 5: childless root
	}
	want := []int64{
		100 - (40 + 10), // children cover [10,50) and [90,100)
		20 - 6,
		30,
		30,
		6,
		60,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
	// Through the recorder, the children tile the root: no self time is
	// left unnamed.
	rec := newRecorder(time.Now(), 0, 16)
	rec.beginOp()
	t0 := rec.now()
	rec.child(kindGet, t0, true, true, 1)
	rec.endOp()
	tot := totalsOf([]*recorder{rec})
	if tot.ops != 1 || tot.rootNS != tot.childNS {
		t.Errorf("recorded children sum to %d ns, root is %d ns", tot.childNS, tot.rootNS)
	}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		better              string
		a, b, spread, bound float64
		want                string
	}{
		{"lower", 100, 105, 0.02, 0.10, verdictOK},
		{"lower", 100, 120, 0.02, 0.10, verdictRegressed},
		{"lower", 100, 80, 0.02, 0.10, verdictOK}, // better is never a regression
		{"higher", 100, 80, 0.02, 0.10, verdictRegressed},
		{"higher", 100, 130, 0.02, 0.10, verdictOK},
		{"lower", 100, 120, 0.15, 0.10, verdictUnresolved}, // noisier than the bound
	} {
		if _, v := judge(c.better, c.a, c.b, c.spread, c.bound); v != c.want {
			t.Errorf("judge(%s, %v -> %v, spread %v, bound %v) = %s, want %s", c.better, c.a, c.b, c.spread, c.bound, v, c.want)
		}
	}
}
