package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"sqlledger"
)

// result is everything one run of one workload produced.
type result struct {
	Workload    string         `json:"workload"`
	Traced      bool           `json:"traced"`
	Correct     bool           `json:"correct"`
	Attempted   int64          `json:"attempted"`
	Failed      int64          `json:"failed"`
	Metrics     metricSet      `json:"metrics"`
	Fingerprint string         `json:"input_fingerprint"`
	WorkUnit    string         `json:"work_unit"`
	Counts      map[string]int `json:"counts"`
	// Violations are failed output checks; OpErrors samples the failed
	// operations. Failed counts both.
	Violations []string `json:"violations,omitempty"`
	OpErrors   []string `json:"op_errors,omitempty"`
	// WorkPerS is the ledger twin's throughput in work units per second
	// of measured wall clock; the Lat fields are the latency of its
	// operations over the measured rounds: the median, and the highest
	// percentile the sample count supports (TailPercentile is 0 when
	// that is only the median). Reported, not gated.
	WorkPerS       float64 `json:"work_per_s"`
	LatSamples     int     `json:"lat_samples"`
	LatP50MS       float64 `json:"lat_p50_ms"`
	TailPercentile float64 `json:"tail_percentile"`
	TailMS         float64 `json:"tail_ms"`
	// RoundsMS are the measured rounds' durations per twin.
	RoundsMS   map[string][]float64 `json:"rounds_ms"`
	SetupRunsS []float64            `json:"setup_runs_s,omitempty"`
	ElapsedS   float64              `json:"elapsed_s"`
}

// Set-up is repeated and its median reported, so that one slow directory
// creation or fsync does not decide setup_s: at least setupRepeats times,
// and on until setupBudget has been spent or setupRepeatsMax reached, so
// that a set-up of a few milliseconds is sampled often enough to have a
// median worth comparing.
const (
	setupRepeatsMax = 15
	setupBudget     = 1500 * time.Millisecond
)

// setUp builds the workload's starting state, repeatedly when untraced,
// and returns the last build.
func setUp(cfg *config, w workload, res *result) (*run, error) {
	var spent time.Duration
	for i := 0; ; i++ {
		dir, err := freshDir(cfg, fmt.Sprintf("%s-%d", w.name, i))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		r, err := w.setup(&env{cfg: cfg, dir: dir, traced: cfg.traced})
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d := time.Since(t0)
		spent += d
		res.SetupRunsS = append(res.SetupRunsS, d.Seconds())
		r.closers = append([]func(){func() { os.RemoveAll(dir) }}, r.closers...)
		n := i + 1
		if cfg.traced || n >= setupRepeatsMax || (n >= setupRepeats && spent >= setupBudget) {
			return r, nil
		}
		r.close()
	}
}

// runWorkload sets a workload up, measures it and checks its outputs.
func runWorkload(cfg *config, w workload) (*result, error) {
	began := time.Now()
	res := &result{Workload: w.name, Traced: cfg.traced}
	r, err := setUp(cfg, w, res)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res.WorkUnit, res.Counts = r.workUnit, r.counts
	runtime.GC() // set-up garbage is not the first round's to collect

	led, reg := r.ledger(), r.regular()
	live := led.st.db != nil // recover has no database open between operations
	var pc phaseCounts
	var dir0, user0 int64
	var dirErr error
	measurePhase(r, func() {
		if live {
			pc.led0 = led.st.db.Snapshot()
			dir0, dirErr = dirBytes(led.st.dir)
			for _, c := range led.clients {
				user0 += c.userBytes
			}
		}
		if reg.st.db != nil {
			pc.reg0 = reg.st.db.Snapshot()
		}
	})
	if dirErr != nil {
		return nil, dirErr
	}
	userBytes, dirAdded := r.buildUserBytes, r.buildDirBytes
	if live {
		pc.led1 = led.st.db.Snapshot()
		if userBytes == 0 {
			dir1, err := dirBytes(led.st.dir)
			if err != nil {
				return nil, err
			}
			dirAdded, userBytes = dir1-dir0, -user0
			for _, c := range led.clients {
				userBytes += c.userBytes
			}
		}
	}
	if reg.st.db != nil {
		pc.reg1 = reg.st.db.Snapshot()
	}

	// Output checks that need both twins open.
	res.RoundsMS = make(map[string][]float64)
	for _, v := range r.variants {
		ops, bad := v.attempted()
		res.Attempted += ops
		res.Failed += bad
		res.OpErrors = append(res.OpErrors, v.errs...)
		for _, rs := range v.measuredStats() {
			res.RoundsMS[v.name] = append(res.RoundsMS[v.name], float64(rs.wall)/1e6)
		}
	}
	res.Fingerprint = fingerprint(led.gens())
	if other := fingerprint(reg.gens()); other != res.Fingerprint {
		res.Violations = append(res.Violations, fmt.Sprintf("twins were fed different inputs: %s vs %s", res.Fingerprint, other))
	}
	if live && reg.st.db != nil {
		res.Violations = append(res.Violations, equalRowCounts(led.st, reg.st)...)
	}
	tax := timeRatio(led, reg)
	ratios := variantRatios(r)

	// The heap figure is the ledger database's alone: every other twin is
	// closed, and its rows dropped, first.
	for _, v := range r.variants[1:] {
		if err := v.st.close(); err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("close %s twin: %v", v.name, err))
		}
	}
	if r.beforeHeap != nil {
		if err := r.beforeHeap(); err != nil {
			res.Violations = append(res.Violations, err.Error())
		}
	}
	heap := liveHeapMB()

	// Output check on the ledger itself: it must verify.
	var layer metricSet
	if cfg.traced {
		layer = newMetricSet(perLayer)
	}
	if led.st.db != nil {
		res.Violations = append(res.Violations, checkLedger(led, layer)...)
	}

	lat := led.latencies()
	res.WorkPerS = led.workPerSecond()
	res.LatSamples, res.LatP50MS = len(lat), ms(percentileNS(lat, 50))
	if p, ok := highestPercentile(len(lat)); ok {
		res.TailPercentile, res.TailMS = p, ms(percentileNS(lat, p))
	}

	if !cfg.traced {
		m := newMetricSet(endToEnd)
		m.set("setup_s", median(res.SetupRunsS))
		m.set("ledger_tax", tax)
		if userBytes > 0 {
			m.set("write_amp", float64(dirAdded)/float64(userBytes))
		}
		m.set("live_heap_mb", heap)
		res.Metrics = m
	} else {
		if err := fillPerLayer(layer, cfg, w.name, r, lat, pc, ratios); err != nil {
			res.Violations = append(res.Violations, err.Error())
		}
		if err := writeTrace(cfg, w.name, r); err != nil {
			return nil, err
		}
		res.Metrics = layer
	}
	res.Failed += int64(len(res.Violations))
	res.Correct = res.Failed == 0
	if cfg.traced {
		res.Metrics.set("bench.fail_share", float64(res.Failed)/float64(res.Attempted))
	}
	res.ElapsedS = time.Since(began).Seconds()
	return res, nil
}

// phaseCounts are the twins' registries read at the boundaries of the
// measured rounds (zero where no database is open across the phase).
type phaseCounts struct{ led0, led1, reg0, reg1 sqlledger.MetricsSnapshot }

// extraRatios are the traced run's comparisons against its extra twins,
// taken while they still hold their round statistics: time per operation
// of the traced ledger twin over the untraced one, and of the untraced
// one over the one with metrics disabled. A missing twin yields 0.
type extraRatios struct{ traceOverUntraced, obsOverNoObs float64 }

func variantRatios(r *run) extraRatios {
	var out extraRatios
	var untraced, noobs *variant
	for _, v := range r.variants {
		switch v.name {
		case "ledger-untraced":
			untraced = v
		case "ledger-noobs":
			noobs = v
		}
	}
	if untraced != nil {
		out.traceOverUntraced = timeRatio(r.ledger(), untraced)
		if noobs != nil {
			out.obsOverNoObs = timeRatio(untraced, noobs)
		}
	}
	return out
}

// checkLedger is the output check every ledger-mode workload ends with:
// a fresh digest and a full verification against it must come back
// clean. On the traced run the two calls are recorded as root spans of
// their own and yield the digest and verification-phase metrics.
func checkLedger(led *variant, layer metricSet) []string {
	db := led.st.db
	var rec *recorder
	if len(led.clients) > 0 {
		rec = led.clients[0].rec
	}
	var s0, s1, s2 int64
	if rec != nil {
		s0 = rec.now()
	}
	d, err := db.GenerateDigest()
	if err != nil {
		return []string{fmt.Sprintf("final digest: %v", err)}
	}
	if rec != nil {
		s1 = rec.now()
	}
	rep, err := db.Verify([]sqlledger.Digest{d}, sqlledger.VerifyOptions{})
	if err != nil {
		return []string{fmt.Sprintf("final verify: %v", err)}
	}
	if rec != nil {
		s2 = rec.now()
		rec.spans = append(rec.spans,
			span{start: s0, end: s1, parent: -1, kind: kindDigest, core: true},
			span{start: s1, end: s2, parent: -1, kind: kindVerify, core: true})
		layer.set("core.digest_ms", float64(s1-s0)/1e6)
		setVerifyTiming(layer, rep.Timing)
	}
	var bad []string
	for _, is := range rep.Issues {
		if !is.Warning {
			bad = append(bad, "final verify: "+is.String())
		}
	}
	return bad
}

func setVerifyTiming(layer metricSet, t sqlledger.VerifyTiming) {
	layer.set("core.verify_chain_s", t.Chain.Seconds())
	layer.set("core.verify_row_versions_s", t.RowVersions.Seconds())
	layer.set("core.verify_indexes_s", t.Indexes.Seconds())
	layer.set("core.verify_views_s", t.Views.Seconds())
}
