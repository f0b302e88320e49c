package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// benchFile is bench/out/BENCH.json (and bench/baseline/BENCH_11.json):
// one full pass, or several, over all six workloads.
type benchFile struct {
	Host      hostInfo           `json:"host"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Scale     float64            `json:"scale"`
	Passes    int                `json:"passes"`
	Bounds    map[string]float64 `json:"bounds"`
	Workloads []*workloadReport  `json:"workloads"`
	// Claim is what gain this file is evidence for. The change that
	// defines the benchmark claims none.
	Claim *string `json:"claim"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Filesystem string `json:"work_dir_filesystem"`
	SyncMode   string `json:"sync_mode"`
	Clients    string `json:"clients"`
}

type workloadReport struct {
	Workload    string                  `json:"workload"`
	Why         string                  `json:"why"`
	WorkUnit    string                  `json:"work_unit"`
	Counts      map[string]int          `json:"counts"`
	Fingerprint string                  `json:"input_fingerprint"`
	Correct     bool                    `json:"correct"`
	Attempted   int64                   `json:"attempted"`
	Failed      int64                   `json:"failed"`
	EndToEnd    map[string]*metricStats `json:"end_to_end"`
	// Observed are the untraced runs' throughput and latency: what a
	// client sees, reported with their spread but not gated (README.md,
	// "Demoted metrics").
	Observed map[string]*metricStats `json:"observed"`
	// LatSamples is how many latencies one pass measured; TailPercentile
	// is the percentile lat_tail_ms quotes, the highest with ten samples
	// beyond it (0: only the median is supported).
	LatSamples     int       `json:"lat_samples"`
	TailPercentile float64   `json:"tail_percentile"`
	PerLayer       metricSet `json:"per_layer,omitempty"`
	Failures       []string  `json:"failures,omitempty"`
}

// metricStats is one end-to-end metric on one workload over the passes.
type metricStats struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Values []float64 `json:"values"`
	// Spread is the distance between the first and third quartile of
	// Values as a share of their median; 0 with fewer than two passes.
	Spread float64 `json:"spread"`
}

func hostOf(cfg *config) hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		SyncMode: "SyncBuffered (the facade default); recover builds its ledger image under SyncFull",
		Clients:  "closed loop, 2 client goroutines (1 for ingest, verify, recover), one process",
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		h.Kernel = b.String()
	}
	var fs syscall.Statfs_t
	if os.MkdirAll(cfg.workDir, 0o755) == nil && syscall.Statfs(cfg.workDir, &fs) == nil {
		h.Filesystem = fsName(int64(fs.Type))
	}
	return h
}

// fsName names the common filesystem magic numbers.
func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", magic)
}

// runAll runs every workload `passes` times untraced (and once traced,
// when asked), prints every metric, and writes BENCH.json.
func runAll(cfg *config, passes int) (bool, error) {
	bf := &benchFile{Host: hostOf(cfg), Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale,
		Passes: passes, Bounds: make(map[string]float64)}
	for _, d := range endToEnd {
		bf.Bounds[d.name] = d.bound
	}
	allOK := true
	reports := make(map[string]*workloadReport)
	for _, w := range workloads {
		wr := &workloadReport{Workload: w.name, Why: w.why, Correct: true,
			EndToEnd: make(map[string]*metricStats), Observed: make(map[string]*metricStats)}
		reports[w.name] = wr
		bf.Workloads = append(bf.Workloads, wr)
	}
	untraced := *cfg
	untraced.traced = false
	for pass := 0; pass < passes; pass++ {
		for _, w := range workloads {
			res, err := runWorkload(&untraced, w)
			if err != nil {
				return false, err
			}
			printResult(res)
			wr := reports[w.name]
			wr.absorb(res)
			for name, m := range res.Metrics {
				addValue(wr.EndToEnd, name, m.Unit, m.Value)
			}
			addValue(wr.Observed, "work_per_s", "1/s", res.WorkPerS)
			addValue(wr.Observed, "lat_p50_ms", "ms", res.LatP50MS)
			if res.TailPercentile > 0 {
				addValue(wr.Observed, "lat_tail_ms", "ms", res.TailMS)
			}
			wr.LatSamples, wr.TailPercentile = res.LatSamples, res.TailPercentile
		}
	}
	for _, wr := range bf.Workloads {
		for _, set := range []map[string]*metricStats{wr.EndToEnd, wr.Observed} {
			for _, st := range set {
				st.Median, st.Spread = median(st.Values), quartileSpread(st.Values)
			}
		}
	}
	if cfg.traced {
		traced := *cfg
		traced.traced = true
		for _, w := range workloads {
			res, err := runWorkload(&traced, w)
			if err != nil {
				return false, err
			}
			printResult(res)
			reports[w.name].absorb(res)
			reports[w.name].PerLayer = res.Metrics
		}
	}
	for _, wr := range bf.Workloads {
		allOK = allOK && wr.Correct
	}
	printSummary(bf)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return false, err
	}
	b, err := json.MarshalIndent(bf, "", " ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(cfg.outDir, "BENCH.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s\n", path)
	return allOK, nil
}

func addValue(set map[string]*metricStats, name, unit string, v float64) {
	st := set[name]
	if st == nil {
		st = &metricStats{Unit: unit}
		set[name] = st
	}
	st.Values = append(st.Values, v)
}

// printRow prints one metric's medians across the workloads ("-" where
// a workload does not report it) and, after several passes, its spreads.
func printRow(bf *benchFile, name, note string, of func(*workloadReport) *metricStats) {
	unit := ""
	fmt.Printf("%-14s", name)
	for _, wr := range bf.Workloads {
		if st := of(wr); st != nil {
			fmt.Printf(" %12.5g", st.Median)
			unit = st.Unit
		} else {
			fmt.Printf(" %12s", "-")
		}
	}
	fmt.Printf("  %s\n", unit)
	if bf.Passes < 2 {
		return
	}
	fmt.Printf("%-14s", "  spread")
	for _, wr := range bf.Workloads {
		if st := of(wr); st != nil {
			fmt.Printf(" %11.1f%%", 100*st.Spread)
		} else {
			fmt.Printf(" %12s", "-")
		}
	}
	fmt.Println(note)
}

// absorb folds one run's identity and verdict into the report.
func (wr *workloadReport) absorb(res *result) {
	wr.WorkUnit, wr.Counts, wr.Fingerprint = res.WorkUnit, res.Counts, res.Fingerprint
	wr.Correct = wr.Correct && res.Correct
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	wr.Failures = append(append(wr.Failures, res.Violations...), res.OpErrors...)
}

// printSummary prints the end-to-end table: one row per metric, one
// column per workload.
func printSummary(bf *benchFile) {
	fmt.Printf("\n%-14s", "end to end")
	for _, wr := range bf.Workloads {
		fmt.Printf(" %12s", wr.Workload)
	}
	fmt.Println()
	for _, d := range endToEnd {
		printRow(bf, d.name, fmt.Sprintf("  bound %.0f%%", 100*d.bound), func(wr *workloadReport) *metricStats { return wr.EndToEnd[d.name] })
	}
	fmt.Println("not gated")
	for _, name := range []string{"work_per_s", "lat_p50_ms", "lat_tail_ms"} {
		printRow(bf, name, "", func(wr *workloadReport) *metricStats { return wr.Observed[name] })
	}
	var bad []string
	for _, wr := range bf.Workloads {
		if !wr.Correct {
			bad = append(bad, wr.Workload)
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		fmt.Printf("FAILED output checks or operations on: %s\n", strings.Join(bad, ", "))
	}
}
