// Command bench is this repository's benchmark: six workloads driven
// through the public sqlledger facade, four gated end-to-end metrics from an
// untraced run and a per-layer table from a traced one. README.md in this
// directory is the manual; BENCHMARK.json at the repository root is the
// contract the driver reads.
//
//	go run -C bench .                          all six workloads, untraced; writes bench/out/BENCH.json
//	go run -C bench . -trace 1                 the same, plus a traced pass and bench/out/trace-<workload>.json
//	go run -C bench . -repeat 5                five passes, with the run-to-run spread of every metric
//	go run -C bench . -compare A.json B.json   one row per (end-to-end metric, workload)
//	bash bench/run.sh --workload tpcc --seed 1 --seconds 12 --trace 0    one run, the driver's way
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// workloads are the benchmark's six; the names are final.
var workloads = []workload{tpccWorkload, tpceWorkload, ingestWorkload, snapreadWorkload, verifyWorkload, recoverWorkload}

// defaultSeconds is BENCHMARK.json's run_seconds: what the driver passes
// as --seconds, and the size every count in this directory was chosen at.
const defaultSeconds = 12

func main() {
	var (
		cfg     config
		name    string
		trace   int
		repeat  int
		compare bool
	)
	flag.StringVar(&name, "workload", "", "run one workload (tpcc, tpce, ingest, snapread, verify, recover); empty runs all six")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "size of each measured phase: operation counts are fixed at what takes this long on the reference host")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiply every operation count and data size (the tests use 0.01)")
	flag.IntVar(&trace, "trace", 0, "1: traced run, reports the per-layer metrics; 0: untraced run, reports the end-to-end metrics")
	flag.IntVar(&repeat, "repeat", 1, "with no -workload: run this many back-to-back passes and record each metric's spread")
	flag.BoolVar(&compare, "compare", false, "compare two BENCH.json files given as arguments")
	flag.StringVar(&cfg.outDir, "out", "", "directory for BENCH.json and trace files (default bench/out)")
	flag.StringVar(&cfg.workDir, "dir", "", "scratch directory for databases (default <out>/work)")
	flag.BoolVar(&cfg.tamper, "tamper", false, "test only: corrupt one stored row before verify's first operation; the run must then fail")
	flag.Parse()
	cfg.traced = trace != 0
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(benchDir(), "out")
	}
	if cfg.workDir == "" {
		cfg.workDir = filepath.Join(cfg.outDir, "work")
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 || repeat < 1 {
		fatal(fmt.Errorf("-seconds, -scale and -repeat must be positive"))
	}

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two BENCH.json files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case name != "":
		w, ok := workloadByName(name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		res, err := runWorkload(&cfg, w)
		if err != nil {
			fatal(err)
		}
		printResult(res)
		printDriverLine(res)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		ok, err := runAll(&cfg, repeat)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// benchDir locates the benchmark's directory from the working directory:
// the repository root (bash bench/run.sh) or bench/ itself (go run -C
// bench .).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench"
	}
	return "."
}

// printResult prints every metric of one run by name, with its unit.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-9s %-36s %16.6g %s\n", res.Workload, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%-9s work unit %q, input fingerprint %s, counts %v\n", res.Workload, res.WorkUnit, res.Fingerprint, res.Counts)
	fmt.Printf("%-9s %.6g %s/s; latency over %d operations: p50 %.4f ms", res.Workload, res.WorkPerS, res.WorkUnit, res.LatSamples, res.LatP50MS)
	if res.TailPercentile > 0 {
		fmt.Printf(", p%g %.4f ms", res.TailPercentile, res.TailMS)
	}
	fmt.Printf("; %d set-ups; %.1f s in all\n", len(res.SetupRunsS), res.ElapsedS)
	twins := make([]string, 0, len(res.RoundsMS))
	for twin := range res.RoundsMS {
		twins = append(twins, twin)
	}
	sort.Strings(twins)
	for _, twin := range twins {
		fmt.Printf("%-9s rounds of the %s twin, ms: %.1f\n", res.Workload, twin, res.RoundsMS[twin])
	}
	for _, v := range res.Violations {
		fmt.Printf("%-9s FAILED CHECK: %s\n", res.Workload, v)
	}
	for _, v := range res.OpErrors {
		fmt.Printf("%-9s FAILED OPERATION: %s\n", res.Workload, v)
	}
}

// printDriverLine prints the one JSON object the driver reads from the
// last line of standard output.
func printDriverLine(res *result) {
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
