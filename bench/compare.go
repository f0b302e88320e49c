package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (end-to-end metric, workload) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// compareRow is one line of the comparison.
type compareRow struct {
	workload, metric string
	a, b             float64
	worse            float64 // how much worse B is than A, as a share of A; negative: better
	spread, bound    float64
	verdict          string
}

// judge compares B's median against A's for a metric where `better` is
// "lower" or "higher". The pair is unresolved when the run-to-run spread
// recorded in either file exceeds the bound: the difference, whatever it
// is, cannot be told from noise.
func judge(better string, a, b, spread, bound float64) (worse float64, verdict string) {
	if a != 0 {
		worse = (b - a) / a
		if better == "higher" {
			worse = -worse
		}
	}
	switch {
	case spread > bound:
		verdict = verdictUnresolved
	case worse > bound:
		verdict = verdictRegressed
	default:
		verdict = verdictOK
	}
	return worse, verdict
}

func readBenchFile(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// compareBench lines A up against B, one row per (end-to-end metric,
// workload). The bound and direction are this build's, so that an old
// file is judged by the current contract.
func compareBench(a, b *benchFile) ([]compareRow, error) {
	bw := make(map[string]*workloadReport)
	for _, wr := range b.Workloads {
		bw[wr.Workload] = wr
	}
	var rows []compareRow
	for _, wa := range a.Workloads {
		wb := bw[wa.Workload]
		if wb == nil {
			return nil, fmt.Errorf("workload %s is missing from the second file", wa.Workload)
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			if sa == nil || sb == nil {
				return nil, fmt.Errorf("%s/%s is missing from one of the files", wa.Workload, d.name)
			}
			spread := sa.Spread
			if sb.Spread > spread {
				spread = sb.Spread
			}
			row := compareRow{workload: wa.Workload, metric: d.name, a: sa.Median, b: sb.Median, spread: spread, bound: d.bound}
			row.worse, row.verdict = judge(d.better, sa.Median, sb.Median, spread, d.bound)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// compareFiles prints the comparison of two BENCH.json files and reports
// whether every pair came out ok.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readBenchFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readBenchFile(pathB)
	if err != nil {
		return false, err
	}
	rows, err := compareBench(a, b)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (%d passes)   B: %s (%d passes)\n", pathA, a.Passes, pathB, b.Passes)
	fmt.Fprintf(w, "%-9s %-13s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "B worse", "spread", "bound", "verdict")
	allOK := true
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-13s %14.6g %14.6g %+8.1f%% %7.1f%% %6.0f%%  %s\n",
			r.workload, r.metric, r.a, r.b, 100*r.worse, 100*r.spread, 100*r.bound, r.verdict)
		allOK = allOK && r.verdict == verdictOK
	}
	for _, f := range []*benchFile{a, b} {
		for _, wr := range f.Workloads {
			if !wr.Correct {
				fmt.Fprintf(w, "%s: failed output checks or operations (%d of %d)\n", wr.Workload, wr.Failed, wr.Attempted)
				allOK = false
			}
		}
	}
	return allOK, nil
}
