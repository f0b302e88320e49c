package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Golden test for the Prometheus text exposition format. All observed
// values are integral so float formatting is exact and deterministic.
// Names written as string literals are series the library no longer
// emits; they stay so the golden file keeps exercising the same shapes.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("sqlledger_test_commits_total").Add(42)
	r.Counter("sqlledger_test_ops_total", L("op", "put")).Add(7)
	r.Counter("sqlledger_test_ops_total", L("op", "get")).Add(3)
	r.Gauge("sqlledger_test_queue_length").Set(5)
	h := r.Histogram("sqlledger_test_stage_seconds", []float64{1, 2, 4}, L("stage", "apply"))
	for _, v := range []float64{1, 1, 2, 3, 8} {
		h.Observe(v)
	}
	r.Histogram("sqlledger_test_empty_seconds", []float64{1})
	r.Gauge("sqlledger_test_escaped", L("path", `C:\data "hot"`)).Set(1)
	// Only the implicit +Inf bucket receives these observations.
	over := r.Histogram("sqlledger_test_over_seconds", []float64{1, 2})
	over.Observe(16)
	over.Observe(32)
	// The PR-4 operational names render like any other series.
	r.Gauge(HealthStatus).Set(1)
	r.Gauge(VerifyProgressRatio).Set(0.5)
	r.Counter("sqlledger_runtime_gc_total").Add(9)
	// The PR-5 ingest fast-path names.
	r.Counter(RowsHashedTotal).Add(3000)
	hb := r.Histogram(HashBatchSize, []float64{1, 16, 64, 256, 1024, 4096})
	hb.Observe(500)
	hb.Observe(1000)
	hb.Observe(1000)
	// The PR-6 MVCC read-path names.
	r.Counter(SnapshotReadsTotal).Add(1200)
	r.Gauge(VersionsLive).Set(84)
	r.Counter(VersionGCReclaimedTotal).Add(16)
	lag := r.Histogram("sqlledger_read_snapshot_lag_seconds", []float64{1, 2, 4})
	lag.Observe(1)
	lag.Observe(3)
	// The PR-8 always-on auditor names.
	r.Gauge(VerifiedThroughBlock).Set(41)
	r.Gauge(AuditLagSeconds).Set(2)
	r.Counter("sqlledger_audit_cycles_total").Add(12)
	r.Counter("sqlledger_audit_blocks_checked_total", L("mode", "incremental")).Add(40)
	r.Counter("sqlledger_audit_blocks_checked_total", L("mode", "sampled")).Add(8)
	cyc := r.Histogram("sqlledger_audit_cycle_seconds", []float64{1, 2})
	cyc.Observe(1)
	// The PR-10 recovery and checkpoint names.
	r.Counter("sqlledger_recovery_records_replayed_total").Add(50000)
	rec := r.Histogram(RecoverySeconds, []float64{1, 2, 4}, L("phase", "replay"))
	rec.Observe(2)
	cp := r.Histogram("sqlledger_checkpoint_seconds", []float64{1, 2})
	cp.Observe(1)
	qz := r.Histogram(CheckpointQuiesceSeconds, []float64{1})
	qz.Observe(0)
	// A histogram the traced commit path feeds renders plain buckets:
	// the 0.0.4 format has no exemplar syntax.
	ex := r.Histogram("sqlledger_test_traced_seconds", []float64{1, 2, 4})
	for _, v := range []float64{1, 3, 2} {
		ex.Observe(v)
	}
	// Labelled counters that were never incremented render as zero.
	for _, d := range []string{"dropped", "error", "sampled", "slow"} {
		r.Counter("sqlledger_traces_total", L("decision", d))
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prom.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Prometheus output mismatch\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}
