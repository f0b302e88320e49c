package main

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

// metricDef declares a metric: BENCHMARK.json lists exactly these (a
// test compares the two), and every run emits exactly these.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the gated metrics; each is reported by every workload's
// untraced run. README.md says what each means per workload, where the
// bounds come from, and why throughput, latency and fail_share are
// reported (BENCH.json, bench.* below) but not in this list: on the
// reference host no wall-clock figure repeats within the contract's
// widest bound, only the ratio of two interleaved ones does.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ledger_tax", "ratio", "lower", 0.25},
	{"write_amp", "ratio", "lower", 0.02},
	{"live_heap_mb", "MiB", "lower", 0.10},
}

// perLayer are the traced run's metrics, grouped by the module they
// price. A metric reads 0 on a workload that does not exercise it.
var perLayer = []metricDef{
	// serial: row serialization + SHA-256 (kernel on the workload's rows).
	{name: "serial.hash_row_ns", unit: "ns", better: "lower"},
	{name: "serial.hash_mb_s", unit: "MB/s", better: "higher"},
	{name: "serial.rows_hashed", unit: "count", better: "lower"},
	// merkle
	{name: "merkle.append_ns", unit: "ns", better: "lower"},
	{name: "merkle.root_of_ns_per_leaf", unit: "ns", better: "lower"},
	{name: "merkle.proof_build_us", unit: "us", better: "lower"},
	{name: "merkle.proof_verify_us", unit: "us", better: "lower"},
	// btree
	{name: "btree.put_ns", unit: "ns", better: "lower"},
	{name: "btree.get_ns", unit: "ns", better: "lower"},
	{name: "btree.scan_ns_per_row", unit: "ns", better: "lower"},
	{name: "btree.build_sorted_ns_per_key", unit: "ns", better: "lower"},
	// wal: kernels plus the ledger twin's registry counts.
	{name: "wal.append_ns_per_record", unit: "ns", better: "lower"},
	{name: "wal.bytes_per_record", unit: "B", better: "lower"},
	{name: "wal.records_total", unit: "count", better: "lower"},
	{name: "wal.bytes_total", unit: "B", better: "lower"},
	{name: "wal.flushes", unit: "count", better: "lower"},
	{name: "wal.fsyncs", unit: "count", better: "lower"},
	{name: "wal.group_size_mean", unit: "count", better: "higher"},
	{name: "wal.flush_us", unit: "us", better: "lower"},
	{name: "wal.fsync_us", unit: "us", better: "lower"},
	{name: "wal.read_records_per_s", unit: "1/s", better: "higher"},
	{name: "wal.pipelined_read_records_per_s", unit: "1/s", better: "higher"},
	// engine: regular-twin spans, registry shares, checkpoint, recovery.
	{name: "engine.begin_us", unit: "us", better: "lower"},
	{name: "engine.insert_us", unit: "us", better: "lower"},
	{name: "engine.update_us", unit: "us", better: "lower"},
	{name: "engine.delete_us", unit: "us", better: "lower"},
	{name: "engine.get_us", unit: "us", better: "lower"},
	{name: "engine.scan_us_per_row", unit: "us", better: "lower"},
	{name: "engine.commit_us", unit: "us", better: "lower"},
	{name: "engine.snapshot_get_us", unit: "us", better: "lower"},
	{name: "engine.commit_stage_encode_share", unit: "ratio", better: "lower"},
	{name: "engine.commit_stage_sequence_share", unit: "ratio", better: "lower"},
	{name: "engine.commit_stage_publish_share", unit: "ratio", better: "lower"},
	{name: "engine.commit_stage_wait_share", unit: "ratio", better: "lower"},
	{name: "engine.commit_stage_apply_share", unit: "ratio", better: "lower"},
	{name: "engine.lock_wait_share", unit: "ratio", better: "lower"},
	{name: "engine.lock_timeouts", unit: "count", better: "lower"},
	{name: "engine.versions_live", unit: "count", better: "lower"},
	{name: "engine.gc_reclaimed", unit: "count", better: "higher"},
	{name: "engine.checkpoint_s", unit: "s", better: "lower"},
	{name: "engine.checkpoint_quiesce_us", unit: "us", better: "lower"},
	{name: "engine.snapshot_bytes", unit: "B", better: "lower"},
	{name: "engine.recover_snapshot_s", unit: "s", better: "lower"},
	{name: "engine.recover_replay_s", unit: "s", better: "lower"},
	{name: "engine.recover_install_s", unit: "s", better: "lower"},
	{name: "engine.recover_serial_s", unit: "s", better: "lower"},
	// core: ledger-twin spans, their difference to the regular twin's,
	// block close, digest, verification phases, audit, receipts.
	{name: "core.begin_us", unit: "us", better: "lower"},
	{name: "core.insert_us", unit: "us", better: "lower"},
	{name: "core.update_us", unit: "us", better: "lower"},
	{name: "core.delete_us", unit: "us", better: "lower"},
	{name: "core.get_us", unit: "us", better: "lower"},
	{name: "core.commit_us", unit: "us", better: "lower"},
	{name: "core.insert_batch_us_per_row", unit: "us", better: "lower"},
	{name: "core.insert_tax_us", unit: "us", better: "lower"},
	{name: "core.update_tax_us", unit: "us", better: "lower"},
	{name: "core.delete_tax_us", unit: "us", better: "lower"},
	{name: "core.commit_tax_us", unit: "us", better: "lower"},
	{name: "core.get_tax_us", unit: "us", better: "lower"},
	{name: "core.block_close_ms", unit: "ms", better: "lower"},
	{name: "core.blocks_closed", unit: "count", better: "lower"},
	{name: "core.digest_ms", unit: "ms", better: "lower"},
	{name: "core.verify_chain_s", unit: "s", better: "lower"},
	{name: "core.verify_row_versions_s", unit: "s", better: "lower"},
	{name: "core.verify_indexes_s", unit: "s", better: "lower"},
	{name: "core.verify_views_s", unit: "s", better: "lower"},
	{name: "core.audit_incremental_ms", unit: "ms", better: "lower"},
	{name: "core.audit_sampled_ms", unit: "ms", better: "lower"},
	{name: "core.receipt_us", unit: "us", better: "lower"},
	{name: "core.read_receipt_us", unit: "us", better: "lower"},
	{name: "core.read_receipt_verify_us", unit: "us", better: "lower"},
	{name: "core.open_s", unit: "s", better: "lower"},
	// sql: the statement layer none of the workloads goes through.
	{name: "sql.exec_insert_us", unit: "us", better: "lower"},
	{name: "sql.exec_select_us", unit: "us", better: "lower"},
	{name: "sql.overhead_share", unit: "ratio", better: "lower"},
	// obs: what the metrics registry costs (tpcc).
	{name: "obs.overhead_share", unit: "ratio", better: "lower"},
	// bench: the harness itself.
	{name: "bench.gen_share", unit: "ratio", better: "lower"},
	{name: "bench.client_share", unit: "ratio", better: "lower"},
	{name: "bench.span_coverage", unit: "ratio", better: "higher"},
	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "bench.model_residual_share", unit: "ratio", better: "lower"},
	{name: "bench.work_per_s", unit: "1/s", better: "higher"},
	{name: "bench.lat_p50_ms", unit: "ms", better: "lower"},
	{name: "bench.lat_p99_ms", unit: "ms", better: "lower"},
	{name: "bench.lat_samples", unit: "count", better: "higher"},
	{name: "bench.fail_share", unit: "ratio", better: "lower"},
}

// newMetricSet returns a set holding every metric of defs at zero, so a
// run emits each name exactly once whether or not it measured it.
func newMetricSet(defs []metricDef) metricSet {
	m := make(metricSet, len(defs))
	for _, d := range defs {
		m[d.name] = metric{Unit: d.unit}
	}
	return m
}

// set records a value for a declared metric; an undeclared name is a
// programming error.
func (m metricSet) set(name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	cur.Value = v
	m[name] = cur
}

func (m metricSet) get(name string) float64 { return m[name].Value }
