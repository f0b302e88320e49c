package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"sqlledger"
	"sqlledger/internal/obs"
)

// fillPerLayer computes the traced run's per-layer table from its four
// sources, all outside the program under test: the harness's spans,
// the difference between the ledger twin's spans and the regular
// twin's, the layer kernels, and the ledger database's own registry
// read at the phase boundaries.
func fillPerLayer(m metricSet, cfg *config, workload string, r *run, lat []int64, pc phaseCounts, ratios extraRatios) error {
	led, reg := r.ledger(), r.regular()
	lt, rt := totalsOf(led.recorders()), totalsOf(reg.recorders())
	snap0, snap1 := pc.led0, pc.led1

	// (a) spans and (b) twin differencing.
	for _, k := range []struct {
		name string
		kind spanKind
	}{{"begin", kindBegin}, {"insert", kindInsert}, {"update", kindUpdate},
		{"delete", kindDelete}, {"get", kindGet}, {"commit", kindCommit}} {
		m.set("core."+k.name+"_us", lt.twin[k.kind].meanUS())
		m.set("engine."+k.name+"_us", rt.twin[k.kind].meanUS())
	}
	m.set("core.insert_batch_us_per_row", lt.twin[kindInsertBatch].perRowUS())
	m.set("engine.scan_us_per_row", rt.twin[kindScan].perRowUS())
	m.set("engine.snapshot_get_us", rt.twin[kindSnapGet].meanUS())
	for _, k := range []struct {
		name string
		kind spanKind
	}{{"update", kindUpdate}, {"delete", kindDelete}, {"commit", kindCommit}, {"get", kindGet}} {
		if lt.twin[k.kind].count > 0 && rt.twin[k.kind].count > 0 {
			m.set("core."+k.name+"_tax_us", lt.twin[k.kind].meanUS()-rt.twin[k.kind].meanUS())
		}
	}
	// Inserts reach the tables one by one or in batches; the tax is per
	// row over both.
	insL := kindTotal{rows: lt.twin[kindInsert].rows + lt.twin[kindInsertBatch].rows, ns: lt.twin[kindInsert].ns + lt.twin[kindInsertBatch].ns}
	insR := kindTotal{rows: rt.twin[kindInsert].rows + rt.twin[kindInsertBatch].rows, ns: rt.twin[kindInsert].ns + rt.twin[kindInsertBatch].ns}
	if insL.rows > 0 && insR.rows > 0 {
		m.set("core.insert_tax_us", insL.perRowUS()-insR.perRowUS())
	}
	m.set("core.read_receipt_us", lt.all[kindReadReceipt].meanUS())
	m.set("core.read_receipt_verify_us", lt.all[kindReadReceiptVerify].meanUS())

	// The harness itself.
	if lt.rootNS > 0 {
		m.set("bench.gen_share", float64(lt.all[kindGen].ns)/float64(lt.rootNS))
		m.set("bench.client_share", float64(lt.all[kindClient].ns)/float64(lt.rootNS))
	}
	m.set("bench.span_coverage", lt.coverage())
	if ratios.traceOverUntraced > 0 {
		m.set("bench.trace_overhead_share", 1-1/ratios.traceOverUntraced)
	}
	if ratios.obsOverNoObs > 0 {
		m.set("obs.overhead_share", 1-1/ratios.obsOverNoObs)
	}
	m.set("bench.work_per_s", led.workPerSecond())
	m.set("bench.lat_samples", float64(len(lat)))
	m.set("bench.lat_p50_ms", ms(percentileNS(lat, 50)))
	if supportsP99(len(lat)) {
		m.set("bench.lat_p99_ms", ms(percentileNS(lat, 99)))
	}

	// (d) registry counts over the measured rounds.
	var walExtraBytes, histRows float64
	if led.st.db != nil {
		delta := func(name string) float64 {
			return float64(snap1.CounterValue(name) - snap0.CounterValue(name))
		}
		m.set("serial.rows_hashed", delta(obs.RowsHashedTotal))
		m.set("wal.records_total", delta(obs.WALAppendRecords))
		m.set("wal.bytes_total", delta(obs.WALAppendBytes))
		m.set("wal.flushes", delta(obs.WALFlushTotal))
		m.set("wal.fsyncs", delta(obs.WALFsyncTotal))
		if g := delta(obs.WALGroups); g > 0 {
			m.set("wal.group_size_mean", delta(obs.WALGroupCommits)/g)
		}
		stages := []string{"encode", "sequence", "publish", "wait", "apply"}
		sums := make([]float64, len(stages))
		var total float64
		for i, st := range stages {
			sums[i] = histSum(snap1, obs.CommitStageSeconds, "stage", st) - histSum(snap0, obs.CommitStageSeconds, "stage", st)
			total += sums[i]
		}
		for i, st := range stages {
			if total > 0 {
				m.set("engine.commit_stage_"+st+"_share", sums[i]/total)
			}
		}
		if busy := float64(len(led.clients)) * led.totalWall().Seconds(); busy > 0 {
			m.set("engine.lock_wait_share", (histSum(snap1, obs.LockWaitSeconds)-histSum(snap0, obs.LockWaitSeconds))/busy)
		}
		m.set("engine.lock_timeouts", delta(obs.LockTimeoutTotal))
		if v, ok := snap1.GaugeValue(obs.VersionsLive); ok {
			m.set("engine.versions_live", v)
		}
		m.set("engine.gc_reclaimed", delta(obs.VersionGCReclaimedTotal))
		m.set("core.blocks_closed", delta(obs.BlocksClosedTotal))
		if n := snap1.HistogramCount(obs.BlockCloseSeconds) - snap0.HistogramCount(obs.BlockCloseSeconds); n > 0 {
			m.set("core.block_close_ms", (histSum(snap1, obs.BlockCloseSeconds)-histSum(snap0, obs.BlockCloseSeconds))/float64(n)*1e3)
		}
		walExtraBytes = delta(obs.WALAppendBytes) -
			float64(pc.reg1.CounterValue(obs.WALAppendBytes)-pc.reg0.CounterValue(obs.WALAppendBytes))
		histRows = float64(lt.twin[kindUpdate].count + lt.twin[kindDelete].count)
		if err := checkpointProbe(m, led); err != nil {
			return err
		}
	}

	// (c) layer kernels on this workload's rows.
	if err := runKernels(m, cfg, workload, r.kernel); err != nil {
		return err
	}

	// The model: what the kernels say the ledger's extra work should cost
	// (rows hashed, Merkle leaves, history-table inserts, extra WAL
	// bytes), against the measured ledger-minus-regular time. What is
	// left over is reported, not hidden: it is a finding for a later
	// change, not a failure of this one.
	extra := led.totalWall().Seconds()*float64(len(led.clients)) - reg.totalWall().Seconds()*float64(len(reg.clients))
	if hashed := m.get("serial.rows_hashed"); extra > 0 && hashed > 0 {
		var nsPerWALByte float64
		if b := m.get("wal.bytes_per_record"); b > 0 {
			nsPerWALByte = m.get("wal.append_ns_per_record") / b
		}
		if walExtraBytes < 0 {
			walExtraBytes = 0
		}
		model := hashed*(m.get("serial.hash_row_ns")+m.get("merkle.append_ns")) +
			histRows*m.get("engine.insert_us")*1e3 + walExtraBytes*nsPerWALByte
		m.set("bench.model_residual_share", 1-model/1e9/extra)
	}

	if r.extras != nil {
		return r.extras(m)
	}
	return nil
}

// histSum is the sum of a registry histogram's observations.
func histSum(s sqlledger.MetricsSnapshot, name string, label ...string) float64 {
	var labels []sqlledger.MetricLabel
	for i := 0; i+1 < len(label); i += 2 {
		labels = append(labels, sqlledger.MetricLabel{Key: label[i], Value: label[i+1]})
	}
	h, _ := s.Histogram(name, labels...)
	return h.Sum
}

// checkpointProbe takes one checkpoint of the ledger database after the
// measured phase and reports its duration, its quiesce window and the
// size of the snapshot it wrote.
func checkpointProbe(m metricSet, led *variant) error {
	db := led.st.db
	before := db.Snapshot()
	var rec *recorder
	if len(led.clients) > 0 {
		rec = led.clients[0].rec
	}
	t0 := time.Now()
	var s0 int64
	if rec != nil {
		s0 = rec.now()
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	m.set("engine.checkpoint_s", time.Since(t0).Seconds())
	if rec != nil {
		rec.spans = append(rec.spans, span{start: s0, end: rec.now(), parent: -1, kind: kindCheckpoint})
	}
	after := db.Snapshot()
	if n := after.HistogramCount(obs.CheckpointQuiesceSeconds) - before.HistogramCount(obs.CheckpointQuiesceSeconds); n > 0 {
		m.set("engine.checkpoint_quiesce_us", (histSum(after, obs.CheckpointQuiesceSeconds)-histSum(before, obs.CheckpointQuiesceSeconds))/float64(n)*1e6)
	}
	snaps, err := filepath.Glob(filepath.Join(db.Engine().Dir(), "snap-*.snap"))
	if err != nil {
		return err
	}
	var newest os.FileInfo
	for _, p := range snaps {
		if fi, err := os.Stat(p); err == nil && (newest == nil || fi.ModTime().After(newest.ModTime())) {
			newest = fi
		}
	}
	if newest != nil {
		m.set("engine.snapshot_bytes", float64(newest.Size()))
	}
	return nil
}

// traceFile is what bench/out/trace-<workload>.json holds: per twin, the
// totals of every span name over the whole measured phase, and the
// individual spans (name, start, end, parent, client) of the first
// operations of each client - enough to draw a waterfall, without
// writing a million spans.
type traceFile struct {
	Workload string      `json:"workload"`
	Twins    []traceTwin `json:"twins"`
}

type traceTwin struct {
	Twin   string       `json:"twin"`
	Totals []traceTotal `json:"totals"`
	Spans  []traceSpan  `json:"spans"`
}

type traceTotal struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	SumUS  float64 `json:"sum_us"`
	SelfUS float64 `json:"self_us"`
}

type traceSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1: root
	Client  int    `json:"client"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Rows    int32  `json:"rows,omitempty"`
}

// traceSpansPerClient bounds the individual spans written per client.
const traceSpansPerClient = 2000

func writeTrace(cfg *config, workload string, r *run) error {
	tf := traceFile{Workload: workload}
	for _, v := range r.variants {
		recs := v.recorders()
		if len(recs) == 0 {
			continue
		}
		tw := traceTwin{Twin: v.name}
		sums := make(map[string]*traceTotal)
		var order []string
		for _, rec := range recs {
			self := selfTimes(rec.spans)
			for i, s := range rec.spans {
				name := s.name()
				t := sums[name]
				if t == nil {
					t = &traceTotal{Name: name}
					sums[name] = t
					order = append(order, name)
				}
				t.Count++
				t.SumUS += float64(s.dur()) / 1e3
				t.SelfUS += float64(self[i]) / 1e3
				if i < traceSpansPerClient {
					tw.Spans = append(tw.Spans, traceSpan{ID: i, Parent: int(s.parent), Client: rec.client,
						Name: name, StartNS: s.start, EndNS: s.end, Rows: s.rows})
				}
			}
		}
		for _, name := range order {
			tw.Totals = append(tw.Totals, *sums[name])
		}
		tf.Twins = append(tf.Twins, tw)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "trace-"+workload+".json"), b, 0o644)
}
