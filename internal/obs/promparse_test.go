package obs_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"sqlledger/internal/core"
	"sqlledger/internal/engine"
	"sqlledger/internal/obs"
	"sqlledger/internal/sqltypes"
)

// The Prometheus text format 0.0.4, which /metrics declares, as a strict
// parser: a line is a "# TYPE name kind" declaration or a sample — a
// metric name, an optional label block, a value and an optional integer
// timestamp, single-space separated, nothing after. It exists so the
// exposition is checked as parseable telemetry, not only as frozen
// bytes: an OpenMetrics exemplar suffix (` # {trace_id="…"} v`) has no
// place in this grammar and fails it.

var (
	typeLine   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	label      = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"`
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:` + label + `(?:,` + label + `)*,?)?\})? (\S+)(?: (-?[0-9]+))?$`)
)

// parseExposition checks every line of a 0.0.4 exposition and that each
// sample belongs to the family the last TYPE line declared. It returns
// the samples as name+labels → value.
func parseExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	samples := map[string]string{}
	family, kind := "", ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if m := typeLine.FindStringSubmatch(line); m != nil {
			family, kind = m[1], m[2]
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("not a 0.0.4 line: %q", line)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name := m[1]
		if kind == "histogram" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && base == family {
					name = base
				}
			}
		}
		if name != family {
			t.Fatalf("sample %q outside its family %q", line, family)
		}
		samples[m[1]+m[2]] = m[3]
	}
	return samples
}

// TestPrometheusGoldenParses: every line of the golden exposition is
// 0.0.4, and the traced histogram's buckets are plain counts.
func TestPrometheusGoldenParses(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "prom.golden"))
	if err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, string(raw))
	for le, want := range map[string]string{"1": "1", "2": "2", "4": "3", "+Inf": "3"} {
		series := fmt.Sprintf(`sqlledger_test_traced_seconds_bucket{le="%s"}`, le)
		if samples[series] != want {
			t.Fatalf("%s = %q, want %s", series, samples[series], want)
		}
	}
}

// TestPrometheusLiveRegistryParses renders a registry that traced
// transactions have recorded into — contended lock waits and every
// commit stage, each with its trace retained — and parses it as 0.0.4.
func TestPrometheusLiveRegistryParses(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Traces().SetSlowThreshold(0) // retain every trace
	db, err := core.Open(core.Options{Dir: t.TempDir(), Name: "prom", BlockSize: 4, LockTimeout: 5 * time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := sqltypes.MustSchema([]sqltypes.Column{
		sqltypes.Col("name", sqltypes.TypeNVarChar),
		sqltypes.Col("balance", sqltypes.TypeBigInt),
	}, "name")
	lt, err := db.CreateLedgerTable("accounts", schema, engine.LedgerUpdateable)
	if err != nil {
		t.Fatal(err)
	}
	write := func(tx *core.Tx, bal int64) error {
		err := tx.Update(lt, sqltypes.Row{sqltypes.NewNVarChar("a"), sqltypes.NewBigInt(bal)})
		if err != nil {
			tx.Rollback()
			return err
		}
		return tx.Commit()
	}
	seed := db.Begin("seed")
	if err := seed.Insert(lt, sqltypes.Row{sqltypes.NewNVarChar("a"), sqltypes.NewBigInt(0)}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	// A holder keeps the row locked until a second writer has waited for
	// it; retried with a longer hold until a wait is recorded.
	for hold := 5 * time.Millisecond; reg.Snapshot().HistogramCount(obs.LockWaitSeconds) == 0; hold *= 2 {
		if hold > 5*time.Second {
			t.Fatal("no lock wait recorded")
		}
		holder := db.Begin("holder")
		if err := holder.Update(lt, sqltypes.Row{sqltypes.NewNVarChar("a"), sqltypes.NewBigInt(1)}); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- write(db.Begin("waiter"), 2) }()
		time.Sleep(hold)
		if err := holder.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if snap.HistogramCount(obs.CommitStageSeconds) == 0 || len(reg.Traces().Recent(0)) == 0 {
		t.Fatal("no traced commit recorded")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, sb.String())
	if samples[obs.LockWaitSeconds+"_count"] == "0" || samples[obs.LockWaitSeconds+"_count"] == "" {
		t.Fatalf("exposition has no lock waits:\n%s", sb.String())
	}
}
