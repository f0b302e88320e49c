package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry's current state in the Prometheus
// text exposition format (version 0.0.4): one `# TYPE` line per metric
// family, series sorted by name then labels, histograms expanded into
// cumulative `_bucket{le=...}` series plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return writePrometheus(w, r.Snapshot())
}

func writePrometheus(w io.Writer, snap Snapshot) error {
	type series struct {
		kind  string // "counter", "gauge", "histogram"
		lines []string
	}
	families := map[string]*series{}
	add := func(name, kind, line string) {
		f, ok := families[name]
		if !ok {
			f = &series{kind: kind}
			families[name] = f
		}
		f.lines = append(f.lines, line)
	}

	for _, c := range snap.Counters {
		add(c.Name, "counter", fmt.Sprintf("%s%s %d", c.Name, labelString(c.Labels, "", 0), c.Value))
	}
	for _, g := range snap.Gauges {
		add(g.Name, "gauge", fmt.Sprintf("%s%s %s", g.Name, labelString(g.Labels, "", 0), formatFloat(g.Value)))
	}
	for _, h := range snap.Histograms {
		for _, b := range h.Buckets {
			add(h.Name, "histogram", fmt.Sprintf("%s_bucket%s %d",
				h.Name, labelString(h.Labels, "le", b.UpperBound), b.Count))
		}
		add(h.Name, "histogram", fmt.Sprintf("%s_sum%s %s", h.Name, labelString(h.Labels, "", 0), formatFloat(h.Sum)))
		add(h.Name, "histogram", fmt.Sprintf("%s_count%s %d", h.Name, labelString(h.Labels, "", 0), h.Count))
	}

	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		f := families[name]
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, f.kind)
		for _, line := range f.lines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labelString renders {k1="v1",k2="v2"}, optionally appending an le
// label (used for histogram buckets). Returns "" when there are no
// labels at all.
func labelString(labels []Label, leKey string, le float64) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if leKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leKey)
		b.WriteString(`="`)
		if math.IsInf(le, 1) {
			b.WriteString("+Inf")
		} else {
			b.WriteString(formatFloat(le))
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
