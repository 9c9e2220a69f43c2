package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of a snapshot.
//
// Naming: every metric gets the "seldon_" prefix and dots become
// underscores. Counters gain the conventional "_total" suffix; timers
// export as cumulative histograms in seconds ("_seconds" family with
// _bucket/_sum/_count series) over the fixed log-spaced BucketBounds
// layout, so a scraper's histogram_quantile() yields honest tail
// quantiles. Output is fully sorted and deterministic — the format is
// pinned by a golden test.

// PromContentType is the Content-Type of the exposition.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Prom renders the snapshot in the Prometheus text format. Traces have
// no Prometheus shape and are omitted (they stay in the JSON snapshot
// and /debug/traces).
func (s *Snapshot) Prom() []byte {
	var b strings.Builder
	for _, k := range sortedKeys(s.Counters) {
		name := promName(k) + "_total"
		fmt.Fprintf(&b, "# HELP %s counter %s\n# TYPE %s counter\n%s %d\n",
			name, k, name, name, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		name := promName(k)
		fmt.Fprintf(&b, "# HELP %s gauge %s\n# TYPE %s gauge\n%s %s\n",
			name, k, name, name, promFloat(s.Gauges[k]))
	}
	bounds := BucketBounds()
	for _, k := range sortedKeys(s.Timers) {
		t := s.Timers[k]
		name := promName(k) + "_seconds"
		fmt.Fprintf(&b, "# HELP %s timer %s\n# TYPE %s histogram\n", name, k, name)
		for i, bound := range bounds {
			var cum int64
			if i < len(t.Buckets) {
				cum = t.Buckets[i]
			}
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, promFloat(bound), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, t.Count)
		fmt.Fprintf(&b, "%s_sum %s\n", name, promFloat(t.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", name, t.Count)
	}
	return []byte(b.String())
}

// promName sanitizes a dotted metric name into the Prometheus
// identifier charset under the seldon_ namespace.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("seldon_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
