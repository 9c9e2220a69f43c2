package trace

import (
	"regexp"
	"strings"
	"testing"
)

// wellFormed is the oracle: a version-00 traceparent header, by the
// grammar rather than by position.
var wellFormed = regexp.MustCompile(`^00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$`)

// FuzzParseTraceparent feeds arbitrary header values to the one parser
// that runs on an untrusted header of every request. It must not panic
// or allocate; it must accept exactly the headers that are, once
// trimmed, "00-<32 hex>-<16 hex>-<2 hex>" in lowercase with neither ID
// all zeros, returning the IDs found at those positions — so formatting
// the result gives the input back up to its flags — and reject
// everything else: other versions and widths, uppercase, zero IDs.
// Seeds: testdata/fuzz/FuzzParseTraceparent.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Fuzz(func(t *testing.T, h string) {
		var traceID, spanID string
		var ok bool
		if allocs := testing.AllocsPerRun(1, func() { traceID, spanID, ok = ParseTraceparent(h) }); allocs != 0 {
			t.Errorf("ParseTraceparent(%q) allocates %v times", h, allocs)
		}
		trimmed := strings.TrimSpace(h)
		m := wellFormed.FindStringSubmatch(trimmed)
		want := m != nil && strings.Trim(m[1], "0") != "" && strings.Trim(m[2], "0") != ""
		if ok != want {
			t.Fatalf("ParseTraceparent(%q) ok = %v, want %v", h, ok, want)
		}
		if !ok {
			if traceID != "" || spanID != "" {
				t.Errorf("ParseTraceparent(%q) rejected but returned %q, %q", h, traceID, spanID)
			}
			return
		}
		if traceID != m[1] || spanID != m[2] {
			t.Errorf("ParseTraceparent(%q) = %q, %q, want %q, %q", h, traceID, spanID, m[1], m[2])
		}
		if got := FormatTraceparent(traceID, spanID); got[:flagsAt] != trimmed[:flagsAt] {
			t.Errorf("FormatTraceparent of the result = %q, input %q", got, trimmed)
		}
	})
}
