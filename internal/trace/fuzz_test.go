package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseMahimahi checks the trace parser never panics or allocates
// unboundedly on arbitrary input, and that accepted traces are sane.
func FuzzParseMahimahi(f *testing.F) {
	f.Add("0\n1\n2\n3\n")
	f.Add("# comment\n\n100\n100\n100\n250\n")
	f.Add("5\n5\n5\n5\n5\n5\n5\n5\n")
	f.Add("1000\n0\n500\n")        // unsorted
	f.Add("-1\n")                  // negative timestamp
	f.Add("86400001\n")            // beyond the horizon
	f.Add("12abc\n")               // malformed integer
	f.Add("9223372036854775807\n") // would overflow the bin array
	f.Add("")                      // empty trace
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ParseMahimahi(strings.NewReader(in))
		if err != nil {
			return
		}
		if tr.Interval <= 0 || len(tr.Rates) == 0 {
			t.Fatalf("accepted trace is degenerate: %+v", tr)
		}
		for i, r := range tr.Rates {
			if r < 0 {
				t.Fatalf("negative rate %v at bin %d", r, i)
			}
		}
		// Short accepted traces must survive a write/parse round trip
		// (long ones are skipped only to keep fuzz iterations fast).
		if len(tr.Rates) <= 100 {
			var buf bytes.Buffer
			if err := WriteMahimahi(&buf, tr, tr.Duration()); err != nil {
				t.Fatalf("round-trip write: %v", err)
			}
		}
	})
}
