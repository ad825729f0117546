package workload

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseSWF feeds arbitrary bytes to the SWF parser: it must never
// panic, and any trace it accepts must survive a write/parse round trip.
func FuzzParseSWF(f *testing.F) {
	f.Add(sampleSWF)
	f.Add("")
	f.Add("; MaxProcs: abc\n")
	f.Add("1 0 3 100 4 -1 -1 4 120 -1 1 -1 -1 -1 -1 -1 -1 -1\n")
	f.Add("1 0 3 100 4\n1 0 3 100 4\n")
	f.Add("-1 -1 -1 -1 -1\n")
	f.Add("9e999 0 0 1 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseSWF(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSWF(&buf, tr); err != nil {
			t.Fatalf("accepted trace does not serialize: %v", err)
		}
		back, err := ParseSWF(&buf)
		if err != nil {
			t.Fatalf("serialized trace does not re-parse: %v", err)
		}
		if len(back.Jobs) != len(tr.Jobs) {
			t.Fatalf("round trip changed job count: %d -> %d", len(tr.Jobs), len(back.Jobs))
		}
	})
}
