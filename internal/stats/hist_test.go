package stats

// Unit tests specific to hist.go beyond the smoke checks in
// stats_test.go: exact bin placement at boundaries, degenerate
// construction and proportional bar rendering.

import (
	"strings"
	"testing"
)

func TestHistogramExactBinning(t *testing.T) {
	h := NewHistogram(0, 10, 5) // bins of width 2: [0,2) [2,4) [4,6) [6,8) [8,10)
	for _, x := range []float64{0, 1.9, 2, 4.5, 9.99, 10} {
		h.Add(x) // 10 == hi clamps into the last bin
	}
	want := []int{2, 1, 1, 0, 2}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("counts = %v, want %v", h.Counts, want)
		}
	}
}

func TestHistogramDegenerateConstruction(t *testing.T) {
	// bins < 1 is promoted to one bin; hi <= lo widens to a unit range.
	h := NewHistogram(5, 5, 0)
	if len(h.Counts) != 1 || h.Hi != 6 {
		t.Fatalf("degenerate histogram: %+v", h)
	}
	h.Add(5)
	if h.Counts[0] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
}

func TestHistogramRenderBarWidths(t *testing.T) {
	h := NewHistogram(0, 4, 2)
	h.Add(1)
	h.Add(1)
	h.Add(3)
	out := h.Render(20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("rendered %d lines, want 2:\n%s", len(lines), out)
	}
	if strings.Count(lines[0], "#") != 20 {
		t.Errorf("fullest bin must render the full width:\n%s", out)
	}
	if strings.Count(lines[1], "#") != 10 {
		t.Errorf("half-count bin must render half the width:\n%s", out)
	}
	// Width below the minimum is clamped to 10 columns.
	if narrow := h.Render(1); strings.Count(strings.SplitN(narrow, "\n", 2)[0], "#") != 10 {
		t.Errorf("clamped width render:\n%s", narrow)
	}
}
