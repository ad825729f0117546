package stats

// Unit tests specific to boxplot.go beyond the summary checks in
// stats_test.go: exact type-7 quartiles, degenerate inputs, the String
// rendering, and the content (not just the shape) of RenderBoxplots.

import (
	"strings"
	"testing"
)

func TestNewBoxplotFiveNumberSummary(t *testing.T) {
	// 1..9: type-7 quartiles land exactly on order statistics.
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5} // unsorted on purpose
	b, err := NewBoxplot(xs)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 9 || b.Q1 != 3 || b.Median != 5 || b.Q3 != 7 {
		t.Fatalf("summary: %+v", b)
	}
	if b.Q3-b.Q1 != 4 {
		t.Errorf("IQR = %v, want 4", b.Q3-b.Q1)
	}
	// Fences at [-3, 13]: all data inside, whiskers at the extremes.
	if b.LoWhisk != 1 || b.HiWhisk != 9 || len(b.Outliers) != 0 {
		t.Errorf("whiskers: %+v", b)
	}
}

func TestNewBoxplotUpperWhiskerInsideFence(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 100}
	b, err := NewBoxplot(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Q1=3, Q3=7 → fences [-3, 13]: 100 is an outlier; the upper whisker
	// is the largest value still inside the fence, not the maximum.
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Fatalf("outliers: %+v", b.Outliers)
	}
	if b.LoWhisk != 1 || b.HiWhisk != 8 {
		t.Errorf("whiskers = (%v, %v), want (1, 8)", b.LoWhisk, b.HiWhisk)
	}
	if s := b.String(); !strings.Contains(s, "n=9") || !strings.Contains(s, "outliers=1") {
		t.Errorf("String() = %q", s)
	}
}

func TestNewBoxplotDegenerate(t *testing.T) {
	// A single observation is its own five-number summary.
	b, err := NewBoxplot([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if b.Median != 42 || b.Q1 != 42 || b.Q3 != 42 || b.LoWhisk != 42 || b.HiWhisk != 42 {
		t.Errorf("singleton: %+v", b)
	}
	// Identical observations: zero IQR, nothing is an outlier.
	b, err = NewBoxplot([]float64{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if b.Q3-b.Q1 != 0 || len(b.Outliers) != 0 || b.LoWhisk != 5 || b.HiWhisk != 5 {
		t.Errorf("constant data: %+v", b)
	}
}

func TestRenderBoxplotsMarkers(t *testing.T) {
	a, _ := NewBoxplot([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	c, _ := NewBoxplot([]float64{1, 2, 3, 4, 5, 6, 7, 8, 100})
	out := RenderBoxplots([]string{"FCFS", "F1"}, []Boxplot{a, c}, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // one row per series + the scale row
		t.Fatalf("rendered %d lines, want 3:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "FCFS") || !strings.HasPrefix(lines[1], "F1") {
		t.Errorf("labels missing:\n%s", out)
	}
	for i, row := range lines[:2] {
		if !strings.Contains(row, "M") {
			t.Errorf("row %d has no median marker:\n%s", i, out)
		}
		if !strings.Contains(row, "med=") {
			t.Errorf("row %d has no median annotation:\n%s", i, out)
		}
	}
	if !strings.Contains(lines[1], "o") {
		t.Errorf("outlier marker missing from second row:\n%s", out)
	}
	if !strings.HasPrefix(lines[2], "scale") {
		t.Errorf("scale row missing:\n%s", out)
	}
}

func TestRenderBoxplotsWidthClamp(t *testing.T) {
	// Width below the minimum is clamped to 20 columns; zero-range data
	// must not divide by zero or render NaNs.
	b, _ := NewBoxplot([]float64{3, 3, 3})
	out := RenderBoxplots([]string{"x"}, []Boxplot{b}, 1)
	if out == "" || strings.Contains(out, "NaN") {
		t.Fatalf("degenerate render: %q", out)
	}
	row := strings.SplitN(out, "\n", 2)[0]
	open := strings.IndexByte(row, '[')
	close_ := strings.IndexByte(row, ']')
	if close_-open-1 != 20 {
		t.Errorf("plot area %d columns, want clamped 20: %q", close_-open-1, row)
	}
}
