package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMeanMedianBasics(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Mean(xs); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Median(xs); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("Median = %v, want 2.5", got)
	}
	if got := Median([]float64{5, 1, 9}); !almostEq(got, 5, 1e-12) {
		t.Errorf("odd Median = %v, want 5", got)
	}
}

func TestEmptyInputsAreNaN(t *testing.T) {
	for name, got := range map[string]float64{
		"Mean":     Mean(nil),
		"Median":   Median(nil),
		"Variance": Variance(nil),
		"StdDev":   StdDev(nil),
		"Max":      Max(nil),
		"Quantile": Quantile(nil, 0.5),
	} {
		if !math.IsNaN(got) {
			t.Errorf("%s(nil) = %v, want NaN", name, got)
		}
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestSampleStdDev(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	// Sample variance = 5/3.
	if got := SampleStdDev(xs); !almostEq(got, math.Sqrt(5.0/3.0), 1e-12) {
		t.Errorf("SampleStdDev = %v", got)
	}
	if got := SampleStdDev([]float64{1}); !math.IsNaN(got) {
		t.Errorf("SampleStdDev of singleton = %v, want NaN", got)
	}
}

func TestQuantileType7(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile(xs, -0.1); !math.IsNaN(got) {
		t.Errorf("Quantile(-0.1) = %v, want NaN", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	if err := quick.Check(func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		lo := xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
		}
		va, vb := Quantile(xs, qa), Quantile(xs, qb)
		return va <= vb && va >= lo-1e-9 && vb <= Max(xs)+1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBoxplotKnown(t *testing.T) {
	// 1..9 with one extreme outlier.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b, err := NewBoxplot(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(b.Median, 5.5, 1e-12) {
		t.Errorf("Median = %v, want 5.5", b.Median)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("Outliers = %v, want [100]", b.Outliers)
	}
	if b.HiWhisk != 9 || b.LoWhisk != 1 {
		t.Errorf("whiskers = [%v, %v], want [1, 9]", b.LoWhisk, b.HiWhisk)
	}
}

func TestBoxplotEmpty(t *testing.T) {
	if _, err := NewBoxplot(nil); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestBoxplotInvariants(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		b, err := NewBoxplot(xs)
		if err != nil {
			return false
		}
		// Ordering invariants of the five-number summary. Note: with
		// type-7 interpolated quantiles on tiny samples an extreme
		// outlier can drag Q1 below the low whisker (the whisker is the
		// smallest *observation* inside the fences, the quartile is an
		// interpolation), so LoWhisk <= Q1 is NOT an invariant; the
		// quartile ordering and whisker ordering are.
		if !(b.Q1 <= b.Median && b.Median <= b.Q3 && b.LoWhisk <= b.HiWhisk) {
			return false
		}
		// Outliers lie strictly outside the fences.
		for _, o := range b.Outliers {
			if o >= b.Q1-1.5*(b.Q3-b.Q1) && o <= b.Q3+1.5*(b.Q3-b.Q1) {
				return false
			}
		}
		// Whiskers + outliers account for the extremes.
		sort.Float64s(xs)
		loAll, hiAll := xs[0], xs[len(xs)-1]
		coveredLo := b.LoWhisk == loAll || (len(b.Outliers) > 0 && b.Outliers[0] == loAll)
		coveredHi := b.HiWhisk == hiAll || (len(b.Outliers) > 0 && b.Outliers[len(b.Outliers)-1] == hiAll)
		return coveredLo && coveredHi
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRenderBoxplots(t *testing.T) {
	b1, _ := NewBoxplot([]float64{1, 2, 3, 4, 5})
	b2, _ := NewBoxplot([]float64{2, 4, 6, 8, 50})
	out := RenderBoxplots([]string{"FCFS", "F1"}, []Boxplot{b1, b2}, 40)
	if out == "" {
		t.Fatal("empty render")
	}
	if got := len(splitLines(out)); got != 3 {
		t.Errorf("render has %d lines, want 3", got)
	}
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				lines = append(lines, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}

func TestRenderBoxplotsEdgeCases(t *testing.T) {
	b, _ := NewBoxplot([]float64{1, 2, 3})
	if out := RenderBoxplots([]string{"a", "b"}, []Boxplot{b}, 40); out != "" {
		t.Error("mismatched labels must render nothing")
	}
	if out := RenderBoxplots(nil, nil, 40); out != "" {
		t.Error("empty input must render nothing")
	}
	// Degenerate all-equal data still renders.
	flat, _ := NewBoxplot([]float64{5, 5, 5})
	if out := RenderBoxplots([]string{"flat"}, []Boxplot{flat}, 40); out == "" {
		t.Error("flat distribution must still render")
	}
}

func TestHistogramRenderEmpty(t *testing.T) {
	h := NewHistogram(0, 10, 3)
	if h.Render(20) == "" {
		t.Error("empty histogram must render bin rows")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0, 1, 2.5, 5, 9.9, -3, 42, math.NaN()} {
		h.Add(x)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 7 { // NaN dropped
		t.Errorf("total = %d, want 7", total)
	}
	if h.Counts[0] != 3 { // 0, 1, and clamped -3
		t.Errorf("bin 0 = %d, want 3", h.Counts[0])
	}
	if h.Counts[4] != 2 { // 9.9 and clamped 42
		t.Errorf("bin 4 = %d, want 2", h.Counts[4])
	}
	if h.Render(30) == "" {
		t.Error("empty histogram render")
	}
}
