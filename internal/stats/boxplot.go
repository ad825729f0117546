package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Boxplot is a Tukey five-number boxplot summary with 1.5·IQR whiskers,
// exactly the convention the paper states for Figures 4–9: "the box limits
// representing the upper and lower quartiles, and the whiskers representing
// the lowest and highest values outside the box limits but still inside the
// range of 1.5 times the difference between the upper and lower quartiles".
type Boxplot struct {
	Median   float64
	Q1, Q3   float64
	LoWhisk  float64 // smallest observation >= Q1 - 1.5*IQR
	HiWhisk  float64 // largest observation <= Q3 + 1.5*IQR
	Outliers []float64
	N        int
}

// NewBoxplot computes the boxplot summary of xs. It returns ErrEmpty for
// empty input.
func NewBoxplot(xs []float64) (Boxplot, error) {
	if len(xs) == 0 {
		return Boxplot{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	b := Boxplot{
		Median: quantileSorted(sorted, 0.5),
		Q1:     quantileSorted(sorted, 0.25),
		Q3:     quantileSorted(sorted, 0.75),
		N:      len(sorted),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.LoWhisk = math.NaN()
	b.HiWhisk = math.NaN()
	for _, x := range sorted {
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
			continue
		}
		if math.IsNaN(b.LoWhisk) {
			b.LoWhisk = x
		}
		b.HiWhisk = x
	}
	// All points can be outliers only if IQR is NaN; with finite data at
	// least the quartiles themselves are inside the fences.
	if math.IsNaN(b.LoWhisk) {
		b.LoWhisk, b.HiWhisk = b.Q1, b.Q3
	}
	return b, nil
}

// String renders the five-number summary on one line.
func (b Boxplot) String() string {
	return fmt.Sprintf("n=%d lo=%.2f q1=%.2f med=%.2f q3=%.2f hi=%.2f outliers=%d",
		b.N, b.LoWhisk, b.Q1, b.Median, b.Q3, b.HiWhisk, len(b.Outliers))
}

// RenderBoxplots draws labeled horizontal ASCII boxplots on a shared linear
// scale, one per series, in the order given. It is the terminal stand-in
// for the paper's figures; width is the number of columns for the plot area
// (minimum 20).
func RenderBoxplots(labels []string, boxes []Boxplot, width int) string {
	if width < 20 {
		width = 20
	}
	if len(labels) != len(boxes) || len(boxes) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, b := range boxes {
		bLo, bHi := b.LoWhisk, b.HiWhisk
		if len(b.Outliers) > 0 {
			bLo = math.Min(bLo, b.Outliers[0])
			bHi = math.Max(bHi, b.Outliers[len(b.Outliers)-1])
		}
		lo = math.Min(lo, bLo)
		hi = math.Max(hi, bHi)
	}
	if hi <= lo {
		hi = lo + 1
	}
	col := func(v float64) int {
		c := int(math.Round((v - lo) / (hi - lo) * float64(width-1)))
		if c < 0 {
			c = 0
		}
		if c > width-1 {
			c = width - 1
		}
		return c
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	var sb strings.Builder
	for i, b := range boxes {
		row := make([]byte, width)
		for j := range row {
			row[j] = ' '
		}
		for j := col(b.LoWhisk); j <= col(b.HiWhisk); j++ {
			row[j] = '-'
		}
		for j := col(b.Q1); j <= col(b.Q3); j++ {
			row[j] = '='
		}
		row[col(b.LoWhisk)] = '|'
		row[col(b.HiWhisk)] = '|'
		row[col(b.Median)] = 'M'
		for _, o := range b.Outliers {
			row[col(o)] = 'o'
		}
		fmt.Fprintf(&sb, "%-*s [%s] med=%.2f\n", labelW, labels[i], string(row), b.Median)
	}
	fmt.Fprintf(&sb, "%-*s  %-*.6g%*.6g\n", labelW, "scale", width/2, lo, width-width/2, hi)
	return sb.String()
}
