package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width binning of observations over [Lo, Hi).
// Values outside the range are clamped into the first or last bin so no
// observation is silently dropped.
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// Render draws the histogram as ASCII bars with one row per bin.
func (h *Histogram) Render(width int) string {
	if width < 10 {
		width = 10
	}
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC == 0 {
		maxC = 1
	}
	var sb strings.Builder
	binW := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*width/maxC)
		fmt.Fprintf(&sb, "[%10.4g,%10.4g) %6d %s\n", h.Lo+float64(i)*binW, h.Lo+float64(i+1)*binW, c, bar)
	}
	return sb.String()
}
