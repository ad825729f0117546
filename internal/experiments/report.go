package experiments

import (
	"fmt"
	"strings"
)

// Format renders Table 4 in the paper's layout: one row per experiment,
// one column per policy, medians of the average bounded slowdowns.
func (t *Table4Result) Format() string {
	var sb strings.Builder
	labelW := len("Experiment")
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	fmt.Fprintf(&sb, "%-*s", labelW, "Experiment")
	for _, p := range t.Policies {
		fmt.Fprintf(&sb, " %10s", p)
	}
	sb.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-*s", labelW, r.Label)
		for _, v := range r.Medians {
			fmt.Fprintf(&sb, " %10.2f", v)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// FormatTable5 renders the trace inventory like the paper's Table 5.
func FormatTable5(rows []Table5Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %6s %9s %8s %7s %9s\n", "Name", "Year", "# CPUs", "# Jobs", "Util %", "Duration")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %6d %9d %8d %7.1f %7.1f d\n",
			r.Name, r.Year, r.Cores, r.Jobs, 100*r.Utilization, r.Days)
	}
	return sb.String()
}

// FormatFig2 renders the convergence series as a two-column table.
func FormatFig2(r *Fig2Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%12s %12s\n", "trials", "norm stddev")
	for i, c := range r.Counts {
		fmt.Fprintf(&sb, "%12d %12.4f\n", c, r.Normalized[i])
	}
	return sb.String()
}

// FormatTable3 renders the fitted functions like the paper's Table 3,
// both raw (artifact style) and simplified (paper style).
func FormatTable3(r *Table3Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "score distribution: %d samples; top %d distinct functions\n", r.Samples, len(r.Best))
	for i, res := range r.Best {
		simp, _ := res.Func.Simplified()
		fmt.Fprintf(&sb, "F%d: %s\n    raw: %s\n    fitness=%.7g\n",
			i+1, simp.Compact(), res.Func.String(), res.Rank)
	}
	return sb.String()
}

// RenderHeatmap draws one Figure 3 panel as ASCII art, darker characters
// meaning higher priority (lower normalized score), like the paper's
// colormap.
//
//gensched:allow deadlint logged by the root BenchmarkFig3Heatmaps
func RenderHeatmap(h Heatmap, width int) string {
	shades := []byte("@#*+=-:. ") // dark (high priority) to light
	if width <= 0 || width > len(h.Xs) {
		width = len(h.Xs)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s vs %s (fixed %s=%.3g)\n", h.Policy, h.YLabel, h.XLabel, h.FixedVar, h.FixedVal)
	stepX := len(h.Xs) / width
	if stepX < 1 {
		stepX = 1
	}
	for yi := len(h.Ys) - 1; yi >= 0; yi -= 2 {
		for xi := 0; xi < len(h.Xs); xi += stepX {
			v := h.Z[yi][xi]
			idx := int(v * float64(len(shades)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			sb.WriteByte(shades[idx])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
