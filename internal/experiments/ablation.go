package experiments

import (
	"fmt"
	"strings"

	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/stats"
)

// LoadSweepResult maps offered load to per-policy median AVEbsld. It
// extends the paper's fixed-load evaluation with the question operators
// actually ask: at what load does policy choice start to matter, and do
// the learned policies ever lose their lead?
type LoadSweepResult struct {
	Loads    []float64
	Policies []string
	Medians  [][]float64 // [load][policy]
}

// LoadSweep runs the model scenario at each offered load.
//
//gensched:allow deadlint driver of the root BenchmarkAblationLoadSweep
func LoadSweep(cfg Config, cores int, loads []float64, policies []sched.Policy) (*LoadSweepResult, error) {
	if len(loads) == 0 {
		return nil, fmt.Errorf("experiments: load sweep needs at least one load")
	}
	out := &LoadSweepResult{Loads: loads, Policies: sched.Names(policies)}
	for _, load := range loads {
		c := cfg
		c.ModelLoad = load
		ws, err := ModelWindows(c, cores)
		if err != nil {
			return nil, fmt.Errorf("experiments: load %.2f: %w", load, err)
		}
		sc := Scenario{
			ID:    fmt.Sprintf("loadsweep-%.2f", load),
			Name:  fmt.Sprintf("Lublin model, load %.2f", load),
			Cores: cores, Windows: ws,
		}
		res, err := RunDynamic(sc, policies, cfg.workers())
		if err != nil {
			return nil, err
		}
		out.Medians = append(out.Medians, res.Medians())
	}
	return out, nil
}

// Crossovers reports, per pair of policies (a, b), the loads where their
// median ordering flips between consecutive sweep points — the "where
// crossovers fall" series of the reproduction brief.
//
//gensched:allow deadlint logged by the root BenchmarkAblationLoadSweep
func (r *LoadSweepResult) Crossovers() []string {
	var out []string
	for a := 0; a < len(r.Policies); a++ {
		for b := a + 1; b < len(r.Policies); b++ {
			for li := 1; li < len(r.Loads); li++ {
				prev := r.Medians[li-1][a] - r.Medians[li-1][b]
				cur := r.Medians[li][a] - r.Medians[li][b]
				if prev*cur < 0 {
					out = append(out, fmt.Sprintf("%s/%s between load %.2f and %.2f",
						r.Policies[a], r.Policies[b], r.Loads[li-1], r.Loads[li]))
				}
			}
		}
	}
	return out
}

// Format renders the sweep as a table, loads down, policies across.
func (r *LoadSweepResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%6s", "load")
	for _, p := range r.Policies {
		fmt.Fprintf(&sb, " %10s", p)
	}
	sb.WriteString("\n")
	for li, load := range r.Loads {
		fmt.Fprintf(&sb, "%6.2f", load)
		for _, v := range r.Medians[li] {
			fmt.Fprintf(&sb, " %10.2f", v)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// BackfillGain quantifies how much each policy benefits from EASY
// backfilling on the same windows: the ratio of no-backfill to EASY
// median AVEbsld (the paper's §4.2.3 observation that FCFS gains most and
// the learned functions least).
//
//gensched:allow deadlint driver of the root BenchmarkAblationBackfillGain
func BackfillGain(sc Scenario, policies []sched.Policy, workers int) (map[string]float64, error) {
	plain := sc
	plain.Backfill = sim.BackfillNone
	easy := sc
	easy.Backfill = sim.BackfillEASY
	a, err := RunDynamic(plain, policies, workers)
	if err != nil {
		return nil, err
	}
	b, err := RunDynamic(easy, policies, workers)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(policies))
	for i, name := range a.Policies {
		ma, mb := stats.Median(a.PerSeq[i]), stats.Median(b.PerSeq[i])
		if mb > 0 {
			out[name] = ma / mb
		}
	}
	return out, nil
}
